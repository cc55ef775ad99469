"""Stochastic Hessian oracles.

Every oracle returns an estimate H_hat(x) = H(x) + E(x) of the true Hessian,
where E is a mean-zero random perturbation.  On a GLM each is R^T R + nu I
from the one routine ``problem._gram``, which hands the self-products of R's
row blocks to BLAS syrk, so it is exactly symmetric with no symmetrize pass,
and a full subsample (s = n) is the exact Hessian to the bit.  Four
constructions are provided:

* ``Exact`` returns H(x) itself (zero noise).
* ``Subsample`` averages s per-row curvature terms drawn without replacement.
* ``GaussianSketch``, ``CountSketch`` and ``LessUniform`` compress the GLM
  square-root factor M = diag(r) A, r = sqrt(l/n) (with M^T M + nu I = H),
  through a random s x n matrix S with E[S^T S] = I, returning
  (SM)^T (SM) + nu I.  Only the Gaussian fallback below forms M.

  CountSketch S (one nonzero per column) is a CSC array and LESS S
  (nnz_per_row nonzeros per row) a CSR array; estimate scales S's
  nonzeros by r and forms (S diag(r)) @ A, which costs O(nnz(S) d).
  CountSketch's values are +-1, so its estimate equals the one from S @ M
  to the bit; LESS's do too when n = s * nnz_per_row, and elsewhere they
  agree to about an ulp.

  The Gaussian estimate does not draw S itself.  S's rows are i.i.d.
  N(0, I_n / s), so each row of S M is N(0, M^T M / s), which is also the
  law of g R for g ~ N(0, I_d / s) and any R with R^T R = M^T M.  estimate
  therefore forms M^T M blockwise from A and r, takes its upper Cholesky
  factor R, and returns (G R)^T (G R) + nu I with G the s x d Gaussian
  sketch: s d normals instead of s n, and exactly the law of the s x n
  draw.  potrf is backward stable, so R^T R matches M^T M to rounding even
  when M^T M is ill-conditioned.  Where potrf fails (M^T M not numerically
  positive definite, as when n < d) it draws S at full width and returns
  (S M)^T (S M) + nu I.

``noise_sample`` returns the noise norms of repeated draws at a fixed point
(no solver path calls it), each from ``spectral_norm``: a full symmetric
eigendecomposition, so it is exact at any d.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import get_lapack_funcs

from .problem import _gram

# The LAPACK Cholesky, resolved once: its Python wrapper in scipy.linalg
# costs more than a d = 100 factorization.
_potrf = get_lapack_funcs(("potrf",), dtype=np.float64)[0]


class CapabilityError(TypeError):
    """Raised when an oracle kind needs structure the objective lacks."""


@dataclass(frozen=True)
class Exact:
    """Noise-free oracle: returns the exact Hessian."""


@dataclass(frozen=True)
class _Sized:
    """Base of the oracles that draw s rows or sketch down to s rows."""

    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("%s oracle needs a sample/sketch size s >= 1, "
                             "got %r" % (type(self).__name__, self.s))


class Subsample(_Sized):
    """Subsampled Hessian from s data rows drawn without replacement."""


class GaussianSketch(_Sized):
    """Sketch with i.i.d. N(0, 1/s) entries."""


class CountSketch(_Sized):
    """Sketch with one +-1 entry per column, placed in a uniform row."""


@dataclass(frozen=True)
class LessUniform(_Sized):
    """Sparse sketch with a fixed number of +-c nonzeros per row.

    Each of the s rows carries nnz_per_row nonzeros at distinct uniform
    positions with values +-sqrt(n/(s*nnz_per_row)), the unique scaling
    giving E[S^T S] = I.  When nnz_per_row is None it is resolved to
    ceil(0.1*d) at estimation time.
    """

    nnz_per_row: int | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.nnz_per_row is not None and self.nnz_per_row < 1:
            raise ValueError("nnz_per_row must be >= 1")


def resolve_kind(kind, d: int):
    """Fill in kind defaults that depend on the problem dimension."""
    if isinstance(kind, LessUniform) and kind.nnz_per_row is None:
        return replace(kind, nnz_per_row=max(1, math.ceil(0.1 * d)))
    return kind


def _require_glm(obj, kind):
    if not hasattr(obj, "root_weights") or not hasattr(obj, "dataset"):
        raise CapabilityError(
            "%s oracle needs a GLM objective exposing per-row structure"
            % type(kind).__name__
        )


def sketch_matrix(kind, n: int, rng) -> "np.ndarray | sparse.sparray":
    """Draw one s x n sketching matrix S with E[S^T S] = I.

    Each kind comes in the form that is cheapest to apply to a dense n x d
    array: Gaussian S is a dense ndarray; CountSketch S is a CSC array with
    one nonzero per column and LESS S a CSR array with nnz_per_row nonzeros
    per row, so ``estimate`` scales their nonzeros by the root weights and
    applies them to A in O(nnz(S) d).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(kind, GaussianSketch):
        return rng.standard_normal((kind.s, n)) / math.sqrt(kind.s)
    if isinstance(kind, CountSketch):
        rows = rng.integers(0, kind.s, size=n)
        signs = 2.0 * rng.integers(0, 2, size=n) - 1.0
        return sparse.csc_array((signs, rows, np.arange(n + 1)),
                                shape=(kind.s, n))
    if isinstance(kind, LessUniform):
        s, k = kind.s, kind.nnz_per_row
        if k is None:
            raise ValueError("nnz_per_row is unresolved; use resolve_kind")
        if k > n:
            raise ValueError("nnz_per_row cannot exceed n")
        # Floyd's algorithm, run for all s rows at once: step j draws t
        # uniform in [0, j] and keeps it unless the row already holds t,
        # in which case it keeps j.  Each row is a uniform k-subset.  The
        # k steps' draws come from one generator call, in the order of k
        # calls of size s.
        steps = rng.integers(0, np.arange(n - k + 1, n + 1)[:, None],
                             size=(k, s))
        pos = np.empty((s, k), dtype=np.intp)
        for c, (j, t) in enumerate(zip(range(n - k, n), steps)):
            taken = (pos[:, :c] == t[:, None]).any(axis=1)
            pos[:, c] = np.where(taken, j, t)
        signs = 2.0 * rng.integers(0, 2, size=(s, k)) - 1.0
        vals = signs * math.sqrt(n / (s * k))
        return sparse.csr_array((vals.ravel(), pos.ravel(),
                                 np.arange(0, s * k + 1, k)), shape=(s, n))
    raise CapabilityError("not a sketch kind: %r" % (kind,))


def estimate(kind, obj, x, rng, margins=None) -> np.ndarray:
    """Draw one stochastic Hessian estimate at x: a symmetric d x d matrix.

    margins, when given, are ``obj.margins(x)``; the objective then skips
    its own pass over the data.
    """
    kind = resolve_kind(kind, obj.dim)
    if isinstance(kind, Exact):
        return obj.hessian(x, margins=margins)
    if isinstance(kind, Subsample):
        _require_glm(obj, kind)
        ds = obj.dataset
        if kind.s > ds.n:
            raise ValueError("subsample size s exceeds the number of rows")
        idx = np.sort(rng.choice(ds.n, size=kind.s, replace=False))
        m = obj.margins(x) if margins is None else margins
        l = obj.curvature_weights(x, margins=m[idx])
        l /= kind.s
        np.sqrt(l, out=l)
        # A[idx] is a fresh copy, so it is scaled in place.
        r = ds.A[idx]
        r *= l[:, None]
        return _gram(r, obj.reg_nu)
    if not isinstance(kind, (GaussianSketch, CountSketch, LessUniform)):
        raise CapabilityError("unknown oracle kind: %r" % (kind,))
    _require_glm(obj, kind)
    ds = obj.dataset
    # The row weights r = sqrt(l/n) of M = diag(r) A.
    r = obj.root_weights(x, margins)
    if isinstance(kind, GaussianSketch):
        # G R with R^T R = M^T M has the law of S M (module docstring).
        # potrf reads M^T M's transpose, a Fortran-order array with its
        # values by symmetry, in place; clean=1 zeroes R's lower triangle.
        gram = _gram(ds.A, 0.0, r)
        root, info = _potrf(gram.T, lower=0, clean=1, overwrite_a=1)
        if info == 0:
            return _gram(sketch_matrix(kind, ds.d, rng) @ root, obj.reg_nu)
        return _gram(sketch_matrix(kind, ds.n, rng)
                     @ obj.glm_square_root(x, margins=margins), obj.reg_nu)
    # S @ M = (S diag(r)) @ A: scaling S's nonzeros by r forms no n x d
    # array.  CountSketch (CSC) holds column j's one nonzero at data[j];
    # LESS (CSR) holds the nonzeros of column j wherever indices == j.
    sketch = sketch_matrix(kind, ds.n, rng)
    sketch.data *= r if isinstance(kind, CountSketch) else r[sketch.indices]
    return _gram(sketch @ ds.A, obj.reg_nu)


def spectral_norm(m: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix: its largest |eigenvalue|."""
    return float(np.abs(np.linalg.eigvalsh(m)).max())


def noise_sample(kind, obj, x, rng, count: int) -> np.ndarray:
    """The spectral norms ||H_hat - H||_2 of count estimates drawn at fixed x."""
    if count < 2:
        raise ValueError("count must be >= 2")
    margins = obj.margins(x)
    h_true = obj.hessian(x, margins=margins)
    return np.array([
        spectral_norm(estimate(kind, obj, x, rng, margins=margins) - h_true)
        for _ in range(count)])
