"""Objective functions, reference solutions, and the H*-error metric.

The solver and benchmarks work against a small objective contract: an
objective exposes ``dim``, ``margins``, ``value``, ``gradient`` and
``hessian``.  Generalized linear objectives additionally expose
``curvature_weights``, ``root_weights`` and ``glm_square_root``.  The
sketches work from ``root_weights``, the row weights sqrt(l/n) of the
square-root Hessian M = diag(sqrt(l/n)) A: the sparse ones scale their S
by them and apply it to A, and the Gaussian one forms M^T M from them.
Only the Gaussian fallback forms M itself.

``margins(x)`` is the one pass over the data at x; it is linear in x.  Every
evaluation accepts it as ``margins=`` and then skips that pass, so a caller
that evaluates several quantities at one point forms the margins once and
hands them along.  Nothing is cached: everything here is a pure function of
its inputs, and objects are safe to share across concurrent runs.

Everything runs in float64.  ``solve_reference`` certifies its x* by the
float64 gradient at fresh margins, and raises where it cannot.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ._blas import single_thread

# Reference solves push the gradient two orders below what the 1e-6
# H*-error stopping criterion can resolve, so x* error is negligible.
REF_GRAD_TOL = 1e-13
REF_MAX_ITER = 200


def _as_vector(x, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"expected vector of length {d}, got shape {x.shape}")
    # The method form: np.all's dispatch costs more than the check at small d.
    if not np.isfinite(x).all():
        raise ValueError("input vector contains non-finite entries")
    return x


@dataclass
class Dataset:
    """Design matrix A (n rows a_i^T) and labels b in {-1, +1}."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = np.ascontiguousarray(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b)
        if self.A.ndim != 2 or self.A.shape[0] < 1 or self.A.shape[1] < 1:
            raise ValueError("A must be a nonempty 2-d matrix")
        if not np.all(np.isfinite(self.A)):
            raise ValueError("A contains non-finite entries")
        if self.b.shape != (self.A.shape[0],):
            raise ValueError("b must have one label per row of A")
        if not np.all(np.isin(self.b, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        self.b = self.b.astype(np.int64)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]


class Objective(ABC):
    """Contract shared by all objectives: value/gradient/hessian on R^d.

    Each evaluation takes the ``margins(x)`` of the same x as an optional
    keyword; objectives whose evaluations do not need it ignore it.
    """

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @abstractmethod
    def margins(self, x) -> np.ndarray:
        """The data pass that evaluations at x share.

        Margins are linear in x: margins(x + mu p) = margins(x) + mu margins(p).
        """

    @abstractmethod
    def value(self, x, margins=None) -> float: ...

    @abstractmethod
    def gradient(self, x, margins=None) -> np.ndarray: ...

    @abstractmethod
    def hessian(self, x, margins=None) -> np.ndarray: ...


# _gram sums its product over row blocks of at most this many entries (2 MiB
# of float64).  The row count per block depends on d alone, so the sum does
# not depend on the machine.  For the exact Hessian at 8000 x 400 one call
# took 45.5 ms in 1 MiB blocks, 41.1 ms in 2 MiB and 39.1 ms in 4 MiB,
# against 38.3 ms for the one-shot product, which takes 24 MiB more (medians
# of 41, one BLAS thread, 2-vCPU Xeon VM).
_HESSIAN_BLOCK = 1 << 18


def _gram(r: np.ndarray, nu: float, w=None) -> np.ndarray:
    """R^T R + nu*I for R = diag(w) r, or R = r if w is None.

    The one form of every GLM Hessian and estimate.  R^T R is summed over
    row blocks R_b of at most _HESSIAN_BLOCK entries: views of r, or, with
    w, blocks of r scaled by w into one reused buffer, so R is never formed
    whole.  numpy sends each R_b^T R_b to BLAS syrk, which does half the
    flops of a general product and fills both triangles with the same
    values, so the result is exactly symmetric.
    """
    n, d = r.shape
    rows = max(1, _HESSIAN_BLOCK // d)
    buf = None if w is None else np.empty(min(rows, n) * d)
    h = part = None
    for i in range(0, n, rows):
        block = r[i:i + rows]
        if w is not None:
            block = np.multiply(w[i:i + rows, None], block,
                                out=buf[:block.size].reshape(block.shape))
        if h is None:
            h = block.T @ block
        else:
            part = np.matmul(block.T, block, out=part)
            h += part
    h.reshape(-1)[::d + 1] += nu  # the diagonal, a view: h is contiguous
    return h


class RegularizedLogistic(Objective):
    """f(x) = (1/n) sum log(1+exp(-b_i a_i^T x)) + (reg_nu/2)||x||^2.

    The regularizer reg_nu >= 0 is the l2 strength; with reg_nu > 0 the
    Hessian is uniformly positive definite with smallest eigenvalue at
    least reg_nu.  All evaluations use the overflow-safe form
    log(1+exp(u)) = max(u,0) + log1p(exp(-|u|)).
    """

    def __init__(self, dataset: Dataset, reg_nu: float):
        if not 0 <= reg_nu < math.inf:
            raise ValueError("reg_nu must be finite and nonnegative")
        self.dataset = dataset
        self.reg_nu = float(reg_nu)

    @property
    def dim(self) -> int:
        return self.dataset.d

    def margins(self, x) -> np.ndarray:
        """m_i = b_i a_i^T x, the one O(nd) pass behind every evaluation."""
        x = _as_vector(x, self.dim)
        return self.dataset.b * (self.dataset.A @ x)

    def value(self, x, margins=None) -> float:
        x = _as_vector(x, self.dim)
        m = self.margins(x) if margins is None else margins
        # max(-m, 0) + log1p(e^{-|m|}) in two scratch arrays; the sum over
        # n is the one np.mean takes.
        t = np.abs(m)
        np.negative(t, out=t)
        np.exp(t, out=t)
        np.log1p(t, out=t)
        u = np.negative(m)
        np.maximum(u, 0.0, out=u)
        u += t
        loss = float(np.add.reduce(u) / u.size)
        return loss + 0.5 * self.reg_nu * float(x @ x)

    def gradient(self, x, margins=None) -> np.ndarray:
        x = _as_vector(x, self.dim)
        m = self.margins(x) if margins is None else margins
        # -(1/n) A^T (b * sigma(-m)) + reg_nu x.  sigma(-m) = 1/(1+e^m) is
        # formed from e = e^{-|m|}, which cannot overflow; the n-vector chain
        # runs in two scratch arrays.
        e = np.abs(m)
        np.negative(e, out=e)
        np.exp(e, out=e)
        w = np.where(m >= 0, e, 1.0)
        e += 1.0
        w /= e
        w *= self.dataset.b
        g = self.dataset.A.T @ w
        np.negative(g, out=g)
        g /= self.dataset.n
        g += self.reg_nu * x
        return g

    def curvature_weights(self, x, margins=None) -> np.ndarray:
        """Per-row logistic curvature l_j = e^{-m_j}/(1+e^{-m_j})^2 in (0, 1/4]."""
        m = self.margins(x) if margins is None else margins
        # l = sigma(m) * sigma(-m) is symmetric in the sign of m, so it is
        # e/(1+e)^2 with e = e^{-|m|}.  Near m = 0 that rounds up to one ulp
        # above 1/4, hence the clamp.
        l = np.abs(m)
        np.negative(l, out=l)
        np.exp(l, out=l)
        den = l + 1.0
        den *= den
        l /= den
        return np.minimum(l, 0.25, out=l)

    def root_weights(self, x, margins):
        """sqrt(l/n), the row scales of glm_square_root."""
        l = self.curvature_weights(x, margins)
        l /= self.dataset.n
        return np.sqrt(l, out=l)

    def glm_square_root(self, x, margins=None) -> np.ndarray:
        """M = (1/sqrt(n)) diag(l)^{1/2} A, so that M^T M + reg_nu I = hessian.

        An n x d array, as large as A; hessian never forms it whole.
        """
        return self.root_weights(x, margins)[:, None] * self.dataset.A

    def hessian(self, x, margins=None) -> np.ndarray:
        """_gram(glm_square_root(x), reg_nu), without forming M whole.

        _gram scales each row block of A by its root weights in one reused
        buffer, so the Hessian takes a block of M at a time, and it equals
        _gram(glm_square_root(x), reg_nu) to the bit at every size.
        """
        return _gram(self.dataset.A, self.reg_nu,
                     self.root_weights(x, margins))


@dataclass
class ReferenceSolution:
    """Minimizer x*, certified by its float64 gradient, and H* there."""

    x_star: np.ndarray
    h_star: np.ndarray


@single_thread()
def solve_reference(obj: Objective, x0) -> ReferenceSolution:
    """Damped Newton to ||grad f|| <= 1e-13, then full Newton steps.

    The damped phase is the stochastic solver's loop (``solver._descend``)
    with the exact Hessian's direction and Armijo with the default beta and
    rho, so the stochastic solver with an exact oracle and no averaging
    reproduces these iterates.  It runs unless x0 already meets the
    tolerance, and stops at the tolerance, after 200 iterations, or at the
    rounding floor, where its gradient norm stops halving below 1e-8.  Up to
    20 full Newton steps follow, on the gradient at fresh margins, until it
    meets the tolerance, the Newton system fails or x stops changing.  x* is
    certified by that gradient: RuntimeError is raised unless it meets the
    tolerance.  On data scaled far up, float64 rounding keeps it above (see
    the README).  RuntimeError is also raised when reg_nu = 0 and x*
    separates the data: then f has no minimizer.
    """
    from .solver import SolverConfig, _descend, newton_direction

    def exact_direction(x, g, margins):
        p = newton_direction(obj.hessian(x, margins=margins), g)
        if p is None:
            raise RuntimeError("reference solve: Newton system not solvable "
                               "(objective not strongly convex?)")
        return p

    def stop(x, g, skipped):
        nonlocal prev_norm
        if skipped:
            raise RuntimeError("reference solve: line search failed")
        g_norm = math.sqrt(float(g @ g))
        # Below 1e-8 a norm that stops halving is float64's rounding floor;
        # the full steps take over there.
        done = g_norm <= REF_GRAD_TOL or 0.5 * prev_norm <= g_norm <= 1e-8
        prev_norm = g_norm
        return g_norm, done

    x = _as_vector(x0, obj.dim).copy()
    g = obj.gradient(x)
    prev_norm = math.sqrt(float(g @ g))
    if prev_norm > REF_GRAD_TOL:
        x = _descend(obj, x, SolverConfig(max_iter=REF_MAX_ITER),
                     exact_direction, stop).final_x
    m = obj.margins(x)
    g = obj.gradient(x, margins=m)
    for _ in range(20):
        if math.sqrt(float(g @ g)) <= REF_GRAD_TOL:
            break
        p = newton_direction(obj.hessian(x, margins=m), g)
        if p is None:
            break
        x_new = x + p
        if np.array_equal(x_new, x):
            break
        x = x_new
        m = obj.margins(x)
        g = obj.gradient(x, margins=m)
    grad_norm = math.sqrt(float(g @ g))
    if grad_norm > REF_GRAD_TOL:
        raise RuntimeError(
            f"reference solve: final ||grad f|| = {grad_norm:.3e} is above "
            f"the tolerance {REF_GRAD_TOL:g}")
    if (isinstance(obj, RegularizedLogistic) and obj.reg_nu == 0
            and (m > 0).all()):
        raise RuntimeError("reference solve: the data are linearly separable "
                           "and reg_nu = 0, so f has no minimizer")
    return ReferenceSolution(x_star=x, h_star=obj.hessian(x, margins=m))


def hstar_error(x, ref: ReferenceSolution) -> float:
    """||x - x*|| in the H* norm: sqrt((x-x*)^T H* (x-x*))."""
    dx = _as_vector(x, ref.x_star.shape[0]) - ref.x_star
    # Guard tiny negative values from rounding when dx is at machine scale.
    return math.sqrt(max(float(dx @ ref.h_star @ dx), 0.0))
