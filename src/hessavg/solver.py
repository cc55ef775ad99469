"""Stochastic Newton solver with online Hessian averaging.

Each iteration draws a stochastic Hessian estimate, folds it into the
running weighted average, and takes a damped Newton step on the averaged
matrix.  The averaging update happens every iteration, including skipped
ones, so the estimate keeps improving while the direction is unusable.
An estimate with a non-finite entry is the one exception: it is left out,
so that one bad draw cannot poison the average for good.

An iteration is skipped (x unchanged) when the averaged matrix has no
Cholesky factorization, when the solved direction is not a descent
direction, or when Armijo backtracking fails within the cap.

``bfgs_run`` provides a deterministic quasi-Newton baseline.  Both solvers
run one shared loop, so they have the same line search, records, stopping
rule and non-finite guard; they differ only in how they pick a direction.

Each point is evaluated once: the line search moves the margins along the
search ray, and the accepted trial's margins serve its value, its gradient
and the next Hessian estimate.  An iteration makes one pass over the data
for the search direction and one for the gradient, however many trials its
search takes.  Each search starts one below the last accepted j and still
returns the step of the scan from j = 0 (``line_search``).
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from ._blas import single_thread
from .averaging import Uniform, initial_state, update
from .oracles import Exact, estimate
from .problem import ReferenceSolution, _as_vector, hstar_error

DEFAULT_BETA = 1e-4
DEFAULT_RHO = 0.5
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 999
MAX_BACKTRACKS = 60

# The LAPACK routines behind scipy's cho_factor/cho_solve, resolved once:
# their Python wrappers cost more than a d = 100 factorization.
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def check_armijo(beta: float, rho: float) -> None:
    """Range check of the Armijo parameters: beta in (0, 1/2), rho in (0, 1)."""
    if not 0.0 < beta < 0.5:
        raise ValueError("beta must lie in (0, 1/2)")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")


@dataclass
class SolverConfig:
    """Run parameters: line search, budget, tolerance, oracle, weights, seed."""

    beta: float = DEFAULT_BETA
    rho_backtrack: float = DEFAULT_RHO
    max_iter: int = DEFAULT_MAX_ITER
    tol_hstar: float = DEFAULT_TOL
    oracle: object = field(default_factory=Exact)
    weights: object = field(default_factory=Uniform)
    seed: int = 0

    def __post_init__(self):
        check_armijo(self.beta, self.rho_backtrack)
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0 <= self.tol_hstar < math.inf:
            raise ValueError("tol_hstar must be finite and nonnegative")


@dataclass
class IterationRecord:
    """Post-update snapshot of one iteration (t counts from 0)."""

    t: int
    f: float
    grad_norm: float
    hstar_error: float
    stepsize: float
    skipped: bool
    backtracks: int


@dataclass
class RunResult:
    records: list
    converged: bool
    iterations_to_tol: int | None
    final_x: np.ndarray


def newton_direction(h_tilde: np.ndarray, g: np.ndarray):
    """Solve h_tilde p = -g if h_tilde is positive definite.

    h_tilde must be exactly symmetric, as every Hessian, estimate and
    average in this package is.  Returns None (skip) when the Cholesky
    factorization fails or the solution is not a strict descent direction.
    The LAPACK calls are the ones cho_factor(lower=True)/cho_solve make,
    with the same arguments, so p is the same to the bit.
    """
    # potrf reads a Fortran-order matrix.  h_tilde.T is one, with the values
    # of h_tilde by symmetry, so f2py copies it as it lies, not transposed.
    c, info = _potrf(h_tilde.T, lower=1, clean=0)
    if info != 0:
        return None
    # -g is a fresh array, so potrs may solve in place.
    p, info = _potrs(c, -g, lower=1, overwrite_b=1)
    if info != 0 or not np.isfinite(p).all() or float(g @ p) >= 0.0:
        return None
    return p


class Step(NamedTuple):
    """An accepted trial: stepsize mu, x + mu p, and f and margins there."""

    mu: float
    x: np.ndarray
    f: float
    margins: np.ndarray


def _decisive(f_trial: float, bound: float, f0: float) -> bool:
    """Whether a rejected trial's excess over the Armijo bound is far above
    the rounding of a computed f, so that convexity rules out larger steps."""
    return f_trial - bound > 1e-12 * (abs(f0) + abs(f_trial))


def line_search(obj, x, p, beta: float = DEFAULT_BETA,
                rho_backtrack: float = DEFAULT_RHO, *,
                f0: float, g0: np.ndarray, m0: np.ndarray, start: int = 0):
    """Armijo backtracking: smallest j >= 0 with
    f(x + rho^j p) <= f(x) + rho^j * beta * grad(x)^T p.

    Returns (step, backtracks); step is the accepted ``Step``, or None when
    no j <= 60 works.  f0, g0 and m0 are the value, gradient and margins at
    x, which callers already hold.  Margins are linear in x, so the search
    forms q = margins(p) once and each trial's margins are m0 + mu q: a
    trial costs O(n), not a pass over the data.

    ``start`` is the first j to try, clamped into [0, 60].  f is convex
    along the ray, so the excess of f over the Armijo line is convex and
    zero at mu = 0, and the accepted j are all those from the smallest one
    on.  The search holds lo, below which every j is rejected, and best,
    the smallest j accepted so far (at hi).  An accepted trial walks down
    one j; a rejection at lo, or one whose excess is decisive
    (``_decisive``), rules out every j up to its own; a near-tie rejection
    elsewhere rescans from lo.  It stops once lo reaches hi, so every start
    returns the j, mu and trial of the scan from 0, to the bit.
    """
    slope = float(g0 @ p)
    q = obj.margins(p)
    # mu_j by repeated multiplication, as the scan from 0 forms it.
    mus = [1.0]
    lo, hi, best = 0, MAX_BACKTRACKS + 1, None
    j = min(max(start, 0), MAX_BACKTRACKS)
    while lo < hi:
        while len(mus) <= j:
            mus.append(mus[-1] * rho_backtrack)
        mu = mus[j]
        # x + mu p and m0 + mu q, summed in place of a second temporary.
        x_trial = p * mu
        x_trial += x
        m_trial = q * mu
        m_trial += m0
        f_trial = obj.value(x_trial, margins=m_trial)
        bound = f0 + mu * beta * slope
        if f_trial <= bound:
            best, hi, j = Step(mu, x_trial, f_trial, m_trial), j, j - 1
        elif j == lo or _decisive(f_trial, bound, f0):
            lo = j = j + 1
        else:
            j = lo
    return best, hi


def _descend(obj, x0, config: SolverConfig, ref: ReferenceSolution,
             direction, on_step=None) -> RunResult:
    """The loop shared by ``run`` and ``bfgs_run``.

    direction(x, g, margins) gives a step or None (skip); on_step(s, y)
    sees each accepted step s and its gradient change y.  Stops at
    H*-error <= config.tol_hstar, after config.max_iter iterations, or
    once f or x is non-finite.
    """
    x = _as_vector(x0, obj.dim).copy()
    m_cur = obj.margins(x)
    f_cur = obj.value(x, margins=m_cur)
    g_cur = obj.gradient(x, margins=m_cur)
    records: list[IterationRecord] = []
    accepted_j = 0
    for t in range(config.max_iter):
        p = direction(x, g_cur, m_cur)
        stepsize, backtracks, skipped = 0.0, 0, True
        if p is not None:
            # Warm start one below the last accepted j; the search returns
            # the j of a scan from 0 whatever its start.
            step, backtracks = line_search(obj, x, p, config.beta,
                                           config.rho_backtrack,
                                           f0=f_cur, g0=g_cur, m0=m_cur,
                                           start=max(accepted_j - 1, 0))
            if step is not None:
                stepsize, skipped, accepted_j = step.mu, False, backtracks
                g_new = obj.gradient(step.x, margins=step.margins)
                if on_step is not None:
                    on_step(step.x - x, g_new - g_cur)
                x, f_cur, g_cur, m_cur = step.x, step.f, g_new, step.margins
        err = hstar_error(x, ref)
        records.append(IterationRecord(
            t=t, f=f_cur, grad_norm=math.sqrt(float(g_cur @ g_cur)),
            hstar_error=err, stepsize=stepsize, skipped=skipped,
            backtracks=backtracks))
        if not (math.isfinite(f_cur) and np.isfinite(x).all()):
            break
        if err <= config.tol_hstar:
            return RunResult(records, True, t + 1, x)
    return RunResult(records, False, None, x)


@single_thread()
def run(obj, x0, config: SolverConfig, ref: ReferenceSolution) -> RunResult:
    """Run the averaged stochastic Newton loop from x0.

    Stops once the H*-metric error drops to config.tol_hstar (checked after
    every update) or after config.max_iter iterations.  An estimate with a
    non-finite entry is not folded in: the average and its weight index t
    stay as they were, so the next finite estimate takes that weight.
    """
    kind = config.oracle
    rng = np.random.default_rng([config.seed, 1])
    state = initial_state(obj.dim)

    def averaged_direction(x, g, margins):
        # The average is updated every iteration, skipped ones included;
        # only a non-finite estimate is left out.
        nonlocal state
        h = estimate(kind, obj, x, rng, margins=margins)
        if np.isfinite(h).all():
            state = update(state, config.weights, h)
        return newton_direction(state.h_tilde, g)

    return _descend(obj, x0, config, ref, averaged_direction)


@single_thread()
def bfgs_run(obj, x0, config: SolverConfig, ref: ReferenceSolution
             ) -> RunResult:
    """Deterministic BFGS baseline with the same Armijo search and stopping.

    Reads config's beta, rho_backtrack, max_iter and tol_hstar; its oracle,
    weights and seed do not apply.  Maintains the inverse-Hessian
    approximation (initialized to the identity) and skips the curvature
    update whenever s^T y fails the positivity margin
    s^T y > 1e-12 ||s|| ||y||.
    """
    h_inv = np.eye(obj.dim)

    def quasi_newton_direction(x, g, margins):
        p = -(h_inv @ g)
        return p if float(g @ p) < 0.0 else None

    def inverse_update(s, y):
        nonlocal h_inv
        sy = float(s @ y)
        if sy > 1e-12 * math.sqrt(float(s @ s)) * math.sqrt(float(y @ y)):
            rho_sy = 1.0 / sy
            hy = h_inv @ y
            h_inv = (h_inv
                     + ((sy + float(y @ hy)) * rho_sy ** 2) * np.outer(s, s)
                     - rho_sy * (np.outer(hy, s) + np.outer(s, hy)))

    return _descend(obj, x0, config, ref, quasi_newton_direction,
                    on_step=inverse_update)
