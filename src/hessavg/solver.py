"""Stochastic Newton solver with online Hessian averaging.

Each iteration draws a stochastic Hessian estimate, folds it into the
running weighted average, and takes a damped Newton step on the averaged
matrix.  The averaging update happens every iteration, including skipped
ones, so the estimate keeps improving while the direction is unusable.

An iteration is skipped (x unchanged) when the averaged matrix has no
Cholesky factorization, when the solved direction is not a descent
direction, or when Armijo backtracking fails within the cap.

``bfgs_run`` provides a deterministic quasi-Newton baseline with the same
line search and stopping rule, and ``ratio_diagnostics`` extracts the
per-iteration error contraction factors used to judge superlinear decay.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._blas import single_thread
from .averaging import Uniform, initial_state, update
from .oracles import Exact, estimate
from .problem import ReferenceSolution, _as_vector, hstar_error

DEFAULT_BETA = 1e-4
DEFAULT_RHO = 0.5
MAX_BACKTRACKS = 60


@dataclass
class SolverConfig:
    """Run parameters: line search, budget, tolerance, oracle, weights, seed."""

    beta: float = DEFAULT_BETA
    rho_backtrack: float = DEFAULT_RHO
    max_iter: int = 500
    tol_hstar: float = 1e-6
    oracle: object = field(default_factory=Exact)
    weights: object = field(default_factory=Uniform)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.beta < 0.5:
            raise ValueError("beta must lie in (0, 1/2)")
        if not 0.0 < self.rho_backtrack < 1.0:
            raise ValueError("rho_backtrack must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.tol_hstar < 0:
            raise ValueError("tol_hstar must be nonnegative")


@dataclass
class IterationRecord:
    """Post-update snapshot of one iteration (t counts from 0)."""

    t: int
    f_value: float
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

    Returns None (skip) when the Cholesky factorization fails or the
    solution is not a strict descent direction.
    """
    try:
        cf = scipy.linalg.cho_factor(h_tilde, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None
    p = scipy.linalg.cho_solve(cf, -g, check_finite=False)
    if not np.all(np.isfinite(p)) or float(g @ p) >= 0.0:
        return None
    return p


def line_search(obj, x, p, beta: float = DEFAULT_BETA,
                rho_backtrack: float = DEFAULT_RHO, *,
                f0: float | None = None, g0: np.ndarray | None = None):
    """Armijo backtracking: smallest j >= 0 with
    f(x + rho^j p) <= f(x) + rho^j * beta * grad(x)^T p.

    Returns (stepsize, backtracks); stepsize is None when no j <= 60 works.
    f0 and g0 optionally pass in the already-computed value and gradient
    at x (pure efficiency, the result is identical).
    """
    if f0 is None:
        f0 = obj.value(x)
    if g0 is None:
        g0 = obj.gradient(x)
    slope = float(g0 @ p)
    mu = 1.0
    for j in range(MAX_BACKTRACKS + 1):
        if obj.value(x + mu * p) <= f0 + mu * beta * slope:
            return mu, j
        mu *= rho_backtrack
    return None, MAX_BACKTRACKS + 1


@single_thread()
def run(obj, x0, config: SolverConfig, ref: ReferenceSolution,
        averaging_trace: list | None = None) -> RunResult:
    """Run the averaged stochastic Newton loop from x0.

    Stops once the H*-metric error drops to config.tol_hstar (checked after
    every update) or after config.max_iter iterations.  When
    averaging_trace is a list, a copy of the averaged matrix is appended
    each iteration (testing hook).
    """
    x = _as_vector(x0, obj.dim).copy()
    rng = np.random.default_rng([config.seed, 1])
    state = initial_state(obj.dim)
    f_cur = obj.value(x)
    g_cur = obj.gradient(x)
    records: list[IterationRecord] = []
    converged = False
    iterations_to_tol = None
    for t in range(config.max_iter):
        h_hat = estimate(config.oracle, obj, x, rng, draw_index=t)
        state = update(state, config.weights, h_hat)
        if averaging_trace is not None:
            averaging_trace.append(state.h_tilde.copy())
        p = newton_direction(state.h_tilde, g_cur)
        stepsize, backtracks, skipped = 0.0, 0, True
        if p is not None:
            mu, j = line_search(obj, x, p, config.beta, config.rho_backtrack,
                                f0=f_cur, g0=g_cur)
            backtracks = j
            if mu is not None:
                stepsize, skipped = mu, False
                x = x + mu * p
                f_cur = obj.value(x)
                g_cur = obj.gradient(x)
        err = hstar_error(x, ref)
        records.append(IterationRecord(
            t=t, f_value=f_cur, grad_norm=float(np.linalg.norm(g_cur)),
            hstar_error=err, stepsize=stepsize, skipped=skipped,
            backtracks=backtracks))
        if not (np.isfinite(f_cur) and np.all(np.isfinite(x))):
            break
        if err <= config.tol_hstar:
            converged = True
            iterations_to_tol = t + 1
            break
    return RunResult(records, converged, iterations_to_tol, x)


@single_thread()
def bfgs_run(obj, x0, beta: float = DEFAULT_BETA,
             rho_backtrack: float = DEFAULT_RHO, max_iter: int = 500,
             tol: float = 1e-6, ref: ReferenceSolution | None = None
             ) -> RunResult:
    """Deterministic BFGS baseline with the same Armijo search and stopping.

    Maintains the inverse-Hessian approximation (initialized to the
    identity) and skips the curvature update whenever s^T y fails the
    positivity margin s^T y > 1e-12 ||s|| ||y||.
    """
    if ref is None:
        raise ValueError("bfgs_run needs a reference solution")
    x = _as_vector(x0, obj.dim).copy()
    d = obj.dim
    h_inv = np.eye(d)
    f_cur = obj.value(x)
    g_cur = obj.gradient(x)
    records: list[IterationRecord] = []
    converged = False
    iterations_to_tol = None
    for t in range(max_iter):
        p = -(h_inv @ g_cur)
        stepsize, backtracks, skipped = 0.0, 0, True
        if float(g_cur @ p) < 0.0:
            mu, j = line_search(obj, x, p, beta, rho_backtrack,
                                f0=f_cur, g0=g_cur)
            backtracks = j
            if mu is not None:
                stepsize, skipped = mu, False
                x_new = x + mu * p
                g_new = obj.gradient(x_new)
                s = x_new - x
                y = g_new - g_cur
                sy = float(s @ y)
                if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
                    rho_sy = 1.0 / sy
                    hy = h_inv @ y
                    h_inv = (h_inv
                             + ((sy + float(y @ hy)) * rho_sy ** 2) * np.outer(s, s)
                             - rho_sy * (np.outer(hy, s) + np.outer(s, hy)))
                x = x_new
                f_cur = obj.value(x)
                g_cur = g_new
        err = hstar_error(x, ref)
        records.append(IterationRecord(
            t=t, f_value=f_cur, grad_norm=float(np.linalg.norm(g_cur)),
            hstar_error=err, stepsize=stepsize, skipped=skipped,
            backtracks=backtracks))
        if not (np.isfinite(f_cur) and np.all(np.isfinite(x))):
            break
        if err <= tol:
            converged = True
            iterations_to_tol = t + 1
            break
    return RunResult(records, converged, iterations_to_tol, x)


def ratio_diagnostics(result: RunResult) -> np.ndarray:
    """Consecutive error ratios e_{t+1}/e_t from the H*-metric trace.

    Pairs touching an exact zero are dropped (once the error is exactly
    zero the ratio carries no information).
    """
    errs = np.array([r.hstar_error for r in result.records])
    if errs.size < 2:
        raise ValueError("need at least 2 records")
    prev, nxt = errs[:-1], errs[1:]
    mask = (prev > 0.0) & (nxt > 0.0)
    return nxt[mask] / prev[mask]
