import dataclasses
import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hessavg import solver
from hessavg.averaging import LastOnly, LogPower, Uniform, update
from hessavg.bench import ratio_series
from hessavg.datagen import DataGenConfig, generate
from hessavg.oracles import (CountSketch, Exact, GaussianSketch,
                             LessUniform, Subsample)
from hessavg.problem import (QuadraticTest, ReferenceSolution,
                             RegularizedLogistic, solve_reference)
from hessavg.solver import SolverConfig, bfgs_run, newton_direction, run


def quadratic_setup():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((6, 6))
    Q = M @ M.T + 6 * np.eye(6)
    c = rng.standard_normal(6)
    obj = QuadraticTest(Q, c)
    ref = ReferenceSolution(x_star=np.linalg.solve(Q, c), h_star=Q)
    return obj, ref


def logistic_setup(n=200, d=10, seed=3, reg_nu=1e-3):
    cfg = DataGenConfig(n=n, d=d, coherence_mode="low", kappa_A=10.0,
                        reg_nu=reg_nu, seed=seed)
    ds, _ = generate(cfg)
    obj = RegularizedLogistic(ds, reg_nu)
    ref = solve_reference(obj, np.zeros(d))
    return obj, ref


def skip_scenario():
    # Unregularized, d=10, with a 2-row subsample: early averaged estimates
    # are singular, so the solver must skip until enough rows accumulate.
    cfg = DataGenConfig(n=80, d=10, coherence_mode="low", kappa_A=5.0,
                        reg_nu=0.0, seed=7)
    ds, _ = generate(cfg)
    obj = RegularizedLogistic(ds, 0.0)
    ref = solve_reference(obj, np.zeros(10))
    config = SolverConfig(oracle=Subsample(2), weights=Uniform(),
                          max_iter=60, tol_hstar=1e-6, seed=11)
    return obj, ref, config


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(beta=0.5)
    with pytest.raises(ValueError):
        SolverConfig(beta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(rho_backtrack=1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(tol_hstar=-1.0)


@pytest.mark.parametrize("field", ["beta", "rho_backtrack", "tol_hstar"])
def test_config_rejects_nan(field):
    message = {"rho_backtrack": "rho"}.get(field, field)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**{field: value})


@pytest.mark.parametrize("weights", [LastOnly(), Uniform(), LogPower()])
def test_quadratic_converges_in_one_step(weights):
    obj, ref = quadratic_setup()
    config = SolverConfig(oracle=Exact(), weights=weights, max_iter=5,
                          tol_hstar=1e-12, seed=0)
    result = run(obj, np.zeros(6), config, ref)
    assert result.converged
    assert result.iterations_to_tol == 1
    rec = result.records[0]
    assert rec.hstar_error <= 1e-12
    assert rec.stepsize == 1.0
    assert rec.backtracks == 0


def test_exact_newton_on_logistic():
    obj, ref = logistic_setup()
    config = SolverConfig(oracle=Exact(), weights=LastOnly(), max_iter=50,
                          tol_hstar=1e-10, seed=0)
    result = run(obj, np.zeros(10), config, ref)
    assert result.converged
    assert result.iterations_to_tol < 10
    errs = [r.hstar_error for r in result.records]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_objective_never_increases():
    obj, ref, config = skip_scenario()
    result = run(obj, np.zeros(10), config, ref)
    fvals = [r.f for r in result.records]
    for a, b in zip(fvals, fvals[1:]):
        assert b <= a + 1e-12 * max(1.0, abs(a))


def test_skip_rule():
    obj, ref, config = skip_scenario()
    result = run(obj, np.zeros(10), config, ref)
    skipped = [r.t for r in result.records if r.skipped]
    assert skipped == [0, 1, 2, 3]
    first = result.records[:4]
    for rec in first:
        assert rec.stepsize == 0.0
        assert rec.backtracks == 0
        # A skipped iteration must not move the iterate.
        assert rec.hstar_error == first[0].hstar_error
    assert result.converged
    assert result.iterations_to_tol == 37
    for rec in result.records:
        if not rec.skipped:
            assert rec.stepsize > 0.0


def test_run_determinism_and_seed_sensitivity():
    obj, ref = logistic_setup()
    base = dict(oracle=Subsample(20), weights=Uniform(), max_iter=80,
                tol_hstar=1e-8)
    r1 = run(obj, np.zeros(10), SolverConfig(seed=5, **base), ref)
    r2 = run(obj, np.zeros(10), SolverConfig(seed=5, **base), ref)
    r3 = run(obj, np.zeros(10), SolverConfig(seed=6, **base), ref)
    e1 = [r.hstar_error for r in r1.records]
    e2 = [r.hstar_error for r in r2.records]
    e3 = [r.hstar_error for r in r3.records]
    assert e1 == e2
    assert e1 != e3


def test_max_iter_cap():
    obj, ref = logistic_setup()
    config = SolverConfig(oracle=Subsample(20), weights=Uniform(),
                          max_iter=3, tol_hstar=1e-14, seed=0)
    result = run(obj, np.zeros(10), config, ref)
    assert not result.converged
    assert result.iterations_to_tol is None
    assert len(result.records) == 3


def test_final_x_matches_tolerance():
    obj, ref = logistic_setup()
    config = SolverConfig(oracle=Subsample(50), weights=Uniform(),
                          max_iter=200, tol_hstar=1e-6, seed=1)
    result = run(obj, np.zeros(10), config, ref)
    assert result.converged
    delta = result.final_x - ref.x_star
    assert np.sqrt(delta @ ref.h_star @ delta) <= 1e-6


def test_averaging_trace_hook(monkeypatch):
    obj, ref = quadratic_setup()
    trace = []

    def recording_update(*args):
        state = update(*args)
        trace.append(state.h_tilde.copy())
        return state

    monkeypatch.setattr(solver, "update", recording_update)
    config = SolverConfig(oracle=Exact(), weights=Uniform(), max_iter=5,
                          tol_hstar=1e-12, seed=0)
    result = run(obj, np.zeros(6), config, ref)
    assert len(trace) == len(result.records)
    assert np.array_equal(trace[0], obj.hessian(np.zeros(6)))


@pytest.mark.parametrize("kwargs", [{"rho_backtrack": 1.5}, {"beta": 0.9},
                                    {"max_iter": 0}])
def test_bfgs_run_rejects_out_of_range_armijo(kwargs):
    # bfgs_run takes its parameters only through a checked SolverConfig.
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_newton_direction_solves_spd_system():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((5, 5))
    H = M @ M.T + 5 * np.eye(5)
    g = rng.standard_normal(5)
    p = newton_direction(H, g)
    assert np.allclose(p, -np.linalg.solve(H, g), rtol=1e-12, atol=0)
    assert g @ p < 0.0


def test_newton_direction_skips_bad_matrices():
    g = np.ones(2)
    assert newton_direction(np.zeros((2, 2)), g) is None
    assert newton_direction(np.diag([1.0, -1.0]), g) is None
    # Zero gradient cannot produce a strict descent direction.
    assert newton_direction(np.eye(2), np.zeros(2)) is None
    # A NaN anywhere gives no direction: in the matrix through the
    # factorization or the solve, in the gradient through the solve.
    assert newton_direction(np.array([[1.0, np.nan], [np.nan, 1.0]]),
                            g) is None
    assert newton_direction(np.diag([1.0, np.nan]), g) is None
    assert newton_direction(np.eye(2), np.array([1.0, np.nan])) is None


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 120), seed=st.integers(0, 2 ** 32 - 1),
       log_cond=st.floats(0.0, 12.0))
def test_newton_direction_matches_scipy_cholesky(d, seed, log_cond):
    # SPD matrices from well conditioned to about 1e12; the direction must
    # be the cho_factor/cho_solve solution to the bit, or None exactly when
    # that solution fails the same checks.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** (0.5 * log_cond * rng.random(d))
    M = rng.standard_normal((d + 2, d)) * scale
    H = M.T @ M + 1e-3 * np.eye(d)
    g = rng.standard_normal(d)
    cf = scipy.linalg.cho_factor(H, lower=True, check_finite=False)
    want = scipy.linalg.cho_solve(cf, -g, check_finite=False)
    got = newton_direction(H, g)
    if not np.isfinite(want).all() or float(g @ want) >= 0.0:
        assert got is None
    else:
        assert got.tobytes() == want.tobytes()


def test_bfgs_on_logistic():
    obj, ref = logistic_setup()
    config = SolverConfig(max_iter=400, tol_hstar=1e-6)
    result = bfgs_run(obj, np.zeros(10), config, ref)
    assert result.converged
    assert 5 <= result.iterations_to_tol <= 400
    again = bfgs_run(obj, np.zeros(10), config, ref)
    assert result.iterations_to_tol == again.iterations_to_tol


def test_bfgs_on_quadratic():
    obj, ref = quadratic_setup()
    result = bfgs_run(obj, np.zeros(6),
                      SolverConfig(max_iter=100, tol_hstar=1e-8), ref)
    assert result.converged
    delta = result.final_x - ref.x_star
    assert np.sqrt(delta @ ref.h_star @ delta) <= 1e-8


class NaNValueQuadratic(QuadraticTest):
    """A quadratic whose value is NaN everywhere (failure injection)."""

    def value(self, x, margins=None):
        return float("nan")


@pytest.mark.parametrize("solve,start", [
    pytest.param(solve, start,
                 id=solve if start == 0 else "%s-start%d" % (solve, start))
    for solve in ("run", "bfgs_run") for start in (0, 7, 60, 95)])
def test_nan_objective_value_stops_after_one_skipped_step(solve, start,
                                                         monkeypatch):
    obj, ref = quadratic_setup()
    obj = NaNValueQuadratic(obj.Q, obj.c)
    line_search = solver.line_search

    def started(*args, **kwargs):
        return line_search(*args, **{**kwargs, "start": start})

    monkeypatch.setattr(solver, "line_search", started)
    if solve == "run":
        config = SolverConfig(oracle=Exact(), weights=Uniform(), max_iter=20,
                              tol_hstar=1e-12, seed=0)
        result = run(obj, np.zeros(6), config, ref)
    else:
        result = bfgs_run(obj, np.zeros(6),
                          SolverConfig(max_iter=20, tol_hstar=1e-12), ref)
    # NaN fails every Armijo comparison and is never a decisive rejection,
    # so from any start the search exhausts its 60 halvings; the non-finite
    # guard then ends the run after that record.
    assert len(result.records) == 1
    rec = result.records[0]
    assert rec.skipped
    assert rec.backtracks == 61
    assert rec.stepsize == 0.0
    assert not result.converged
    assert result.iterations_to_tol is None
    assert np.array_equal(result.final_x, np.zeros(6))


def sequential_search(obj, x, p, beta, rho, f0, g0, m0):
    """The Armijo scan from j = 0, kept as the reference for the warm start."""
    slope = float(g0 @ p)
    q = obj.margins(p)
    mu = 1.0
    for j in range(solver.MAX_BACKTRACKS + 1):
        x_trial = p * mu
        x_trial += x
        m_trial = q * mu
        m_trial += m0
        f_trial = obj.value(x_trial, margins=m_trial)
        if f_trial <= f0 + mu * beta * slope:
            return solver.Step(mu, x_trial, f_trial, m_trial), j
        mu *= rho
    return None, solver.MAX_BACKTRACKS + 1


@settings(max_examples=150, deadline=None)
@given(n=st.integers(20, 2000), d=st.integers(1, 40),
       mode=st.sampled_from(["low", "high"]), seed=st.integers(0, 2 ** 32 - 1),
       point=st.sampled_from(["zero", "x_star", "near_x_star", "far"]),
       log_scale=st.floats(0.0, 3.0), start=st.integers(-3, 70),
       rho=st.sampled_from([solver.DEFAULT_RHO, 0.3, 0.8]))
def test_warm_started_search_matches_the_scan_from_zero(
        n, d, mode, seed, point, log_scale, start, rho):
    ds, x_true = generate(DataGenConfig(n=n, d=min(d, n // 2),
                                        coherence_mode=mode, kappa_A=10.0,
                                        reg_nu=1e-3, seed=seed))
    obj = RegularizedLogistic(ds, 1e-3)
    ref = solve_reference(obj, np.zeros(ds.d))
    x = {"zero": np.zeros(ds.d), "x_star": ref.x_star,
         "near_x_star": ref.x_star + 1e-9 * x_true,
         "far": ref.x_star + 3.0 * x_true}[point]
    m = obj.margins(x)
    f, g = obj.value(x, margins=m), obj.gradient(x, margins=m)
    p = newton_direction(obj.hessian(x, margins=m), g)
    assume(p is not None)
    p *= 10.0 ** log_scale
    expected, expected_j = sequential_search(obj, x, p, solver.DEFAULT_BETA,
                                             rho, f, g, m)
    step, j = solver.line_search(obj, x, p, solver.DEFAULT_BETA, rho,
                                 f0=f, g0=g, m0=m, start=start)
    assert j == expected_j
    if expected is None:
        assert step is None
        return
    assert step.mu == expected.mu
    assert step.x.tobytes() == expected.x.tobytes()
    assert step.f == expected.f
    assert step.margins.tobytes() == expected.margins.tobytes()


class ArmijoTable:
    """f along the ray x = mu from 0, at f0 = 1 with slope -1: the Armijo
    bound at mu_j = 0.5^j plus excess[j] (0 for a j not listed)."""

    def __init__(self, excess):
        self.excess = excess
        self.calls = 0

    def bound(self, j):
        return 1.0 + 0.5 ** j * solver.DEFAULT_BETA * -1.0

    def margins(self, x):
        return x.copy()

    def value(self, x, margins=None):
        self.calls += 1
        j = round(-np.log2(x[0]))
        return self.bound(j) + self.excess.get(j, 0.0)


def test_near_tie_rescan_returns_the_step_it_holds():
    """Start 3 is accepted, j = 2 is a near-tie and j = 0, 1 are decisive
    rejections: the rescan from 0 stops at the step it holds at j = 3."""
    obj = ArmijoTable({0: 1.0, 1: 1.0, 2: 1e-14})
    f = [obj.value(np.array([0.5 ** j])) for j in range(3)]
    assert [solver._decisive(f[j], obj.bound(j), 1.0) for j in range(3)] == [
        True, True, False]
    assert f[2] > obj.bound(2)
    x, p, m0, g0 = np.zeros(1), np.ones(1), np.zeros(1), -np.ones(1)
    expected, expected_j = sequential_search(obj, x, p, solver.DEFAULT_BETA,
                                             0.5, 1.0, g0, m0)
    obj.calls = 0
    step, j = solver.line_search(obj, x, p, solver.DEFAULT_BETA, 0.5,
                                 f0=1.0, g0=g0, m0=m0, start=3)
    assert j == expected_j == 3
    assert step.mu == expected.mu
    assert step.x.tobytes() == expected.x.tobytes()
    assert step.f == expected.f
    assert step.margins.tobytes() == expected.margins.tobytes()
    # Trials 3, 2, then the rescan's 0, 1 and 2, which meets lo = 3.
    assert obj.calls == 5


def test_noavg_run_warm_starts_its_searches(monkeypatch):
    """A noavg run's searches start near the last j, not at 0."""
    ds, _ = generate(DataGenConfig(n=400, d=40, coherence_mode="low",
                                   kappa_A=40.0, reg_nu=1e-3, seed=3))
    obj = RegularizedLogistic(ds, 1e-3)
    ref = solve_reference(obj, np.zeros(40))
    config = SolverConfig(oracle=Subsample(40), weights=LastOnly(),
                          tol_hstar=1e-6, seed=5)
    calls = []
    value = obj.value

    def counted(x, margins=None):
        calls.append(1)
        return value(x, margins=margins)

    monkeypatch.setattr(obj, "value", counted)
    result = run(obj, np.zeros(40), config, ref)
    scanned = sum(r.backtracks + 1 for r in result.records if not r.skipped)
    assert result.converged and scanned > 4 * len(result.records)
    # One value at x0, then the trials: about half of the scan's 5.5 a step.
    assert len(calls) - 1 < 0.6 * scanned


def test_ratio_diagnostics():
    obj, ref = logistic_setup()
    config = SolverConfig(oracle=Exact(), weights=LastOnly(), max_iter=50,
                          tol_hstar=1e-10, seed=0)
    result = run(obj, np.zeros(10), config, ref)
    errs = [r.hstar_error for r in result.records]
    _, ratios = ratio_series(errs)
    assert len(ratios) <= len(errs) - 1
    assert np.all(ratios > 0.0)


class CountingMatrix(np.ndarray):
    """A design matrix that logs the shape of each product with a vector.

    A x logs (n, d) and A^T v logs (d, n); views and row subsets share the log.
    """

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __matmul__(self, other):
        if self.log is not None and np.ndim(other) == 1:
            self.log.append(self.shape)
        return np.asarray(self) @ other


def counted_margins(obj, monkeypatch):
    """Count obj.margins calls and log every matrix-vector product with A."""
    calls = []
    margins = obj.margins

    def counting(x):
        calls.append(1)
        return margins(x)

    monkeypatch.setattr(obj, "margins", counting)
    A = obj.dataset.A.view(CountingMatrix)
    A.log = []
    obj.dataset.A = A
    return calls, A.log


@pytest.mark.parametrize("solve", ["subsample", "countsketch", "bfgs", "skips"])
def test_margins_formed_once_per_trial(solve, monkeypatch):
    if solve == "skips":
        obj, ref, config = skip_scenario()
    else:
        obj, ref = logistic_setup()
        oracle = CountSketch(40) if solve == "countsketch" else Subsample(20)
        config = SolverConfig(oracle=oracle, weights=LogPower(), max_iter=80,
                              tol_hstar=1e-8, seed=5)
    calls, products = counted_margins(obj, monkeypatch)
    if solve == "bfgs":
        result = bfgs_run(obj, np.zeros(10),
                          SolverConfig(max_iter=400, tol_hstar=1e-8), ref)
    else:
        result = run(obj, np.zeros(10), config, ref)
    accepted = [r for r in result.records if not r.skipped]
    assert result.converged and accepted
    # Every search here succeeds; a skipped iteration has no direction.
    assert sum(r.backtracks for r in result.records if r.skipped) == 0
    backtracks = sum(r.backtracks for r in accepted)
    if solve != "bfgs":
        assert backtracks > 0
    # Once at x0, then once per search (A p), whatever its backtracks.
    expected = 1 + len(accepted)
    assert len(calls) == expected
    n, d = obj.dataset.A.shape
    # No A x pass besides the margins, and one A^T v per gradient.
    assert products.count((n, d)) == expected
    assert products.count((d, n)) == 1 + len(accepted)
    assert len(products) == 2 * expected


def test_carried_margins_do_not_drift(monkeypatch):
    """Margins moved along 999 search rays stay within rounding of b*(A x)."""
    ds, _ = generate(DataGenConfig(n=1000, d=100, coherence_mode="high",
                                   kappa_A=100.0, reg_nu=1e-3, seed=6))
    obj = RegularizedLogistic(ds, 1e-3)
    ref = solve_reference(obj, np.zeros(100))
    steps = []
    line_search = solver.line_search

    def recording(*args, **kwargs):
        step, backtracks = line_search(*args, **kwargs)
        if step is not None:
            steps.append(step)
        return step, backtracks

    monkeypatch.setattr(solver, "line_search", recording)
    config = SolverConfig(oracle=Subsample(100), weights=LastOnly(),
                          max_iter=999, tol_hstar=0.0, seed=3)
    result = run(obj, np.zeros(100), config, ref)
    assert len(result.records) == 999 and len(steps) > 900
    last = steps[-1]
    assert np.array_equal(last.x, result.final_x)
    exact = obj.margins(last.x)
    drift = float(np.max(np.abs(last.margins - exact)))
    assert drift <= 1e-12 * max(1.0, float(np.max(np.abs(exact))))


def records_sha256(result):
    blob = repr([dataclasses.astuple(r) for r in result.records]).encode()
    return hashlib.sha256(blob + result.final_x.tobytes()).hexdigest()


# Computed once every GLM Hessian became the self-product R^T R + nu I with
# R = sqrt(l/s) * rows (numpy 2.4 with OpenBLAS 0.3.31 on x86-64): the
# square root rounds, so the exact Hessian, the subsample estimates and the
# reference solution move by about 1e-15 relative, and all six records with
# them.  Every record count, backtrack total and skip count stayed the same.
# A change that moves these records changes floats and must say so; another
# BLAS build may round differently.
PINNED_RECORDS = {
    ("low", "noavg-subsample"): (
        93, "f878c15ded29020929da6c568378739973bfdb4a4c4d340999b0ac550203026f"),
    ("low", "weightavg-countsketch"): (
        36, "0e4f51ebb6608d32f2956e395495819c807823ecd52c34bc43d408abf6ab41e8"),
    ("low", "bfgs"): (
        82, "ddbdabfe435288eaad505e1606ea1c5c0c03542fec352171f49e965652b49673"),
    ("high", "noavg-subsample"): (
        116, "c57934a6bf52e3242326dccc4367c06d484089cfe241d0b686901810e86071e5"),
    ("high", "weightavg-countsketch"): (
        31, "7dc5c7818ac9635b017f723c5c91b4eab24d4673adaeb5908a5952a0cf6ce207"),
    ("high", "bfgs"): (
        109, "147521b0c7fb75139cc675a9d0acd3f3a6c538c76c0b6c03d4d09b5f48858e00"),
    # Pinned when the Gaussian estimate began to draw G R (s x d) in place
    # of S M (s x n): the same law from another stream, so these two moved.
    ("low", "unifavg-gauss"): (
        24, "fe19e522e8786d97a034f35892972695dd8eabb5185cf937effe450206f1cc3f"),
    ("high", "noavg-gauss"): (
        83, "95a79aeb1f73eb329dc09a1b0ec703214eaa282a5c228e346cb1e89e8cca557d"),
}


def pinned_problem(mode):
    ds, _ = generate(DataGenConfig(n=200, d=20, coherence_mode=mode,
                                   kappa_A=20.0, reg_nu=1e-3, seed=4))
    obj = RegularizedLogistic(ds, 1e-3)
    return obj, solve_reference(obj, np.zeros(20))


def pinned_solve(obj, ref, solve):
    """(record count, records_sha256) of one PINNED_RECORDS solve."""
    if solve == "bfgs":
        result = bfgs_run(obj, np.zeros(20), SolverConfig(max_iter=300), ref)
    else:
        oracle, weights = {"noavg-subsample": (Subsample(20), LastOnly()),
                           "weightavg-countsketch": (CountSketch(20),
                                                     LogPower()),
                           "unifavg-gauss": (GaussianSketch(20), Uniform()),
                           "noavg-gauss": (GaussianSketch(20), LastOnly()),
                           }[solve]
        result = run(obj, np.zeros(20), SolverConfig(
            oracle=oracle, weights=weights, max_iter=300, seed=2), ref)
    return len(result.records), records_sha256(result)


@pytest.mark.parametrize("mode,solve", sorted(PINNED_RECORDS))
def test_logistic_records_are_pinned(mode, solve):
    obj, ref = pinned_problem(mode)
    assert pinned_solve(obj, ref, solve) == PINNED_RECORDS[(mode, solve)]


def test_concurrent_gaussian_runs_keep_their_records():
    # Four runs at once on one objective, on a short switch interval: a
    # draw taken out of order or from a shared stream would move a record.
    obj, ref = pinned_problem("low")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(pinned_solve, obj, ref, "unifavg-gauss")
                       for _ in range(4)]
            outcomes = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == [PINNED_RECORDS[("low", "unifavg-gauss")]] * 4


PINNED_QUADRATIC = {
    "run": "b5e3d2697878c54795d38533d2fc03030151f7612f5fc30052e62714838a91ea",
    "bfgs": "2f96f70da7fb7fe0bc0e8629bc0515a0e2c0b6e9519d88409a29f12f0bb9e0c3",
}


@pytest.mark.parametrize("solve", sorted(PINNED_QUADRATIC))
def test_quadratic_records_are_pinned(solve):
    obj, ref = quadratic_setup()
    if solve == "bfgs":
        result = bfgs_run(obj, np.zeros(6),
                          SolverConfig(max_iter=100, tol_hstar=1e-8), ref)
    else:
        config = SolverConfig(oracle=Exact(), weights=Uniform(), max_iter=5,
                              tol_hstar=1e-12, seed=0)
        result = run(obj, np.zeros(6), config, ref)
    assert records_sha256(result) == PINNED_QUADRATIC[solve]


@pytest.fixture
def thread_starts(monkeypatch):
    """Every thread started while the test runs, in start order."""
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


@pytest.mark.parametrize("oracle", [Exact(), Subsample(20), GaussianSketch(40),
                                    CountSketch(40), LessUniform(40)],
                         ids=type)
def test_no_run_starts_a_thread(oracle, thread_starts):
    obj, ref = logistic_setup()
    config = SolverConfig(oracle=oracle, weights=Uniform(), max_iter=80,
                          tol_hstar=1e-8, seed=5)
    assert run(obj, np.zeros(10), config, ref).converged
    assert thread_starts == []


@pytest.mark.parametrize("oracle", [Subsample(20), GaussianSketch(40)],
                         ids=type)
def test_non_finite_estimate_is_left_out_of_the_average(oracle, monkeypatch):
    obj, ref = logistic_setup()
    config = SolverConfig(oracle=oracle, weights=Uniform(), max_iter=200,
                          tol_hstar=1e-8, seed=5)
    baseline = run(obj, np.zeros(10), config, ref)
    estimate, calls, updates = solver.estimate, [], []

    def third_is_nan(*args, **kwargs):
        h = estimate(*args, **kwargs)
        calls.append(1)
        if len(calls) == 3:
            h = h.copy()
            h[0, 1] = np.nan
        return h

    def counting_update(state, weights, h):
        updates.append(state.t)
        return update(state, weights, h)

    monkeypatch.setattr(solver, "estimate", third_is_nan)
    monkeypatch.setattr(solver, "update", counting_update)
    result = run(obj, np.zeros(10), config, ref)
    assert result.converged
    skips = [sum(r.skipped for r in res.records) for res in (baseline, result)]
    assert skips[1] <= skips[0] + 1
    # The NaN estimate is not folded in and does not advance t.
    assert len(updates) == len(result.records) - 1
    assert updates == list(range(-1, len(updates) - 1))
