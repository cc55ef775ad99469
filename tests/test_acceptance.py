"""Acceptance suite: one test per release criterion.

Run with `pytest -v -s tests/test_acceptance.py` to get a one-line
PASS/FAIL verdict per criterion.  The three experiment grids use the
benchmark defaults (logistic regression, n=1000, d=100, 50 seed slots,
H*-norm tolerance 1e-6); the whole module takes a few minutes.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy import sparse

from hessavg import averaging, theory
from hessavg.averaging import LogPower, Power, Uniform, psi_bound
from hessavg.bench import ExperimentGrid, ratio_series, run_grid, stable_seed
from hessavg.cli import main as cli_main
from hessavg.datagen import DataGenConfig, generate
from hessavg.oracles import (CountSketch, Exact, GaussianSketch, LessUniform,
                             Subsample, estimate, sketch_matrix,
                             spectral_norm)
from hessavg.problem import (ReferenceSolution, RegularizedLogistic,
                             solve_reference)
from hessavg.solver import SolverConfig, run
from objectives import QuadraticTest

JOBS = int(os.environ.get("HESSAVG_JOBS", "4"))


def make_grid(**overrides):
    params = dict(coherence_modes=["low"], kappa_list=[1.0], s_list=[1.0],
                  oracle_kinds=["subsample"],
                  variants=["noavg", "unifavg", "weightavg"],
                  num_seeds=50, base_seed=0, tol=1e-6, max_iter=999,
                  n=1000, d=100, reg_nu=1e-3, include_bfgs=False)
    params.update(overrides)
    return ExperimentGrid(**params)


@pytest.fixture(scope="module")
def low_subsample():
    start = time.monotonic()
    outcome = run_grid(make_grid(include_bfgs=True), jobs=JOBS,
                       keep_trace=True)
    outcome["elapsed"] = time.monotonic() - start
    return outcome


@pytest.fixture(scope="module")
def high_subsample():
    return run_grid(make_grid(coherence_modes=["high"]), jobs=JOBS)


@pytest.fixture(scope="module")
def low_gauss():
    return run_grid(make_grid(oracle_kinds=["gauss"]), jobs=JOBS)


def median_iterations(outcome, variant):
    vals = [rec["iterations"] for rec in outcome["runs"]
            if rec["variant"] == variant]
    arr = np.array([math.inf if v is None else float(v) for v in vals])
    return float(np.quantile(arr, 0.5, method="inverted_cdf"))


def verdict(num, ok, details):
    line = "criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL", details)
    print("\n" + line)
    assert ok, line


def glm(n, d, seed, reg_nu):
    cfg = DataGenConfig(n=n, d=d, coherence_mode="low", kappa_A=4.0,
                        reg_nu=reg_nu, seed=seed)
    ds, _ = generate(cfg)
    return RegularizedLogistic(ds, reg_nu)


def test_criterion_1_low_coherence_subsample_bands(low_subsample):
    na = median_iterations(low_subsample, "noavg")
    ua = median_iterations(low_subsample, "unifavg")
    wa = median_iterations(low_subsample, "weightavg")
    elapsed = low_subsample["elapsed"]
    ok = (18 <= ua <= 40 and 18 <= wa <= 40 and na >= 150
          and elapsed <= 600.0)
    verdict(1, ok, "medians unifavg=%g weightavg=%g noavg=%g, grid %.0fs; "
                   "need [18,40]/[18,40]/>=150 within 600s"
            % (ua, wa, na, elapsed))


def test_criterion_2_high_coherence_subsample_bands(high_subsample):
    na = median_iterations(high_subsample, "noavg")
    ua = median_iterations(high_subsample, "unifavg")
    wa = median_iterations(high_subsample, "weightavg")
    ok = wa <= 110 and 70 <= ua <= 180 and na >= 200 and wa < ua < na
    verdict(2, ok, "medians weightavg=%g unifavg=%g noavg=%g; need "
                   "<=110, [70,180], >=200, and weightavg<unifavg<noavg"
            % (wa, ua, na))


def test_criterion_3_quasi_newton_baseline_band(low_subsample):
    med = median_iterations(low_subsample, "bfgs")
    ok = 170 <= med <= 270
    verdict(3, ok, "BFGS median %g; need [170,270]" % med)


def test_criterion_4_gaussian_sketch_bands(low_gauss):
    na = median_iterations(low_gauss, "noavg")
    ua = median_iterations(low_gauss, "unifavg")
    wa = median_iterations(low_gauss, "weightavg")
    ok = 18 <= ua <= 35 and 18 <= wa <= 35 and na >= 180
    verdict(4, ok, "medians unifavg=%g weightavg=%g noavg=%g; need "
                   "[18,35]/[18,35]/>=180" % (ua, wa, na))


def test_criterion_5_rate_signature(low_subsample):
    # The averaged variants should end superlinear (last error ratios small)
    # while the unaveraged one stays linear (ratios bounded away from zero).
    counts = {}
    for variant, threshold, want_small in (("unifavg", 0.2, True),
                                           ("weightavg", 0.2, True),
                                           ("noavg", 0.5, False)):
        hits = 0
        for rec in low_subsample["runs"]:
            if rec["variant"] != variant:
                continue
            _, ratios = ratio_series(np.asarray(rec["hstar_trace"]))
            if ratios.size == 0:
                continue
            med = float(np.median(ratios[-10:]))
            if (med <= threshold) if want_small else (med >= threshold):
                hits += 1
        counts[variant] = hits
    ok = all(c >= 45 for c in counts.values())
    verdict(5, ok, "seeds matching signature: unifavg=%d weightavg=%d "
                   "noavg=%d of 50; need >=45 each"
            % (counts["unifavg"], counts["weightavg"], counts["noavg"]))


def test_criterion_6_averaged_noise_decay():
    # At a fixed point the uniformly averaged oracle error should shrink
    # like t^(-1/2) up to log factors.
    cfg = DataGenConfig(n=1000, d=100, coherence_mode="low", kappa_A=100.0,
                        reg_nu=1e-3,
                        seed=stable_seed(0, "dataset", "low", 1.0))
    ds, _ = generate(cfg)
    obj = RegularizedLogistic(ds, 1e-3)
    x = np.zeros(100)
    h_true = obj.hessian(x)
    kind = Subsample(50)
    seq = Uniform()
    rng = np.random.default_rng(12345)
    checkpoints = np.unique(np.round(np.logspace(2, 4, 41)).astype(int))
    cp = set(checkpoints.tolist())
    state = averaging.initial_state(100)
    ts, norms = [], []
    for t in range(10 ** 4):
        state = averaging.update(state, seq, estimate(kind, obj, x, rng))
        if (t + 1) in cp:
            ts.append(t + 1)
            norms.append(spectral_norm(state.h_tilde - h_true))
    slope = float(np.polyfit(np.log(ts), np.log(norms), 1)[0])
    ok = -0.65 <= slope <= -0.35
    verdict(6, ok, "log-log decay slope %.4f; need -0.5 +/- 0.15" % slope)


def test_criterion_7_property_suites(tmp_path):
    results = {}

    # Gradient and Hessian match central finite differences.
    obj9 = glm(n=120, d=9, seed=21, reg_nu=1e-2)
    x9 = np.cos(np.arange(9.0))
    g = obj9.gradient(x9)
    fd_g = np.empty(9)
    for i in range(9):
        e = np.zeros(9)
        e[i] = 1e-6
        fd_g[i] = (obj9.value(x9 + e) - obj9.value(x9 - e)) / 2e-6
    results["finite_diff_gradient"] = (
        np.linalg.norm(fd_g - g) / np.linalg.norm(g) <= 1e-6)
    H9 = obj9.hessian(x9)
    fd_h = np.empty((9, 9))
    for i in range(9):
        e = np.zeros(9)
        e[i] = 1e-5
        fd_h[:, i] = (obj9.gradient(x9 + e) - obj9.gradient(x9 - e)) / 2e-5
    fd_h = 0.5 * (fd_h + fd_h.T)
    results["finite_diff_hessian"] = (
        np.linalg.norm(fd_h - H9) / np.linalg.norm(H9) <= 1e-5)

    # Online recursion reproduces the batch weighted combination.
    rng = np.random.default_rng(314)
    mats = []
    for _ in range(30):
        m = rng.standard_normal((7, 7))
        mats.append(0.5 * (m + m.T))
    worst = 0.0
    for seq in (Uniform(), Power(2.0), LogPower()):
        state = averaging.initial_state(7)
        for m in mats:
            state = averaging.update(state, seq, m)
        z = averaging.normalized_weights(seq, len(mats) - 1)
        batch = sum(zi * m for zi, m in zip(z, mats))
        worst = max(worst, float(np.max(np.abs(state.h_tilde - batch))))
    results["online_equals_batch"] = worst <= 1e-10

    # Subsampled estimates are unbiased to within 4 standard errors.
    obj8 = glm(n=60, d=8, seed=3, reg_nu=1e-2)
    x8 = np.linspace(-0.5, 0.5, 8)
    H8 = obj8.hessian(x8)
    rng = np.random.default_rng(42)
    N = 3000
    draws = np.empty((N, 8, 8))
    for i in range(N):
        draws[i] = estimate(Subsample(12), obj8, x8, rng)
    mean = draws.mean(axis=0)
    se = np.maximum(draws.std(axis=0, ddof=1) / math.sqrt(N), 1e-30)
    results["oracle_unbiasedness_4sigma"] = (
        float(np.max(np.abs(mean - H8) / se)) <= 4.0)

    # E[S^T S] = I for all three sketch families.
    n, s, N = 40, 30, 2000
    isometry_ok = True
    for kind in (GaussianSketch(s), CountSketch(s), LessUniform(s, 3)):
        rng = np.random.default_rng(7)
        acc = np.zeros((n, n))
        acc2 = np.zeros((n, n))
        for _ in range(N):
            S = sketch_matrix(kind, (n, n), rng)
            if sparse.issparse(S):
                S = S.toarray()
            sts = S.T @ S
            acc += sts
            acc2 += sts * sts
        mean = acc / N
        var = np.maximum(acc2 / N - mean ** 2, 0.0)
        dev = np.abs(mean - np.eye(n))
        fixed = var <= 1e-24
        if not np.all(dev[fixed] == 0.0):
            isometry_ok = False
        se = np.sqrt(var[~fixed] / N)
        if (~fixed).any() and float(np.max(dev[~fixed] / se)) > 4.0:
            isometry_ok = False
    results["sketch_isometry_4sigma"] = isometry_ok

    # Subsampling every row reproduces the exact Hessian.
    est = estimate(Subsample(120), obj9, x9, np.random.default_rng(0))
    results["full_sample_exactness"] = np.array_equal(est,
                                                      obj9.hessian(x9))

    # Skip rule: singular averaged estimates leave the iterate in place,
    # and the objective never increases along the whole trajectory.
    cfg = DataGenConfig(n=80, d=10, coherence_mode="low", kappa_A=5.0,
                        reg_nu=0.0, seed=7)
    ds, _ = generate(cfg)
    hard = RegularizedLogistic(ds, 0.0)
    ref = solve_reference(hard, np.zeros(10))
    config = SolverConfig(oracle=Subsample(2), weights=Uniform(),
                          max_iter=60, tol_hstar=1e-6, seed=11)
    result = run(hard, np.zeros(10), config, ref)
    first = result.records[:4]
    results["skip_rule_soundness"] = (
        all(rec.skipped and rec.stepsize == 0.0 for rec in first)
        and len({rec.hstar_error for rec in first}) == 1
        and result.converged)
    fvals = [rec.f for rec in result.records]
    results["monotone_objective"] = all(
        b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(fvals, fvals[1:]))

    # Exact oracle on a quadratic converges in a single unit step.
    rng = np.random.default_rng(11)
    M = rng.standard_normal((6, 6))
    Q = M @ M.T + 6 * np.eye(6)
    c = rng.standard_normal(6)
    quad = QuadraticTest(Q, c)
    qref = ReferenceSolution(x_star=np.linalg.solve(Q, c), h_star=Q)
    qres = run(quad, np.zeros(6),
               SolverConfig(oracle=Exact(), weights=Uniform(), max_iter=5,
                            tol_hstar=1e-12, seed=0), qref)
    results["quadratic_one_step"] = (
        qres.iterations_to_tol == 1 and qres.records[0].stepsize == 1.0
        and qres.records[0].backtracks == 0)

    # The bench command gives byte-identical output for any worker count.
    grid = dict(coherence_modes=["low"], kappa_list=[1.0], s_list=[1.0],
                oracle_kinds=["subsample"], variants=["noavg", "unifavg"],
                num_seeds=4, base_seed=0, tol=1e-6, max_iter=200,
                n=240, d=24, reg_nu=1e-3, include_bfgs=True)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    code1 = cli_main(["bench", "--grid", str(grid_path),
                      "--out", str(tmp_path / "serial"), "--jobs", "1"])
    code2 = cli_main(["bench", "--grid", str(grid_path),
                      "--out", str(tmp_path / "parallel"), "--jobs", "2"])
    results["bench_parallel_determinism"] = (
        code1 == 0 and code2 == 0
        and (tmp_path / "serial.csv").read_text()
        == (tmp_path / "parallel.csv").read_text())

    failing = sorted(name for name, ok in results.items() if not ok)
    details = "%d/%d property checks pass" % (len(results) - len(failing),
                                              len(results))
    if failing:
        details += ", failing: " + ", ".join(failing)
    verdict(7, not failing, details)


def test_criterion_8_theory_self_consistency():
    rng = np.random.default_rng(20240817)
    failures = []
    for i in range(20):
        kappa = float(rng.uniform(1.0, 50.0))
        lam = float(rng.uniform(1e-3, 1.0))
        upsilon = (0.0 if rng.random() < 0.15
                   else float(rng.uniform(0.01, 5.0)))
        eps = float(rng.uniform(0.05, 0.95))
        d = int(rng.integers(2, 500))
        delta = float(rng.uniform(1e-4, min(0.3, d / math.e * 0.99)))
        radius = float(rng.uniform(0.05, 1.0))
        L = float(rng.uniform(0.0, 5.0))
        gap = float(rng.uniform(0.0, 5.0))
        weights = [Uniform(), Power(float(rng.uniform(1.0, 4.0))),
                   LogPower(),
                   LogPower(scale=1.0 / math.log(10.0))][
            int(rng.integers(0, 4))]
        beta = float(rng.uniform(0.01, 0.49))
        rho = float(rng.uniform(0.1, 0.9))
        inputs = theory.TheoryInputs(
            kappa=kappa, lambda_min=lam, upsilon=upsilon, epsilon=eps,
            delta=delta, d=d, radius_nu=radius, lipschitz_L=L, f0_gap=gap,
            psi=psi_bound(weights, 1000), weights=weights, beta=beta,
            rho=rho)
        checks = theory.substitute_back_checks(inputs)
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            failures.append("set %d: %s" % (i, ",".join(bad)))

    base = theory.TheoryInputs(kappa=10.0, lambda_min=1e-3, upsilon=0.1,
                               epsilon=0.5, delta=0.01, d=100,
                               radius_nu=0.5, lipschitz_L=1.0, f0_gap=1.0,
                               psi=psi_bound(Uniform(), 1000),
                               weights=Uniform(), beta=1e-4, rho=0.5)
    report = theory.transition_report(base)
    grid_t = np.concatenate(([0.0],
                             np.unique(np.round(np.logspace(0, 6, 60)))))
    rho_vals = [theory.rho_t(base, report.t_total, report.j_transition, t)
                for t in grid_t]
    theta_vals = [theory.theta_t(base, report.i_total,
                                 report.u_transition, t) for t in grid_t]
    sweeps_ok = (all(v >= 0.0 for v in rho_vals + theta_vals)
                 and all(b <= a for a, b in zip(rho_vals, rho_vals[1:]))
                 and all(b <= a for a, b in zip(theta_vals,
                                                theta_vals[1:])))
    ok = not failures and sweeps_ok
    details = "%d/20 randomized parameter sets pass substitute-back, " \
              "rate sweeps %s" % (20 - len(failures),
                                  "monotone" if sweeps_ok else "broken")
    if failures:
        details += "; " + "; ".join(failures)
    verdict(8, ok, details)
