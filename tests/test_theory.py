import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hessavg.averaging import (LastOnly, LogPower, Power, Uniform, log_weight,
                               psi_bound)
from hessavg.datagen import DataGenConfig, generate
from hessavg.oracles import Subsample, estimate, noise_sample, spectral_norm
from hessavg.problem import RegularizedLogistic
from hessavg import theory

# Reference values computed independently with mpmath at 50 digits.
T1_FROZEN = 678.18462291814865
PHI_FROZEN = 1.6665000000000001e-05
T2_FROZEN = 422997.59023437364
J_FROZEN = 6778812.3977166684
FREEDMAN_BOUND_FROZEN = 0.52719427623145354
FREEDMAN_ETA_FROZEN = 2.0594368186082224


def base_inputs(**overrides):
    params = dict(kappa=2.0, lambda_min=0.5, upsilon=0.25, epsilon=0.5,
                  delta=0.01, d=100, radius_nu=0.5, lipschitz_L=2.0,
                  f0_gap=3.0, psi=2.0, weights=Uniform(), beta=1e-4, rho=0.5)
    params.update(overrides)
    return theory.TheoryInputs(**params)


@pytest.mark.parametrize("bad", [
    dict(kappa=0.9),
    dict(lambda_min=0.0),
    dict(upsilon=-0.1),
    dict(epsilon=0.0),
    dict(epsilon=1.0),
    dict(delta=0.0),
    dict(delta=1.0),
    dict(d=0),
    dict(d=2, delta=0.9),          # d/delta below e
    dict(radius_nu=0.0),
    dict(radius_nu=1.5),
    dict(lipschitz_L=-1.0),
    dict(f0_gap=-1.0),
    dict(psi=0.5),
    dict(weights=LastOnly()),
    dict(beta=0.5),
    dict(rho=0.0),
])
def test_input_validation(bad):
    with pytest.raises((ValueError, TypeError)):
        base_inputs(**bad)


@pytest.mark.parametrize("field", ["kappa", "lambda_min", "upsilon",
                                   "epsilon", "delta", "radius_nu",
                                   "lipschitz_L", "f0_gap", "psi", "beta",
                                   "rho"])
def test_nan_input_is_rejected(field):
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match=field):
            base_inputs(**{field: value})


def test_burn_in_frozen_value():
    assert np.isclose(theory.t1(base_inputs()), T1_FROZEN, rtol=5e-15, atol=0)


def test_burn_in_at_noise_free_boundary():
    # Upsilon = 0 with d/delta exactly e collapses the formula to 4.
    inputs = base_inputs(kappa=1.0, lambda_min=1.0, upsilon=0.0,
                         delta=1.0 / math.e, d=1, radius_nu=1.0,
                         lipschitz_L=0.0, f0_gap=0.0, psi=1.0)
    assert theory.t1(inputs) == 4.0


def test_linear_phase_frozen_values():
    inputs = base_inputs()
    assert np.isclose(theory.phi_rate(inputs), PHI_FROZEN, rtol=5e-15, atol=0)
    assert np.isclose(theory.t2(inputs), T2_FROZEN, rtol=5e-15, atol=0)
    total = theory.t1(inputs) + theory.t2(inputs)
    assert np.isclose(theory.j_transition(inputs, total), J_FROZEN,
                      rtol=5e-15, atol=0)


def test_linear_phase_clamps_at_zero():
    inputs = base_inputs(f0_gap=0.0)
    report = theory.transition_report(inputs)
    assert report.t2 == 0.0
    assert report.t2_clamped


def test_totals_are_exact_sums():
    report = theory.transition_report(base_inputs())
    assert report.t_total == report.t1 + report.t2
    assert report.i_total == report.i1 + report.t2


def test_noise_free_oracle_never_transitions():
    report = theory.transition_report(base_inputs(upsilon=0.0))
    assert math.isinf(report.k_transition)
    assert math.isinf(report.v_transition)


def test_report_serialization():
    report = theory.transition_report(base_inputs(upsilon=0.0))
    payload = theory.report_to_json_dict(report)
    assert payload["k_transition"] == "inf"
    assert payload["v_transition"] == "inf"
    assert payload["t2_clamped"] is False
    assert isinstance(payload["t1"], float)


def test_substitute_back_on_handpicked_inputs():
    cases = [
        base_inputs(),
        base_inputs(weights=Power(2.0), psi=psi_bound(Power(2.0), 1000)),
        base_inputs(weights=LogPower(), psi=psi_bound(LogPower(), 1000)),
        base_inputs(upsilon=0.0),
    ]
    for inputs in cases:
        checks = theory.substitute_back_checks(inputs)
        bad = [k for k, v in checks.items() if not v]
        assert not bad, "failed: %s" % bad


# i1 of LogPower bundles, whose growth expression is 0 at t = 0 and peaks
# past it.  Computed with the ternary peak search that i1 used before its
# single bisection; "extreme" ends past 2**52, where a one-point step of the
# expression is below its rounding.
I1_LOGPOWER_FROZEN = [
    ("below-threshold", dict(weights=LogPower(scale=0.13), upsilon=0.0), 0.0),
    ("one-point", dict(weights=LogPower(scale=0.1325), upsilon=0.0), 3.0),
    ("from-t1", dict(weights=LogPower(scale=0.15), upsilon=0.0), 5.0),
    ("default", dict(weights=LogPower()), 25076.0),
    ("heavy-noise", dict(weights=LogPower(scale=3.0), upsilon=40.0, psi=5.0,
                         epsilon=0.1), 1611176412402.0),
    ("extreme", dict(weights=LogPower(scale=1.4003055447043171),
                     upsilon=137.98674980680298,
                     epsilon=0.030235659314798484,
                     delta=0.003130203832280273, d=91,
                     psi=29.813253904457124), 5599502062274436.0),
]


@pytest.mark.parametrize("overrides, expected",
                         [case[1:] for case in I1_LOGPOWER_FROZEN],
                         ids=[case[0] for case in I1_LOGPOWER_FROZEN])
def test_i1_logpower_frozen_values(overrides, expected):
    assert theory.i1(base_inputs(**overrides)) == expected


@settings(max_examples=300, deadline=None)
@given(seq=st.one_of(st.just(Uniform()), st.floats(1.0, 6.0).map(Power),
                     st.floats(0.01, 10.0).map(
                         lambda scale: LogPower(scale=scale))),
       upsilon=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
       epsilon=st.floats(0.01, 0.99), d=st.integers(1, 10 ** 4),
       delta=st.floats(1e-6, 0.99), psi=st.floats(1.0, 30.0))
def test_i1_boundary_property(seq, upsilon, epsilon, d, delta, psi):
    # Upsilon up to 1e3 puts i1 past 2**53, where the float i1 is not the
    # integer the search ended on, and past 2**62, the old bracket limit.
    assume(d / delta >= math.e)
    inputs = base_inputs(weights=seq, upsilon=upsilon, epsilon=epsilon, d=d,
                         delta=delta, psi=psi)
    assert theory.substitute_back_checks(inputs)["i1_boundary"]


def test_i1_past_2_62():
    # The growth expression at 2**62 is 8.3130e-15 against a threshold of
    # 8.3128e-15, so the burn-in ends just past the old bracket limit.
    inputs = base_inputs(weights=LogPower(scale=9.0), upsilon=457.0,
                         epsilon=0.01, psi=30.0, d=362, delta=0.5)
    report = theory.transition_report(inputs)
    assert 2.0 ** 62 < report.i1 < 2.0 ** 63
    checks = theory.substitute_back_checks(inputs, report)
    assert all(checks.values()), checks


def test_i1_boundary_check_past_2_53():
    # The search ends on an integer the float i1 rounds away from; the check
    # must judge the float itself, with the float below it as the previous
    # point.  Substituting back int(i1) fails this bundle.
    inputs = theory.TheoryInputs(
        kappa=10.0, lambda_min=1e-3, upsilon=1553.8383509570822,
        epsilon=0.010976951550718747, delta=1.6890777975451035e-06, d=6897,
        radius_nu=0.5, lipschitz_L=1.0, f0_gap=1.0, psi=27.622873538719414,
        weights=Power(p=2.770752743954021))
    report = theory.transition_report(inputs)
    assert report.i1 == 1.6752608043859738e+17
    checks = theory.substitute_back_checks(inputs, report)
    assert all(checks.values()), checks


def test_weight_target_search_at_large_magnitudes():
    # Heavy noise with slow power growth pushes the weight-target root past
    # 1e10, where float spacing is coarse; u must still satisfy its equation.
    seq = Power(1.117)
    inputs = base_inputs(kappa=22.4, lambda_min=0.1, upsilon=4.75,
                         epsilon=0.153, d=300, radius_nu=0.05,
                         weights=seq, psi=psi_bound(seq, 1000))
    report = theory.transition_report(inputs)
    assert report.u_transition > 1e9
    checks = theory.substitute_back_checks(inputs, report)
    assert checks["u_equation"]
    assert checks["v_boundary"]


@pytest.mark.parametrize("seq", [Uniform(), Power(2.5), LogPower(),
                                 LogPower(scale=1.0 / math.log(10.0))],
                         ids=["uniform", "power", "logpower", "logpower10"])
@pytest.mark.parametrize("i_total", [0.5, 3.0, 1234.5, 5.4e11])
def test_weight_target_is_met_exactly(seq, i_total):
    inputs = base_inputs(kappa=37.0, radius_nu=0.3, weights=seq)
    u = theory.u_transition(inputs, i_total)
    target = theory._u_target_log(inputs, i_total)
    assert u > 0.0
    assert abs(log_weight(seq, i_total + u) - target) <= 1e-12 * abs(target)


def test_weight_target_below_w_of_i_gives_zero():
    # The target 2 w(0) = 2 lies below w(1) = 2**4.
    inputs = base_inputs(kappa=1.0, radius_nu=1.0, weights=Power(4.0))
    assert theory.u_transition(inputs, 1.0) == 0.0


@pytest.mark.parametrize("radius_nu", [1e-5, 1e-9],
                         ids=["root-overflows", "target-overflows"])
def test_weight_target_past_the_float_range_raises(radius_nu):
    inputs = base_inputs(kappa=1e300, radius_nu=radius_nu)
    with pytest.raises(RuntimeError, match="never reaches the target"):
        theory.u_transition(inputs, 1e10)


def test_noise_transition_past_the_integer_bracket():
    # Uniform weights put v near 2.4e24, far past 2**62; the left side of
    # v's inequality grows without bound, so the transition exists and the
    # search must find it instead of reporting that it never comes.
    inputs = theory.TheoryInputs(
        kappa=341.4, lambda_min=0.1076, upsilon=0.1827, epsilon=0.5,
        delta=0.1, d=100, radius_nu=0.5, lipschitz_L=1.0, f0_gap=0.197,
        psi=2.0, weights=Uniform())
    report = theory.transition_report(inputs)
    assert 2.0 ** 62 < report.v_transition < math.inf
    assert np.isclose(report.v_transition, 2.41e24, rtol=1e-2, atol=0)
    checks = theory.substitute_back_checks(inputs, report)
    assert all(checks.values()), checks


def test_noise_transition_check_past_2_53():
    # v is about 2.5e17, where v - 1 rounds back to v; the minimality check
    # must look at the float below v instead.
    inputs = theory.TheoryInputs(
        kappa=19.66721653974668, lambda_min=0.35433354867027134,
        upsilon=0.17158884928110416, epsilon=0.5327263675711666,
        delta=0.002015795127569595, d=216, radius_nu=0.9542752207059307,
        lipschitz_L=1.0, f0_gap=290.148752515712, psi=2.0, weights=Uniform())
    report = theory.transition_report(inputs)
    assert report.v_transition > 2.0 ** 53
    assert theory.substitute_back_checks(inputs, report)["v_boundary"]


def test_rate_checks_past_1e14():
    # The constants of the low-coherence acceptance grid put I + U near
    # 2.8e15, where an offset of one unit cannot move ln(I + U + t); the
    # rate checks must step far enough that a right rate still falls.
    inputs = theory.TheoryInputs(
        kappa=1295, lambda_min=1.1e-3, upsilon=1.22, epsilon=0.5, delta=0.1,
        d=100, radius_nu=0.5, lipschitz_L=1.0, f0_gap=0.265,
        psi=psi_bound(Uniform(), 1000), weights=Uniform())
    report = theory.transition_report(inputs)
    assert np.isclose(report.t1, 1.5e4, rtol=0.05)
    assert np.isclose(report.t2, 5.4e11, rtol=0.05)
    assert report.i_total + report.u_transition > 1e15
    checks = theory.substitute_back_checks(inputs, report)
    assert all(checks.values()), checks


def test_rate_curves_decrease():
    inputs = base_inputs()
    report = theory.transition_report(inputs)
    offsets = np.unique(np.round(np.logspace(0, 6, 40)))
    rho_vals = [theory.rho_t(inputs, report.t_total, report.j_transition, t)
                for t in offsets]
    theta_vals = [theory.theta_t(inputs, report.i_total,
                                 report.u_transition, t)
                  for t in offsets]
    for vals in (rho_vals, theta_vals):
        assert all(v >= 0.0 for v in vals)
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_freedman_bound_frozen_value():
    got = theory.freedman_bound(2.0, 1.0, [0.5, 0.5], 1)
    assert np.isclose(got, FREEDMAN_BOUND_FROZEN, rtol=5e-15, atol=0)


def test_freedman_bound_clamping():
    # Small eta makes the raw bound exceed 1.
    assert theory.freedman_bound(1.0, 1.0, [1.0], 1) == 1.0
    assert theory.freedman_bound(0.0, 1.0, [1.0], 4) == 1.0


def test_freedman_bound_validation():
    with pytest.raises(ValueError):
        theory.freedman_bound(-1.0, 1.0, [1.0])
    with pytest.raises(ValueError):
        theory.freedman_bound(1.0, 1.0, [0.4, 0.4])


def test_freedman_bound_monotonicity():
    z = [0.25] * 4
    etas = np.linspace(0.1, 5.0, 30)
    vals = [theory.freedman_bound(e, 1.0, z) for e in etas]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    upsilons = np.linspace(0.2, 3.0, 30)
    vals = [theory.freedman_bound(2.0, u, z) for u in upsilons]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_uniform_weights_minimize_freedman_bound():
    # Equal weights minimize both sum(z^2) and max(z), hence the bound.
    rng = np.random.default_rng(31)
    t = 6
    uniform = np.full(t + 1, 1.0 / (t + 1))
    best = theory.freedman_bound(0.7, 1.0, uniform)
    for _ in range(200):
        z = rng.dirichlet(np.ones(t + 1))
        assert theory.freedman_bound(0.7, 1.0, z) >= best - 1e-15


def test_freedman_eta_inverts_bound():
    z = [0.5, 0.5]
    eta = theory.freedman_eta(0.5, 1.0, z, 1)
    assert np.isclose(eta, FREEDMAN_ETA_FROZEN, rtol=5e-15, atol=0)
    assert np.isclose(theory.freedman_bound(eta, 1.0, z, 1), 0.5,
                      rtol=1e-12, atol=0)
    for delta in (0.01, 0.2, 0.9):
        z3 = [0.2, 0.3, 0.5]
        eta = theory.freedman_eta(delta, 2.0, z3, 5)
        assert np.isclose(theory.freedman_bound(eta, 2.0, z3, 5), delta,
                          rtol=1e-10, atol=0)
    with pytest.raises(ValueError):
        theory.freedman_eta(0.0, 1.0, z)
    with pytest.raises(ValueError):
        theory.freedman_eta(1.0, 1.0, z)


def test_empirical_concentration_of_averaged_noise():
    # Running equal-weight averages of subsampled Hessian noise at a fixed
    # point must stay below the inverted tail bound at delta = 0.01 for at
    # least 99% of t in [10, 1000].  The noise scale is estimated from an
    # independent sample as the largest observed deviation.
    cfg = DataGenConfig(n=400, d=20, coherence_mode="low", kappa_A=10.0,
                        reg_nu=1e-2, seed=5)
    ds, _ = generate(cfg)
    obj = RegularizedLogistic(ds, 1e-2)
    x = np.linspace(-0.8, 0.8, 20)
    H = obj.hessian(x)
    kind = Subsample(80)

    upsilon_e = float(
        noise_sample(kind, obj, x, np.random.default_rng(99), 400).max())

    rng = np.random.default_rng(123)
    T = 1000
    running = np.zeros_like(H)
    norms = np.empty(T + 1)
    for t in range(T + 1):
        running += estimate(kind, obj, x, rng) - H
        norms[t] = spectral_norm(running / (t + 1))

    violations = 0
    for t in range(10, T + 1):
        z = np.full(t + 1, 1.0 / (t + 1))
        eta = theory.freedman_eta(0.01, upsilon_e, z, d=20)
        if norms[t] >= eta:
            violations += 1
    total = T + 1 - 10
    assert violations <= math.floor(0.01 * total), \
        "%d of %d checkpoints above the bound" % (violations, total)
