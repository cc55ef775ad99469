import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hessavg.averaging import (LastOnly, LogPower, Power, Uniform,
                               growth_ratio, initial_state, log_weight,
                               normalized_weights, psi_bound, update)

# Reference values computed independently with mpmath at 50 digits.
LP_W1 = 1.6168066722416747          # exp(ln(2)^2)
LP_W2 = 3.3432686321239604          # exp(ln(3)^2)
LP_Z2 = np.array([0.29910848036303483, 0.18449210641198782,
                  0.51639941322497729])
LP10_W1 = 1.2320236886890061        # exp(ln(2)^2 / ln(10))
PSI_LP = 2.1849470328269085


def weight(seq, t):
    # w(t) from its log, as every caller in the package reads it; also the
    # continuous extension, for slope checks.
    return math.exp(log_weight(seq, t))


def test_uniform_weights_are_counts():
    seq = Uniform()
    for t in range(6):
        assert np.isclose(weight(seq, t), t + 1, rtol=1e-15, atol=0)


def test_power_weights():
    seq = Power(2.0)
    assert weight(seq, 0) == 1.0
    assert np.isclose(weight(seq, 3), 16.0, rtol=1e-15, atol=0)
    assert np.isclose(weight(Power(1.0), 4), 5.0, rtol=1e-15, atol=0)


def test_logpower_frozen_values():
    assert np.isclose(weight(LogPower(), 1), LP_W1, rtol=5e-15, atol=0)
    assert np.isclose(weight(LogPower(), 2), LP_W2, rtol=5e-15, atol=0)
    scaled = LogPower(scale=1.0 / math.log(10.0))
    assert np.isclose(weight(scaled, 1), LP10_W1, rtol=5e-15, atol=0)


def test_weight_at_minus_one_is_zero():
    for seq in (Uniform(), Power(3.0), LogPower()):
        assert log_weight(seq, -1) == -math.inf
        assert weight(seq, -1) == 0.0
    with pytest.raises(ValueError):
        log_weight(Uniform(), -2)


def test_lastonly_is_not_weight_based():
    with pytest.raises(TypeError):
        log_weight(LastOnly(), 3)
    with pytest.raises(TypeError):
        normalized_weights(LastOnly(), 3)


def test_sequence_validation():
    with pytest.raises(ValueError):
        Power(0.9)
    with pytest.raises(ValueError):
        LogPower(scale=0.0)
    with pytest.raises(ValueError):
        LogPower(scale=-1.0)


def test_normalized_weights_sum_to_one():
    for seq in (Uniform(), Power(2.5), LogPower(),
                LogPower(scale=1.0 / math.log(10.0))):
        for t in (0, 1, 7, 40):
            z = normalized_weights(seq, t)
            assert z.shape == (t + 1,)
            assert np.all(z >= 0)
            assert np.isclose(z.sum(), 1.0, rtol=1e-12, atol=0)


def test_uniform_normalized_weights_are_equal():
    z = normalized_weights(Uniform(), 9)
    assert np.allclose(z, 0.1, rtol=1e-14, atol=0)


def test_logpower_normalized_weights_frozen():
    z = normalized_weights(LogPower(), 2)
    assert np.allclose(z, LP_Z2, rtol=5e-15, atol=0)


def test_initial_state():
    st = initial_state(4)
    assert st.t == -1
    assert np.all(st.h_tilde == 0.0)
    assert st.h_tilde.shape == (4, 4)


def test_first_update_equals_first_estimate():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 5))
    m = m + m.T
    for seq in (LastOnly(), Uniform(), Power(2.0), LogPower()):
        st = update(initial_state(5), seq, m)
        assert np.array_equal(st.h_tilde, m)
        assert st.t == 0


def test_lastonly_update_copies_input():
    m = np.eye(3)
    st = update(initial_state(3), LastOnly(), m)
    m[0, 0] = 99.0
    assert st.h_tilde[0, 0] == 1.0


def test_state_progression():
    seq = Uniform()
    st = initial_state(2)
    for t in range(5):
        st = update(st, seq, np.eye(2))
        assert st.t == t


def test_online_update_matches_batch_weights():
    # The recursion must reproduce the explicit weighted sum of all
    # estimates seen so far, for every weight family.
    rng = np.random.default_rng(314)
    mats = rng.standard_normal((30, 7, 7))
    mats = mats + mats.transpose(0, 2, 1)
    for seq in (Uniform(), Power(2.0), LogPower(),
                LogPower(scale=1.0 / math.log(10.0))):
        st = initial_state(7)
        for t in range(30):
            st = update(st, seq, mats[t])
            z = normalized_weights(seq, t)
            batch = np.tensordot(z, mats[:t + 1], axes=1)
            assert np.max(np.abs(st.h_tilde - batch)) <= 1e-10


weight_sequences = st.one_of(
    st.just(Uniform()),
    st.floats(1.0, 4.0).map(Power),
    st.floats(0.05, 2.0).map(lambda scale: LogPower(scale=scale)),
)


@settings(max_examples=200, deadline=None)
@given(seq=weight_sequences, data=st.data())
def test_online_update_matches_batch_weights_property(seq, data):
    horizon = data.draw(st.integers(1, 60), label="horizon")
    d = data.draw(st.integers(1, 6), label="d")
    mats = data.draw(arrays(np.float64, (horizon, d, d),
                            elements=st.floats(-1e3, 1e3)), label="mats")
    mats = mats + mats.transpose(0, 2, 1)
    state = initial_state(d)
    for h_hat in mats:
        state = update(state, seq, h_hat)
    batch = np.tensordot(normalized_weights(seq, horizon - 1), mats, axes=1)
    # Relative to the largest entry; below the smallest normal float the
    # rounding unit is absolute, so the scale is floored there.
    scale = max(np.max(np.abs(mats)), np.finfo(float).tiny)
    assert np.max(np.abs(state.h_tilde - batch)) <= 1e-12 * scale


def test_lastonly_tracks_most_recent():
    rng = np.random.default_rng(1)
    st = initial_state(3)
    last = None
    for _ in range(4):
        last = rng.standard_normal((3, 3))
        st = update(st, LastOnly(), last)
    assert np.array_equal(st.h_tilde, last)


def test_log_weight_consistency():
    # Against the power forms (t+1)^p and (t+1)^{ln(t+1)}.
    for seq, power in ((Uniform(), lambda t: 1.0), (Power(2.0), lambda t: 2.0),
                       (LogPower(), lambda t: math.log(t + 1))):
        for t in (0, 1, 5, 100):
            assert np.isclose(weight(seq, t), (t + 1.0) ** power(t),
                              rtol=1e-12, atol=1e-12)


def test_log_weight_handles_huge_arguments():
    t = 1e12
    lw = log_weight(LogPower(), t)
    assert math.isfinite(lw)
    assert np.isclose(lw, math.log(t + 1) ** 2, rtol=1e-12, atol=0)


def test_psi_bound_frozen_values():
    assert psi_bound(Uniform(), 1000) == 2.0
    assert psi_bound(Power(2.0), 1000) == 4.0
    assert np.isclose(psi_bound(LogPower(), 1000), PSI_LP, rtol=5e-15, atol=0)


def test_derivative_matches_numeric_slope():
    h = 1e-6
    for seq in (Uniform(), Power(2.5), LogPower(),
                LogPower(scale=1.0 / math.log(10.0))):
        for t in (3.7, 9.2, 50.0):
            numeric = (weight(seq, t + h) - weight(seq, t - h)) / (2 * h)
            # w'(t) = w(t) * growth_ratio(t) in closed form.
            closed = weight(seq, t) * growth_ratio(seq, t)
            assert np.isclose(closed, numeric, rtol=1e-6, atol=0)


@pytest.mark.parametrize("seq", [Uniform(), Power(2.5), LogPower(),
                                 LogPower(scale=1.0 / math.log(10.0))],
                         ids=["uniform", "power", "logpower", "logpower10"])
@pytest.mark.parametrize("t", [0.0, 0.37, 4.0, 123.5, 1e9, 1e15])
def test_inverse_log_weight_inverts_log_weight(seq, t):
    root = seq.inverse_log_weight(log_weight(seq, t))
    assert np.isclose(root, t, rtol=1e-12, atol=1e-12)


def test_inverse_log_weight_below_the_start():
    # ln w(-1) = -inf; LogPower's ln w rises from 0 at t = 0.
    assert Power(2.0).inverse_log_weight(-math.inf) == -1.0
    assert LogPower().inverse_log_weight(-math.inf) == 0.0
    assert LogPower().inverse_log_weight(-3.0) == 0.0
    with pytest.raises(OverflowError):
        Uniform().inverse_log_weight(710.0)
