import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hessavg import problem, solver
from hessavg.datagen import DataGenConfig, generate
from hessavg.problem import (REF_GRAD_TOL, Dataset, ReferenceSolution,
                             RegularizedLogistic, hstar_error,
                             solve_reference)
from objectives import QuadraticTest

# Pinned 3x2 instance; reference values computed independently with mpmath
# at 50 digits and rounded to the nearest double.
PIN_A = np.array([[1.0, -0.5], [0.25, 2.0], [-1.5, 0.75]])
PIN_B = np.array([1, -1, 1])
PIN_X = np.array([0.3, -0.4])
PIN_NU = 0.01
PIN_VALUE = 0.66988594112007771
PIN_GRAD = np.array([0.24393353503377121, 0.10665737036949506])
PIN_CURV = np.array([0.23500371220159449, 0.21982584359909701,
                     0.21789499376181404])
PIN_HESS = np.array([[0.25633552113020652, -0.08424026742776318],
                     [-0.08424026742776318, 0.36354007881260236]])

# sigma(10) * sigma(-10), the curvature weight at margin 10.
CURV_AT_10 = 4.5395807735951673e-05


def pinned_objective():
    return RegularizedLogistic(Dataset(PIN_A, PIN_B), PIN_NU)


def small_instance(n=120, d=9, seed=21, reg_nu=1e-2):
    cfg = DataGenConfig(n=n, d=d, coherence_mode="low", kappa_A=6.0,
                        reg_nu=reg_nu, seed=seed)
    ds, _ = generate(cfg)
    return RegularizedLogistic(ds, reg_nu)


def test_pinned_value():
    obj = pinned_objective()
    assert np.isclose(obj.value(PIN_X), PIN_VALUE, rtol=5e-15, atol=0)


def test_pinned_gradient():
    obj = pinned_objective()
    assert np.allclose(obj.gradient(PIN_X), PIN_GRAD, rtol=5e-15, atol=0)


def test_pinned_curvature_weights():
    obj = pinned_objective()
    assert np.allclose(obj.curvature_weights(PIN_X), PIN_CURV,
                       rtol=5e-15, atol=0)


def test_pinned_hessian():
    obj = pinned_objective()
    assert np.allclose(obj.hessian(PIN_X), PIN_HESS, rtol=5e-15, atol=0)


def test_curvature_weight_at_large_margin():
    obj = RegularizedLogistic(Dataset(np.array([[10.0]]), np.array([1])), 0.0)
    w = obj.curvature_weights(np.array([1.0]))[0]
    assert np.isclose(w, CURV_AT_10, rtol=5e-15, atol=0)


def test_extreme_margins_do_not_overflow():
    A = np.array([[800.0], [-800.0]])
    b = np.array([1, -1])
    obj = RegularizedLogistic(Dataset(A, b), 1e-3)
    x = np.array([1.0])
    assert np.isfinite(obj.value(x))
    assert np.all(np.isfinite(obj.gradient(x)))
    w = obj.curvature_weights(x)
    assert np.all(np.isfinite(w))
    assert np.all(w >= 0.0)
    assert np.all(w <= 0.25)


def mp_kernels(m):
    """Loss log(1+e^{-m}), sigma(-m) and curvature l(m) at 50 digits."""
    with mpmath.workdps(50):
        m = mpmath.mpf(m)
        return (float(mpmath.log1p(mpmath.exp(-m))),
                float(1 / (1 + mpmath.exp(m))),
                float(mpmath.exp(-m) / (1 + mpmath.exp(-m)) ** 2))


@settings(max_examples=300, deadline=None)
@given(m=st.floats(min_value=-800.0, max_value=800.0))
@example(m=0.0)
@example(m=-0.0)
@example(m=36.5)
@example(m=-36.5)
@example(m=720.0)
@example(m=-720.0)
@example(m=800.0)
@example(m=-800.0)
def test_kernels_match_mpmath(m):
    # A 1x1 problem at x = m: the margin is m and the regularizer is off, so
    # value, -gradient and curvature_weights are the three kernels at m.
    obj = RegularizedLogistic(Dataset(np.array([[1.0]]), np.array([1])), 0.0)
    x = np.array([m])
    got = (obj.value(x), -obj.gradient(x)[0], obj.curvature_weights(x)[0])
    assert np.all(np.isfinite(got))
    assert 0.0 <= got[2] <= 0.25
    # Below the normal range a double carries only absolute precision.
    assert np.allclose(got, mp_kernels(m), rtol=5e-15,
                       atol=np.finfo(float).tiny)


# The logistic kernels written one allocating numpy call per operation.
# The package runs the same operations in the same order in scratch
# arrays; these forms are kept only here, as the reference for that.
def plain_value(m, x, nu):
    e = np.exp(-np.abs(m))
    loss = float(np.mean(np.maximum(-m, 0.0) + np.log1p(e)))
    return loss + 0.5 * nu * float(x @ x)


def plain_gradient(A, b, m, x, nu):
    e = np.exp(-np.abs(m))
    sig_neg = np.where(m >= 0, e, 1.0) / (1.0 + e)
    return -(A.T @ (b * sig_neg)) / A.shape[0] + nu * x


def plain_curvature_weights(m):
    e = np.exp(-np.abs(m))
    return np.minimum(e / ((1.0 + e) * (1.0 + e)), 0.25)


def plain_hessian(A, m, nu):
    r = np.sqrt(plain_curvature_weights(m) / A.shape[0])[:, None] * A
    h = r.T @ r
    h[np.diag_indices_from(h)] += nu
    return h


SPECIAL_MARGINS = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324,
                            745.0, -745.0, 1e6, -1e6, 36.5, -36.5])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 2000), d=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1), special=st.floats(0.0, 1.0))
def test_kernels_equal_plain_formulas(n, d, seed, special):
    # Margins are passed in, so any mix can be drawn: SPECIAL_MARGINS first
    # (as many as fit), then a share `special` of the rest drawn from them.
    # The others are normal draws scaled by 1e-2 to 1e2, one in ten of them
    # scaled down by up to 1e-318 more.
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0, n)
    tiny = rng.random(n) < 0.1
    m[tiny] *= 10.0 ** rng.uniform(-318.0, 0.0, tiny.sum())
    pick = rng.random(n) < special
    m[pick] = rng.choice(SPECIAL_MARGINS, pick.sum())
    k = min(n, len(SPECIAL_MARGINS))
    m[:k] = SPECIAL_MARGINS[:k]
    A = rng.standard_normal((n, d))
    b = rng.choice([-1, 1], n)
    x = rng.standard_normal(d)
    nu = 1e-3
    obj = RegularizedLogistic(Dataset(A, b), nu)
    m_before = m.copy()

    def same(got, want):
        return np.asarray(got).tobytes() == np.asarray(want).tobytes()

    assert same(obj.value(x, margins=m), plain_value(m, x, nu))
    # A mean over many terms can hide a one-ulp change in each of them; the
    # mean of one term cannot.
    for i in range(min(n, 64)):
        one = m[i:i + 1]
        assert same(obj.value(x, margins=one), plain_value(one, x, nu))
    assert same(obj.gradient(x, margins=m),
                plain_gradient(A, obj.dataset.b, m, x, nu))
    assert same(obj.curvature_weights(x, margins=m),
                plain_curvature_weights(m))
    assert same(obj.hessian(x, margins=m), plain_hessian(A, m, nu))
    # The scratch arrays are the kernels' own: the margins are untouched.
    assert same(m, m_before)


def random_logistic(n, d, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    obj = RegularizedLogistic(
        Dataset(rng.standard_normal((n, d)) * scale, rng.choice([-1, 1], n)),
        1e-3)
    return obj, rng.standard_normal(d) / np.sqrt(d)


# The acceptance fixtures' shape and the pinned solves' shape: each fits in
# one block, so their Hessians keep the bits of the one-shot product.
@pytest.mark.parametrize("n, d", [(1000, 100), (200, 20)])
def test_hessian_in_one_block_equals_one_shot(n, d):
    assert n * d <= problem._HESSIAN_BLOCK
    obj, x = random_logistic(n, d, seed=n + d)
    M = obj.glm_square_root(x)
    want = M.T @ M + obj.reg_nu * np.eye(d)
    assert obj.hessian(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("n, d", [(3000, 100), (2001, 300)])
def test_hessian_is_gram_of_square_root_past_one_block(n, d):
    # The weighted blocks of hessian and the views of M sum alike.
    assert n * d > problem._HESSIAN_BLOCK
    obj, x = random_logistic(n, d, seed=n + d)
    want = problem._gram(obj.glm_square_root(x), obj.reg_nu)
    assert obj.hessian(x).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300), d=st.integers(1, 30),
       seed=st.integers(0, 2 ** 32 - 1), block=st.integers(1, 2000))
def test_hessian_in_blocks_is_symmetric_and_near_one_shot(n, d, seed, block):
    # block below d gives one row per block; above n*d, one block.
    obj, x = random_logistic(n, d, seed, scale=3.0)
    M = obj.glm_square_root(x)
    want = M.T @ M + obj.reg_nu * np.eye(d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problem, "_HESSIAN_BLOCK", block)
        got = obj.hessian(x)
    assert np.array_equal(got, got.T)
    # Each of the two sums of n products is within gamma_{n+1} sum|m m| of
    # the exact one, and adding nu rounds each once more.
    eps = np.finfo(float).eps
    gamma = (n + 1) * eps / (1 - (n + 1) * eps)
    bound = 2 * gamma * (np.abs(M).T @ np.abs(M)) + 2 * eps * np.abs(want)
    assert np.all(np.abs(got - want) <= bound)


def test_hessian_memory_is_bounded():
    n, d = 4000, 200
    obj, x = random_logistic(n, d, seed=7)
    m = obj.margins(x)
    tracemalloc.start()
    try:
        obj.hessian(x, margins=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The square root M whole would take n*d*8 bytes.
    assert peak < n * d * 8 / 2


def test_gradient_matches_finite_differences():
    obj = small_instance()
    x = np.cos(np.arange(9.0))
    g = obj.gradient(x)
    h = 1e-6
    fd = np.empty(9)
    for i in range(9):
        e = np.zeros(9)
        e[i] = h
        fd[i] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
    rel = np.linalg.norm(fd - g) / np.linalg.norm(g)
    assert rel <= 1e-6


def test_hessian_matches_finite_differences():
    obj = small_instance()
    x = np.cos(np.arange(9.0))
    H = obj.hessian(x)
    h = 1e-5
    fd = np.empty((9, 9))
    for i in range(9):
        e = np.zeros(9)
        e[i] = h
        fd[:, i] = (obj.gradient(x + e) - obj.gradient(x - e)) / (2 * h)
    fd = 0.5 * (fd + fd.T)
    rel = np.linalg.norm(fd - H) / np.linalg.norm(H)
    assert rel <= 1e-5


def test_hessian_is_symmetric_and_regularized():
    obj = small_instance(reg_nu=1e-2)
    x = np.linspace(-1, 1, 9)
    H = obj.hessian(x)
    assert np.array_equal(H, H.T)
    eigs = np.linalg.eigvalsh(H)
    assert eigs.min() >= 1e-2 - 1e-12


def test_dataset_validation():
    A = np.eye(3)
    with pytest.raises(ValueError):
        Dataset(A, np.array([1, 2, 1]))
    with pytest.raises(ValueError):
        Dataset(A, np.array([1, -1]))


@pytest.mark.parametrize("reg_nu", [-1.0, float("nan"), float("inf")])
def test_logistic_rejects_bad_reg_nu(reg_nu):
    with pytest.raises(ValueError, match="reg_nu"):
        RegularizedLogistic(Dataset(PIN_A, PIN_B), reg_nu)


def test_dataset_properties():
    ds = Dataset(PIN_A, PIN_B)
    assert ds.n == 3
    assert ds.d == 2
    assert ds.b.dtype == np.int64


def test_quadratic_objective():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((6, 6))
    Q = M @ M.T + 6 * np.eye(6)
    c = rng.standard_normal(6)
    obj = QuadraticTest(Q, c)
    x = rng.standard_normal(6)
    assert np.isclose(obj.value(x), 0.5 * x @ Q @ x - c @ x, rtol=1e-14)
    assert np.allclose(obj.gradient(x), Q @ x - c, rtol=1e-14)
    assert np.array_equal(obj.hessian(x), Q)


def test_quadratic_validation():
    with pytest.raises(ValueError):
        QuadraticTest(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="exactly symmetric"):
        QuadraticTest(np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]]), np.zeros(2))
    with pytest.raises(np.linalg.LinAlgError):
        QuadraticTest(np.diag([1.0, -1.0]), np.zeros(2))


def test_reference_solution_low_coherence():
    cfg = DataGenConfig(n=200, d=20, coherence_mode="low", kappa_A=10.0,
                        reg_nu=1e-3, seed=2)
    ds, _ = generate(cfg)
    obj = RegularizedLogistic(ds, 1e-3)
    ref = solve_reference(obj, np.zeros(20))
    assert np.linalg.norm(obj.gradient(ref.x_star)) <= 1e-12
    assert hstar_error(ref.x_star, ref) == 0.0
    assert np.array_equal(ref.h_star, ref.h_star.T)
    assert np.linalg.eigvalsh(ref.h_star).min() >= 1e-3 - 1e-12


def test_reference_hessian_is_exactly_symmetric_at_blocked_size():
    cfg = DataGenConfig(n=300, d=100, coherence_mode="high", kappa_A=10.0,
                        reg_nu=1e-3, seed=6)
    ds, _ = generate(cfg)
    ref = solve_reference(RegularizedLogistic(ds, 1e-3), np.zeros(100))
    assert np.array_equal(ref.h_star, ref.h_star.T)


def test_reference_solution_high_coherence():
    cfg = DataGenConfig(n=300, d=30, coherence_mode="high", kappa_A=30.0,
                        reg_nu=1e-3, seed=4)
    ds, _ = generate(cfg)
    obj = RegularizedLogistic(ds, 1e-3)
    ref = solve_reference(obj, np.zeros(30))
    assert np.linalg.norm(obj.gradient(ref.x_star)) <= 1e-12


def test_reference_full_steps_certify_by_the_fresh_gradient():
    # On this dataset the main loop stops short of the tolerance, and a full
    # Newton step takes the gradient at fresh margins under it.
    cfg = DataGenConfig(n=300, d=30, coherence_mode="low", kappa_A=30.0,
                        reg_nu=1e-3, seed=3)
    ds, _ = generate(cfg)
    obj = RegularizedLogistic(ds, 1e-3)
    ref = solve_reference(obj, np.zeros(30))
    assert np.linalg.norm(obj.gradient(ref.x_star)) <= REF_GRAD_TOL


def test_reference_stops_at_the_rounding_floor(monkeypatch):
    # A perfbench grid dataset whose main loop stalls at ||g|| = 3.4e-9,
    # where Armijo compares rounding noise: the floor break must fire there
    # and leave the rest to the full steps, not run out REF_MAX_ITER.
    cfg = DataGenConfig(n=1000, d=100, coherence_mode="low", kappa_A=100.0,
                        reg_nu=1e-3, seed=176337296440474)
    ds, _ = generate(cfg)
    obj = RegularizedLogistic(ds, 1e-3)
    calls = []
    newton_direction = solver.newton_direction

    def counted(*args):
        calls.append(args)
        return newton_direction(*args)

    # solve_reference imports newton_direction from solver at call time.
    monkeypatch.setattr(solver, "newton_direction", counted)
    ref = solve_reference(obj, np.zeros(100))
    assert len(calls) <= 20
    assert np.linalg.norm(obj.gradient(ref.x_star)) <= REF_GRAD_TOL


@pytest.mark.parametrize("name, result, match", [
    ("newton_direction", None, "Newton system not solvable"),
    ("line_search", (None, 60), "line search failed")],
    ids=["newton_direction", "line_search"])
def test_reference_damped_phase_raises(monkeypatch, name, result, match):
    # The damped phase resolves both from solver at call time.
    monkeypatch.setattr(solver, name, lambda *args, **kwargs: result)
    with pytest.raises(RuntimeError, match=match):
        solve_reference(small_instance(), np.zeros(9))


def test_reference_from_a_certified_start_takes_no_step(monkeypatch):
    obj = small_instance()
    ref = solve_reference(obj, np.zeros(9))
    calls = []
    newton_direction = solver.newton_direction

    def counted(*args):
        calls.append(args)
        return newton_direction(*args)

    monkeypatch.setattr(solver, "newton_direction", counted)
    again = solve_reference(obj, ref.x_star)
    assert np.array_equal(again.x_star, ref.x_star)
    assert np.array_equal(again.h_star, ref.h_star)
    assert calls == []


def test_reference_raises_where_float64_cannot_certify():
    # With A scaled by 10^3.25 the float64 gradient's rounding floor lies
    # above the tolerance, so no x* is returned.
    cfg = DataGenConfig(n=1000, d=100, coherence_mode="low", kappa_A=100.0,
                        reg_nu=1e-3, seed=0)
    ds, _ = generate(cfg)
    obj = RegularizedLogistic(Dataset(ds.A * 10 ** 3.25, ds.b), 1e-3)
    with pytest.raises(RuntimeError, match=r"final \|\|grad f\|\| = \S+ is "
                       r"above the tolerance 1e-13$"):
        solve_reference(obj, np.zeros(100))


def test_reference_from_far_starts_certifies_or_raises():
    # From 10^18 x_true (f = 4e32) the margins carried along the search ray
    # lose their digits to cancellation: the damped phase stops where the
    # carried gradient reads 7e-16 and the fresh one 0.34, and the solve
    # raises instead of returning that x.  From 10^15 x_true it certifies.
    cfg = DataGenConfig(n=300, d=30, coherence_mode="low", kappa_A=30.0,
                        reg_nu=1e-3, seed=1)
    ds, x_true = generate(cfg)
    obj = RegularizedLogistic(ds, 1e-3)
    ref = solve_reference(obj, 1e15 * x_true)
    assert np.linalg.norm(obj.gradient(ref.x_star)) <= REF_GRAD_TOL
    with pytest.raises(RuntimeError, match=r"final \|\|grad f\|\| = \S+ is "
                       r"above the tolerance 1e-13$"):
        solve_reference(obj, 1e18 * x_true)


@pytest.mark.parametrize("n, d", [(40, 5), (1000, 20)])
def test_reference_raises_on_separable_data_without_regularizer(n, d):
    # f tends to 0 along a separating direction and has no minimizer; the
    # gradient still falls under the tolerance on the way out.
    rng = np.random.default_rng(n + d)
    A = rng.standard_normal((n, d))
    b = np.where(A @ rng.standard_normal(d) > 0, 1, -1)
    with pytest.raises(RuntimeError, match="linearly separable"):
        solve_reference(RegularizedLogistic(Dataset(A, b), 0.0), np.zeros(d))


def test_hstar_error_metric():
    x_star = np.array([1.0, -1.0])
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    ref = ReferenceSolution(x_star=x_star, h_star=H)
    x = np.array([1.5, 0.0])
    delta = x - x_star
    expected = np.sqrt(delta @ H @ delta)
    assert np.isclose(hstar_error(x, ref), expected, rtol=1e-14, atol=0)
    assert hstar_error(x_star, ref) == 0.0
