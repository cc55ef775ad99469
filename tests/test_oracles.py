import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.stats import chi2, ks_2samp, norm

from hessavg._blas import single_thread
from hessavg.datagen import DataGenConfig, generate
from hessavg.oracles import (CapabilityError, CountSketch, Exact,
                             GaussianSketch, LessUniform,
                             Subsample, estimate, noise_sample, resolve_kind,
                             sketch_matrix, spectral_norm)
from hessavg.problem import (Dataset, QuadraticTest, RegularizedLogistic,
                             _gram)


def dense(S):
    """S as a dense ndarray; the sparse sketch kinds return scipy arrays."""
    return S.toarray() if sparse.issparse(S) else S


def glm_instance(n=60, d=8, seed=3, reg_nu=1e-2):
    cfg = DataGenConfig(n=n, d=d, coherence_mode="low", kappa_A=4.0,
                        reg_nu=reg_nu, seed=seed)
    ds, _ = generate(cfg)
    return RegularizedLogistic(ds, reg_nu)


def test_exact_oracle_returns_true_hessian():
    obj = glm_instance()
    x = np.linspace(-0.5, 0.5, 8)
    est = estimate(Exact(), obj, x, np.random.default_rng(0))
    assert np.array_equal(est, obj.hessian(x))


def test_exact_oracle_works_on_quadratic():
    Q = np.diag([2.0, 3.0])
    obj = QuadraticTest(Q, np.zeros(2))
    est = estimate(Exact(), obj, np.ones(2), np.random.default_rng(0))
    assert np.array_equal(est, Q)


def test_subsample_full_sample_is_exact():
    obj = glm_instance(n=120, d=9, seed=21)
    x = np.cos(np.arange(9.0))
    est = estimate(Subsample(120), obj, x, np.random.default_rng(0))
    assert np.array_equal(est, obj.hessian(x))


def test_subsample_full_sample_is_exact_at_blocked_size():
    # 300 x 100 fits in one of _gram's blocks; 3000 x 100 takes three.
    for n in (300, 3000):
        obj = glm_instance(n=n, d=100, seed=21)
        x = np.cos(np.arange(100.0)) / 10
        est = estimate(Subsample(n), obj, x, np.random.default_rng(0))
        assert np.array_equal(est, obj.hessian(x)), n


def test_oracle_unbiasedness_monte_carlo():
    # Entrywise |mean - H| must stay within 4 standard errors over 3000
    # draws, for every stochastic oracle.
    obj = glm_instance()
    x = np.linspace(-0.5, 0.5, 8)
    H = obj.hessian(x)
    for kind in (Subsample(12), GaussianSketch(16), CountSketch(16),
                 LessUniform(16)):
        rng = np.random.default_rng(42)
        N = 3000
        draws = np.empty((N, 8, 8))
        for i in range(N):
            draws[i] = estimate(kind, obj, x, rng)
        mean = draws.mean(axis=0)
        se = np.maximum(draws.std(axis=0, ddof=1) / math.sqrt(N), 1e-30)
        worst = float(np.max(np.abs(mean - H) / se))
        assert worst <= 4.0, "%r biased: %.2f sigma" % (kind, worst)


def test_sketch_isometry_monte_carlo():
    # E[S^T S] = I within 4 standard errors for all three sketch families;
    # entries with zero sample variance must match the identity exactly.
    n, s, N = 40, 30, 2000
    for kind in (GaussianSketch(s), CountSketch(s), LessUniform(s, 3)):
        rng = np.random.default_rng(7)
        acc = np.zeros((n, n))
        acc2 = np.zeros((n, n))
        for _ in range(N):
            S = dense(sketch_matrix(kind, n, rng))
            sts = S.T @ S
            acc += sts
            acc2 += sts * sts
        mean = acc / N
        var = np.maximum(acc2 / N - mean ** 2, 0.0)
        dev = np.abs(mean - np.eye(n))
        exact = var <= 1e-24
        assert np.all(dev[exact] == 0.0), "%r: deterministic entries off" % kind
        se = np.sqrt(var[~exact] / N)
        worst = float(np.max(dev[~exact] / se)) if (~exact).any() else 0.0
        assert worst <= 4.0, "%r isometry off: %.2f sigma" % (kind, worst)


def test_countsketch_structure():
    rng = np.random.default_rng(2)
    S = sketch_matrix(CountSketch(6), 25, rng).toarray()
    assert S.shape == (6, 25)
    nnz_per_col = np.count_nonzero(S, axis=0)
    assert np.all(nnz_per_col == 1)
    vals = S[S != 0]
    assert set(np.unique(vals)) <= {-1.0, 1.0}


def test_less_row_structure():
    n, s, k = 30, 5, 4
    rng = np.random.default_rng(8)
    S = sketch_matrix(LessUniform(s, k), n, rng).toarray()
    assert S.shape == (s, n)
    mag = math.sqrt(n / (s * k))
    for row in S:
        nz = row[row != 0]
        assert nz.size == k
        assert np.allclose(np.abs(nz), mag, rtol=1e-14, atol=0)


# sha256 of S.tobytes(); drawing S does no BLAS work, so these do not
# depend on the machine.  A change to the order of the draws shows here.
@pytest.mark.parametrize("kind, digest", [
    (GaussianSketch(8),
     "dda4c7164a7c1334c0bc9588e68dcf948937d1a522a389fd7def897071f880c8"),
    (CountSketch(8),
     "26e12d9e18b500126e25a65bfe7470dbdc00e994f0ae90324029b0e108514368"),
    (LessUniform(8, 3),
     "98a485cb18e5bbc2e8053c29198ef5407cdc0f750347bf2092ae10fcbffff3b7"),
], ids=["gauss", "countsketch", "less"])
def test_sketch_streams_are_pinned(kind, digest):
    S = dense(sketch_matrix(kind, 50, np.random.default_rng(0)))
    assert hashlib.sha256(S.tobytes()).hexdigest() == digest


def test_sparse_sketch_estimates_match_dense_products():
    # The sparse apply sums S @ M in another order than a dense product of
    # the same S, so the two agree to a few ulp of ||M||^2, not bit for bit.
    n, d, s = 1000, 100, 100
    obj = glm_instance(n=n, d=d, seed=5)
    x = np.sin(np.arange(float(d))) / d
    M = obj.glm_square_root(x)
    tol = 8 * np.finfo(float).eps * np.linalg.norm(M, 2) ** 2
    for kind in (CountSketch(s), LessUniform(s)):
        est = estimate(kind, obj, x, np.random.default_rng(11))
        S = sketch_matrix(resolve_kind(kind, d), n, np.random.default_rng(11))
        Sd = S.toarray()
        expected = M.T @ Sd.T @ Sd @ M + obj.reg_nu * np.eye(d)
        assert np.max(np.abs(est - expected)) <= tol, kind


# 300 x 30 fits in one of _gram's blocks; 2001 x 300 with s = 1000 takes two.
@pytest.mark.parametrize("n, d, s", [(300, 30, 60), (1000, 100, 100),
                                     (2001, 300, 1000)])
def test_sparse_sketch_estimates_equal_square_root_products(n, d, s):
    # The sparse kinds apply S diag(sqrt(l/n)) to A instead of S to M.
    # CountSketch's +-1 times r_j is exact, so the estimate is
    # _gram(S @ M) to the bit.  LESS's +-c times r_j rounds unless c = 1,
    # that is, unless n = s * nnz_per_row (the 1000 x 100 grid).
    obj = glm_instance(n=n, d=d, seed=5)
    x = np.sin(np.arange(float(d))) / d
    M = obj.glm_square_root(x)
    tol = 8 * np.finfo(float).eps * np.linalg.norm(M, 2) ** 2
    for kind in (CountSketch(s), LessUniform(s)):
        kind = resolve_kind(kind, d)
        S = sketch_matrix(kind, n, np.random.default_rng(11))
        want = _gram(S @ M, obj.reg_nu)
        est = estimate(kind, obj, x, np.random.default_rng(11))
        if isinstance(kind, CountSketch) or n == s * kind.nnz_per_row:
            assert np.array_equal(est, want), kind
        else:
            assert np.max(np.abs(est - want)) <= tol, kind


def test_sparse_sketch_estimate_memory_is_bounded():
    # The square root M would take A.nbytes (24.4 MiB); S @ A is s x d.
    n, d, s = 8000, 400, 400
    obj = glm_instance(n=n, d=d, seed=5)
    x = np.sin(np.arange(float(d))) / d
    m = obj.margins(x)
    for kind in (CountSketch(s), LessUniform(s)):
        rng = np.random.default_rng(3)
        tracemalloc.start()
        try:
            estimate(kind, obj, x, rng, margins=m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < obj.dataset.A.nbytes / 4, (kind, peak)


@single_thread()
def test_gaussian_sketch_estimate_has_the_law_of_the_full_draw():
    # estimate draws G R (s x d, R^T R = M^T M) in place of S M (s x n).
    # Both must give one law of H_hat - H: the same law of its Frobenius
    # norm (two-sample KS) and the same entrywise second moments.  Over the
    # d(d+1)/2 = 5050 distinct entries, |difference| / standard error is
    # held to 4.76, a two-sided 1% false alarm for all of them together
    # (Bonferroni); the largest of 5050 normal deviates exceeds 4 about one
    # time in four.  The mean is test_oracle_unbiasedness_monte_carlo's.
    n, d, s, N = 1000, 100, 100, 2000
    obj = glm_instance(n=n, d=d, seed=5)
    x = np.sin(np.arange(float(d))) / d
    m = obj.margins(x)
    H, M = obj.hessian(x, margins=m), obj.glm_square_root(x)
    kind = GaussianSketch(s)
    routes = {
        "estimate": lambda rng: estimate(kind, obj, x, rng, margins=m),
        "S M": lambda rng: _gram(sketch_matrix(kind, n, rng) @ M,
                                 obj.reg_nu)}
    norms, moments = {}, {}
    for seed, (route, draw) in enumerate(routes.items()):
        rng = np.random.default_rng([31, seed])
        norms[route] = np.empty(N)
        acc2 = np.zeros((d, d))
        acc4 = np.zeros((d, d))
        for i in range(N):
            e = draw(rng) - H
            norms[route][i] = np.linalg.norm(e)
            e *= e
            acc2 += e
            e *= e
            acc4 += e
        mean = acc2 / N
        moments[route] = mean, np.maximum(acc4 / N - mean ** 2, 0.0) / N
    p = ks_2samp(norms["estimate"], norms["S M"]).pvalue
    (m1, v1), (m2, v2) = moments["estimate"], moments["S M"]
    worst = float(np.max(np.abs(m1 - m2) / np.sqrt(v1 + v2)))
    assert p > 0.01, p
    assert worst <= norm.isf(0.005 / (d * (d + 1) // 2)), worst


def test_gaussian_sketch_falls_back_to_the_full_draw():
    # At n < d, M^T M is singular and potrf fails, so estimate draws S M
    # itself, from the same stream.
    n, d, s = 50, 80, 30
    rng = np.random.default_rng(12)
    ds = Dataset(rng.standard_normal((n, d)), rng.choice([-1, 1], size=n))
    obj = RegularizedLogistic(ds, 1e-2)
    x = np.cos(np.arange(float(d))) / d
    kind = GaussianSketch(s)
    want = _gram(sketch_matrix(kind, n, np.random.default_rng(4))
                 @ obj.glm_square_root(x), obj.reg_nu)
    est = estimate(kind, obj, x, np.random.default_rng(4))
    assert np.array_equal(est, want)


def test_gaussian_sketch_estimate_memory_is_bounded():
    # The s x n sketch and the square root M would take 24.4 + 24.4 MiB;
    # G R and M^T M are s x d and d x d, and M^T M is formed in blocks.
    n, d, s = 8000, 400, 400
    obj = glm_instance(n=n, d=d, seed=5)
    x = np.sin(np.arange(float(d))) / d
    m = obj.margins(x)
    tracemalloc.start()
    try:
        estimate(GaussianSketch(s), obj, x, np.random.default_rng(3),
                 margins=m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < obj.dataset.A.nbytes / 4, peak


def test_sparse_sketch_formats():
    # CountSketch is applied column-wise and LESS row-wise.
    S = sketch_matrix(CountSketch(6), 25, np.random.default_rng(1))
    assert S.format == "csc" and S.nnz == 25
    S = sketch_matrix(LessUniform(6, 4), 25, np.random.default_rng(1))
    assert S.format == "csr" and S.nnz == 24


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 60), s=st.integers(1, 12), data=st.data())
def test_less_rows_hold_k_distinct_positions_property(n, s, data):
    k = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)),
                  label="k")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    S = sketch_matrix(LessUniform(s, k), n, np.random.default_rng(seed))
    pos = np.sort(S.indices.reshape(s, k), axis=1)
    assert np.all((pos >= 0) & (pos < n))
    assert np.all(np.diff(pos, axis=1) > 0)
    Sd = S.toarray()
    assert np.all(np.count_nonzero(Sd, axis=1) == k)
    assert np.all(np.abs(Sd[Sd != 0]) == math.sqrt(n / (s * k)))


def test_less_positions_are_uniform_chi_square():
    # Column hits and within-row pairs of LESS positions against the
    # uniform k-subset law, at a fixed seed.  Positions within a row are
    # drawn without replacement, so the column statistic has mean
    # n(1 - k/n) = 16 rather than 19; both cut-offs are conservative.
    n, s, k, draws = 20, 5, 4, 20_000
    rng = np.random.default_rng(2024)
    rows = np.concatenate([
        sketch_matrix(LessUniform(s, k), n, rng).indices.reshape(s, k)
        for _ in range(draws)])
    cols = np.bincount(rows.ravel(), minlength=n)
    expected = rows.shape[0] * k / n
    stat = float(np.sum((cols - expected) ** 2 / expected))
    assert chi2.sf(stat, n - 1) > 1e-3, stat
    a, b = np.triu_indices(k, 1)
    lo = np.minimum(rows[:, a], rows[:, b]).ravel()
    hi = np.maximum(rows[:, a], rows[:, b]).ravel()
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    pairs = np.bincount(lo * n + hi, minlength=n * n)[upper.ravel()]
    expected = rows.shape[0] * a.size / pairs.size
    stat = float(np.sum((pairs - expected) ** 2 / expected))
    assert chi2.sf(stat, pairs.size - 1) > 1e-3, stat


def test_less_default_density():
    resolved = resolve_kind(LessUniform(5), 30)
    assert resolved.nnz_per_row == max(1, math.ceil(0.1 * 30))
    explicit = resolve_kind(LessUniform(5, 7), 30)
    assert explicit.nnz_per_row == 7


def test_gaussian_entry_scale():
    rng = np.random.default_rng(6)
    s, n = 200, 300
    S = sketch_matrix(GaussianSketch(s), n, rng)
    flat = S.ravel() * math.sqrt(s)
    se_mean = 1.0 / math.sqrt(flat.size)
    assert abs(flat.mean()) <= 4.0 * se_mean
    # Var of a squared standard normal is 2.
    se_var = math.sqrt(2.0 / flat.size)
    assert abs(flat.var() - 1.0) <= 4.0 * se_var


def test_sketched_oracles_need_glm_structure():
    obj = QuadraticTest(np.diag([2.0, 3.0]), np.zeros(2))
    x = np.ones(2)
    rng = np.random.default_rng(0)
    for kind in (Subsample(2), GaussianSketch(2), CountSketch(2),
                 LessUniform(2)):
        with pytest.raises(CapabilityError):
            estimate(kind, obj, x, rng)


def test_sample_size_validation():
    for kind in (Subsample, GaussianSketch, CountSketch, LessUniform):
        with pytest.raises(ValueError, match="^%s oracle" % kind.__name__):
            kind(0)
    obj = glm_instance(n=20, d=4, seed=1)
    with pytest.raises(ValueError):
        estimate(Subsample(21), obj, np.zeros(4), np.random.default_rng(0))


def test_estimates_are_symmetric():
    obj = glm_instance()
    x = np.linspace(-1, 1, 8)
    rng = np.random.default_rng(17)
    for kind in (Exact(), Subsample(12), GaussianSketch(10), CountSketch(10),
                 LessUniform(10)):
        m = estimate(kind, obj, x, rng)
        assert np.array_equal(m, m.T)


@pytest.mark.parametrize("d", [100, 400])
def test_estimates_are_symmetric_at_blocked_sizes(d):
    # At these sizes BLAS splits a product into blocks and threads, and a
    # general product such as rows^T (w * rows) rounds its two triangles
    # differently.
    obj = glm_instance(n=2 * d, d=d)
    x = np.linspace(-1, 1, d)
    rng = np.random.default_rng(17)
    for kind in (Exact(), Subsample(d), GaussianSketch(d), CountSketch(d),
                 LessUniform(d)):
        m = estimate(kind, obj, x, rng)
        assert np.array_equal(m, m.T), kind


def test_estimate_determinism():
    obj = glm_instance()
    x = np.zeros(8)
    for kind in (Subsample(12), GaussianSketch(10), CountSketch(10),
                 LessUniform(10)):
        a = estimate(kind, obj, x, np.random.default_rng(123))
        b = estimate(kind, obj, x, np.random.default_rng(123))
        assert np.array_equal(a, b)


def test_spectral_norm_small_matrices():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((30, 30))
    M = M + M.T
    assert np.isclose(spectral_norm(M), np.linalg.norm(M, 2),
                      rtol=1e-12, atol=0)


def test_spectral_norm_power_iteration_path():
    # Large matrices, where an iterative estimate would be cheaper but not
    # exact.  A planted gap is easy for power iteration; a gapless Gaussian
    # spectrum is not: 50 power iterations under-read this one by about 3e-3.
    rng = np.random.default_rng(9)
    u = rng.standard_normal(210)
    u /= np.linalg.norm(u)
    noise = 0.1 * rng.standard_normal((210, 210))
    M = 10.0 * np.outer(u, u) + noise + noise.T
    expected = float(np.max(np.abs(np.linalg.eigvalsh(M))))
    assert np.isclose(spectral_norm(M), expected, rtol=1e-8, atol=0)
    G = rng.standard_normal((300, 300))
    G = G + G.T
    expected = float(np.max(np.abs(np.linalg.eigvalsh(G))))
    assert np.isclose(spectral_norm(G), expected, rtol=1e-12, atol=0)


def test_noise_sample_summary():
    obj = glm_instance()
    x = np.zeros(8)
    norms = noise_sample(Subsample(12), obj, x, np.random.default_rng(1), 50)
    assert norms.shape == (50,)
    assert norms.dtype == np.float64
    assert np.all(norms >= 0.0)
    # Each norm is that of one draw's noise, drawn in order from rng.
    rng = np.random.default_rng(1)
    est = estimate(Subsample(12), obj, x, rng)
    assert norms[0] == spectral_norm(est - obj.hessian(x))
    with pytest.raises(ValueError):
        noise_sample(Subsample(12), obj, x, np.random.default_rng(1), 1)
