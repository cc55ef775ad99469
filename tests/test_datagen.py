import numpy as np
import pytest
from scipy.special import expit

from hessavg._blas import single_thread
from hessavg.datagen import (DataGenConfig, coherence, condition_number,
                             generate)


def test_config_validation():
    ok = dict(n=50, d=5, coherence_mode="low", kappa_A=2.0, reg_nu=0.0, seed=0)
    DataGenConfig(**ok)
    with pytest.raises(ValueError):
        DataGenConfig(**{**ok, "d": 60})
    with pytest.raises(ValueError):
        DataGenConfig(**{**ok, "d": 0})
    with pytest.raises(ValueError):
        DataGenConfig(**{**ok, "coherence_mode": "medium"})
    with pytest.raises(ValueError):
        DataGenConfig(**{**ok, "kappa_A": 0.5})
    with pytest.raises(ValueError):
        DataGenConfig(**{**ok, "reg_nu": -1.0})


@pytest.mark.parametrize("field", ["kappa_A", "reg_nu"])
def test_config_rejects_nan(field):
    ok = dict(n=50, d=5, coherence_mode="low", kappa_A=2.0, reg_nu=0.0, seed=0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=field):
            DataGenConfig(**{**ok, field: value})


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_low_coherence_band(seed):
    cfg = DataGenConfig(n=1000, d=100, coherence_mode="low", kappa_A=100.0,
                        reg_nu=1e-3, seed=seed)
    ds, _ = generate(cfg)
    assert 1.0 <= coherence(ds.A) <= 3.0
    assert ds.A.shape == (1000, 100)
    assert set(np.unique(ds.b)) <= {-1, 1}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_high_coherence_band(seed):
    cfg = DataGenConfig(n=1000, d=100, coherence_mode="high", kappa_A=100.0,
                        reg_nu=1e-3, seed=seed)
    ds, _ = generate(cfg)
    # Theoretical ceiling is n/d = 10; the heavy-tailed row scaling should
    # get close to it.
    assert 5.0 <= coherence(ds.A) <= 10.0 + 1e-9


@pytest.mark.parametrize("mode", ["low", "high"])
def test_condition_number_is_exact(mode):
    cfg = DataGenConfig(n=400, d=40, coherence_mode=mode, kappa_A=73.0,
                        reg_nu=1e-3, seed=1)
    ds, _ = generate(cfg)
    assert abs(condition_number(ds.A) - 73.0) / 73.0 <= 1e-12


def test_generation_is_deterministic():
    cfg = DataGenConfig(n=150, d=10, coherence_mode="low", kappa_A=5.0,
                        reg_nu=1e-3, seed=9)
    ds1, x_true1 = generate(cfg)
    ds2, x_true2 = generate(cfg)
    assert np.array_equal(ds1.A, ds2.A)
    assert np.array_equal(ds1.b, ds2.b)
    assert np.array_equal(x_true1, x_true2)


def test_different_seeds_differ():
    base = dict(n=150, d=10, coherence_mode="low", kappa_A=5.0,
                reg_nu=1e-3)
    ds1, _ = generate(DataGenConfig(seed=0, **base))
    ds2, _ = generate(DataGenConfig(seed=1, **base))
    assert not np.array_equal(ds1.A, ds2.A)


def test_report_fields():
    cfg = DataGenConfig(n=90, d=6, coherence_mode="low", kappa_A=3.0,
                        reg_nu=0.0, seed=12)
    ds, x_true = generate(cfg)
    assert x_true.shape == (6,)
    assert coherence(ds.A) >= 1.0
    assert condition_number(ds.A) >= 1.0


def test_coherence_of_flat_matrix_is_one():
    # Orthonormal columns with identical row norms: coherence exactly 1.
    U = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, -1.0]]) / 2.0
    assert np.isclose(coherence(U), 1.0, rtol=1e-12, atol=0)


def test_coherence_bounds_on_random_matrix():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((60, 6))
    c = coherence(A)
    assert 1.0 <= c <= 10.0 + 1e-9


def test_coherence_rejects_rank_deficient():
    A = np.ones((8, 3))
    A[:, 2] = 0.0
    with pytest.raises(ValueError):
        coherence(A)


def test_condition_number_matches_singular_values():
    rng = np.random.default_rng(3)
    U, _ = np.linalg.qr(rng.standard_normal((30, 4)))
    s = np.array([8.0, 4.0, 2.0, 1.0])
    A = U * s
    assert np.isclose(condition_number(A), 8.0, rtol=1e-12, atol=0)


@single_thread()
def generate_with_numpy_qr(config):
    """generate's draws, with each orthonormal factor from numpy's QR."""
    rng = np.random.default_rng(config.seed)
    n, d = config.n, config.d
    U, _ = np.linalg.qr(rng.standard_normal((n, d)))
    if config.coherence_mode == "high":
        z = rng.gamma(shape=0.5, scale=2.0, size=n)
        assert np.all(z > 0.0)
        U, _ = np.linalg.qr(U / np.sqrt(z)[:, None])
    A = U * np.linspace(1.0, config.kappa_A, d)
    x_true = rng.standard_normal(d) / np.sqrt(d)
    b = np.where(rng.random(n) < expit(A @ x_true), 1, -1)
    return A, b, x_true


@pytest.mark.parametrize("mode", ["low", "high"])
@pytest.mark.parametrize("n, d", [(300, 30), (1001, 499)])
def test_generate_equals_numpy_qr_reference(n, d, mode):
    cfg = DataGenConfig(n=n, d=d, coherence_mode=mode, kappa_A=100.0,
                        reg_nu=1e-3, seed=n + d)
    ds, x_true = generate(cfg)
    A, b, x_ref = generate_with_numpy_qr(cfg)
    assert ds.A.flags.c_contiguous
    assert ds.A.tobytes() == A.tobytes()
    assert np.array_equal(ds.b, b)
    assert x_true.tobytes() == x_ref.tobytes()
