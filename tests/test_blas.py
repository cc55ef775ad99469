import hashlib

import numpy as np
import pytest

from hessavg import _blas
from hessavg.averaging import LastOnly, LogPower
from hessavg.datagen import COHERENCE_MODES, DataGenConfig, generate
from hessavg.oracles import Exact, GaussianSketch
from hessavg.problem import (QuadraticTest, ReferenceSolution,
                             RegularizedLogistic, solve_reference)
from hessavg.solver import SolverConfig, run


def thread_counts():
    return [get() for get, _ in _blas.pools()]


def set_threads(count):
    for _, set_count in _blas.pools():
        set_count(count)


@pytest.fixture
def two_threads():
    """Every pool at 2 threads for the test; the caller's counts come back after."""
    saved = thread_counts()
    set_threads(2)
    yield
    for (_, set_count), count in zip(_blas.pools(), saved):
        set_count(count)


class ProbedQuadratic(QuadraticTest):
    """Records the BLAS thread counts seen each time the Hessian is asked for."""

    def __init__(self, Q, c, fail=False):
        super().__init__(Q, c)
        self.seen = []
        self.fail = fail

    def hessian(self, x, margins=None):
        self.seen.append(thread_counts())
        if self.fail:
            raise RuntimeError("oracle failure")
        return super().hessian(x)


def quadratic_run(fail=False):
    Q = np.diag([1.0, 2.0, 3.0])
    obj = ProbedQuadratic(Q, np.ones(3), fail=fail)
    ref = ReferenceSolution(x_star=np.linalg.solve(Q, np.ones(3)), h_star=Q)
    config = SolverConfig(oracle=Exact(), weights=LastOnly(), max_iter=3)
    run(obj, np.zeros(3), config, ref)
    return obj


def test_pools_found():
    # numpy and scipy both ship OpenBLAS in their wheels.
    assert _blas.pools()


def test_run_uses_one_thread(two_threads):
    obj = quadratic_run()
    assert obj.seen
    assert all(counts == [1] * len(_blas.pools()) for counts in obj.seen)


def test_run_restores_caller_counts(two_threads):
    quadratic_run()
    assert thread_counts() == [2] * len(_blas.pools())


def test_counts_restored_when_run_raises(two_threads):
    with pytest.raises(RuntimeError, match="oracle failure"):
        quadratic_run(fail=True)
    assert thread_counts() == [2] * len(_blas.pools())


def test_nested_entries_restore_once(two_threads):
    with _blas.single_thread():
        with _blas.single_thread():
            pass
        assert thread_counts() == [1] * len(_blas.pools())
    assert thread_counts() == [2] * len(_blas.pools())


def test_no_pools_does_nothing(two_threads, monkeypatch):
    handles = _blas.pools()
    monkeypatch.setattr(_blas, "_POOLS", [])
    with _blas.single_thread():
        assert [get() for get, _ in handles] == [2] * len(handles)


def test_results_independent_of_caller_threads(two_threads):
    ds, _ = generate(DataGenConfig(n=1000, d=50, coherence_mode="low",
                                   kappa_A=10.0, reg_nu=1e-3, seed=3))
    obj = RegularizedLogistic(ds, 1e-3)
    config = SolverConfig(oracle=GaussianSketch(100), weights=LogPower(),
                          max_iter=100, tol_hstar=1e-8, seed=5)
    outputs = []
    for count in (2, 1):
        set_threads(count)
        ref = solve_reference(obj, np.zeros(50))
        result = run(obj, np.zeros(50), config, ref)
        outputs.append((result.records, result.final_x.tobytes(),
                        ref.x_star.tobytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("mode", COHERENCE_MODES)
def test_generate_independent_of_caller_threads(two_threads, mode):
    # At this size the QR and products split across threads differently.
    cfg = DataGenConfig(n=8000, d=400, coherence_mode=mode, kappa_A=400.0,
                        reg_nu=1e-3, seed=1)
    digests = []
    for count in (2, 1):
        set_threads(count)
        ds, _ = generate(cfg)
        digests.append(hashlib.sha256(ds.A.tobytes() + ds.b.tobytes())
                       .hexdigest())
    assert digests[0] == digests[1]
