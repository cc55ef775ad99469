"""Run solves on one BLAS thread.

One solver iteration is a handful of small kernels (a d x d Cholesky, an
s x d Gram, n-vector margins).  At these sizes an OpenBLAS thread pool
costs more in wake-ups than it gains, and parallel runs of a grid would
oversubscribe the CPUs.  ``single_thread`` sets every OpenBLAS pool loaded
in this process to one thread and restores the saved counts on exit.  It
works as a context manager and as a decorator.  Without OpenBLAS (MKL,
Accelerate) it does nothing.
"""

import contextlib
import ctypes
import os
import threading

import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS before discovery)

# (get, set) symbol pairs: numpy's 64-bit-integer build, scipy's build, and
# a plain system OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_POOLS = None  # [(get, set)] per loaded pool; discovered on first use
_lock = threading.Lock()
_depth = 0
_saved = []


def _openblas_paths() -> list:
    """Paths of the OpenBLAS libraries mapped into this process (Linux only)."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6}
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


def _discover() -> list:
    pools = []
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a mapping whose file was since deleted
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                setter = getattr(lib, set_name)
                setter.argtypes = [ctypes.c_int]
                pools.append((getattr(lib, get_name), setter))
                break
    return pools


def pools() -> list:
    """(get_num_threads, set_num_threads) for each OpenBLAS pool loaded."""
    global _POOLS
    if _POOLS is None:
        _POOLS = _discover()
    return _POOLS


@contextlib.contextmanager
def single_thread():
    """Hold every BLAS pool at one thread; nested entries share one save."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = [(set_threads, get()) for get, set_threads in pools()]
            for set_threads, _ in _saved:
                set_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_threads, count in _saved:
                    set_threads(count)
