"""Timing wrapper for ``hessavg.bench.execute_run``.

It lives in an importable module, not in ``__main__``, so that a process
pool can unpickle it by name under any start method.  A worker started by
``spawn`` or ``forkserver`` does not inherit the parent's tracer; it builds
its own when ``TRACE_ENV`` is set, so per-run spans and pool accounting keep
working if ``run_grid`` changes its start method.
"""

import os
import time

from hessavg import bench

from . import spans

TRACE_ENV = "PERFBENCH_TRACE"

# Captured at import, before the workload patches bench.execute_run.
_execute_run = bench.execute_run
_tracer = None


def set_tracer(tracer):
    """Make ``timed_execute_run`` record spans into tracer (None: stop)."""
    global _tracer
    _tracer = tracer
    if tracer is None:
        os.environ.pop(TRACE_ENV, None)
    else:
        os.environ[TRACE_ENV] = "1"


def timed_execute_run(spec):
    """``execute_run`` plus a ``_perfbench`` entry: start, end, pid, spans."""
    if _tracer is None and os.environ.get(TRACE_ENV) == "1":
        set_tracer(spans.Tracer().install())
    run_spans = []
    if _tracer is None:
        start = time.perf_counter()
        record = _execute_run(spec)
        end = time.perf_counter()
    else:
        with _tracer.isolated("%s:%d" % (spec.variant, spec.seed)) as run_spans:
            root = _tracer.wrap("bench.execute_run", _execute_run)
            start = time.perf_counter()
            record = root(spec)
            end = time.perf_counter()
    # perf_counter is CLOCK_MONOTONIC on Linux, so times from different
    # workers share one time base.
    record["_perfbench"] = {"start": start, "end": end, "pid": os.getpid(),
                            "spans": run_spans}
    return record
