"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench
"""

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hessavg import bench  # noqa: E402

from perfbench import hooks, spans, workloads  # noqa: E402


def tiny_workloads():
    full = workloads.make_workloads(
        {"subsample-grid": 2, "sketch-grid": 1, "large-solve": 1})
    out = {}
    for name, w in full.items():
        if isinstance(w, workloads.GridWorkload):
            out[name] = replace(w, n=80, d=8, slots_per_round=1,
                                trace_rounds=1)
        else:
            out[name] = replace(w, n=200, d=10, setups=2, trace_rounds=1)
    return out


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("name", sorted(tiny_workloads()))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(name, trace, tmp_path):
    w = tiny_workloads()[name]
    report, result = workloads.run_workload(w, 3, 0.5, trace, str(tmp_path))
    line = json.loads(json.dumps(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert report["checks"]["runs_error_free"]
    want = declared("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == want
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))


def test_traced_call_counts_repeat(tmp_path):
    w = tiny_workloads()["subsample-grid"]
    counts = []
    for _ in range(2):
        _, result = workloads.run_workload(w, 4, 0.5, True, str(tmp_path))
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["oracles.estimate.subsample.calls"] > 0
    assert counts[0]["oracles.estimate.gauss.calls"] == 0


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children [1, 3] and [2, 5], which overlap, and
    # [9, 12], which runs past it; [1, 3] has child [1.5, 2].
    tree = [
        ["root", 0.0, 10.0, None, "r", None],
        ["a", 1.0, 3.0, 0, "r", None],
        ["b", 2.0, 5.0, 0, "r", None],
        ["c", 9.0, 12.0, 0, "r", None],
        ["a1", 1.5, 2.0, 1, "r", None],
        ["other", 4.0, 6.0, None, None, None],
    ]
    assert spans.self_times(tree) == pytest.approx(
        [10.0 - 4.0 - 1.0, 2.0 - 0.5, 3.0, 3.0, 0.5, 2.0])


def test_seed_changes_run_seeds_not_shape():
    for w in workloads.make_workloads(
            {"subsample-grid": 2, "sketch-grid": 1, "large-solve": 1}
            ).values():
        if isinstance(w, workloads.GridWorkload):
            a, b = (bench.expand_grid(w.grid(seed, 0)) for seed in (1, 2))
            shape = [[(s.coherence, s.oracle, s.variant, s.slot, s.n, s.d)
                      for s in specs] for specs in (a, b)]
            seeds = [{s.seed for s in specs} | {s.dataset_seed for s in specs}
                     for specs in (a, b)]
        else:
            a, b = (w.run_seeds(seed, 0) for seed in (1, 2))
            shape = [[v for v, _ in runs] for runs in (a, b)]
            seeds = [{s for _, s in runs} | {w.dataset_seed(seed)}
                     for seed, runs in ((1, a), (2, b))]
        assert shape[0] == shape[1]
        assert not seeds[0] & seeds[1]


def test_timing_wrapper_works_in_a_spawned_worker():
    w = tiny_workloads()["sketch-grid"]
    spec = bench.expand_grid(w.grid(5, 0))[0]
    ctx = multiprocessing.get_context("spawn")
    hooks.set_tracer(spans.Tracer())
    try:
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            record = pool.submit(hooks.timed_execute_run, spec).result(
                timeout=120)
    finally:
        hooks.set_tracer(None)
    meta = record["_perfbench"]
    assert record["error"] is None and record["converged"]
    assert meta["pid"] != os.getpid() and meta["end"] > meta["start"]
    names = {span[spans.NAME] for span in meta["spans"]}
    assert {"bench.execute_run", "solver.run", "oracles.estimate.gauss"} <= names
