"""The benchmark's workloads, output checks and end-to-end metrics.

Every workload is a closed loop: a run starts only when a worker is free.
Work is done in whole rounds until the timed wall time reaches the budget.

* A grid round runs ``bench.run_grid`` on a grid whose ``base_seed`` is
  ``ROUND_STRIDE * seed + round``.  Its set-up (datagen plus reference solve
  of each dataset) runs first, in this process, through the same cached call
  ``execute_run`` makes, so forked pool workers inherit it.
* A large-solve round is one ``solver.run`` per averaged variant.  The
  dataset is set up ``setups`` times before the loop: generate, CSV and
  binary write, binary load and reference solve, as ``hessavg generate``
  followed by ``hessavg solve`` would do.

Per-variant medians are taken per cell (coherence x oracle) and combined by
their geometric mean: pooled over cells, the median of a bimodal mix such as
low and high coherence would sit in the gap between the two modes.
"""

import hashlib
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from hessavg import bench, datagen, problem, solver

from . import hooks, spans

TOL = 1e-6
MAX_ITER = 999
REG_NU = 1e-3
ROUND_STRIDE = 1000
AVERAGED = ("unifavg", "weightavg")

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "tts_weightavg_s_p50": "s",
    "tts_unifavg_s_p50": "s",
    "tts_s_tail": "s",
    "iters_weightavg_p50": "count",
    "iters_unifavg_p50": "count",
    "converged_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def layer_unit(name):
    """Unit of a per-layer metric, read from its name."""
    if name.endswith(".calls"):
        return "count"
    if name.endswith("us_p50"):
        return "us"
    if name.endswith(".s") or name.endswith("tail_s"):
        return "s"
    return "ratio"


# Acceptance criteria 1-4 of tests/test_acceptance.py on the lower median of
# iterations per variant, checked wherever a grid has the same cell shape.
ACCEPTANCE_SHAPE = (1000, 100)  # (n, d)
BANDS = (
    ("criterion_1", ("low", "subsample"), lambda m:
        18 <= m["unifavg"] <= 40 and 18 <= m["weightavg"] <= 40
        and m["noavg"] >= 150),
    ("criterion_2", ("high", "subsample"), lambda m:
        m["weightavg"] <= 110 and 70 <= m["unifavg"] <= 180
        and m["noavg"] >= 200 and m["weightavg"] < m["unifavg"] < m["noavg"]),
    ("criterion_3", ("low", "none"), lambda m: 170 <= m["bfgs"] <= 270),
    ("criterion_4", ("low", "gauss"), lambda m:
        18 <= m["unifavg"] <= 35 and 18 <= m["weightavg"] <= 35
        and m["noavg"] >= 180),
)


@dataclass(frozen=True)
class GridWorkload:
    """``run_grid`` rounds over the given cells, all variants, s = d."""

    coherence_modes: tuple
    oracle_kinds: tuple
    include_bfgs: bool
    jobs: int
    slots_per_round: int
    trace_rounds: int
    n: int = 1000
    d: int = 100
    setups: int = 0  # 0: set up at the start of every round

    def grid(self, seed, rnd):
        return bench.ExperimentGrid(
            coherence_modes=list(self.coherence_modes), kappa_list=[1.0],
            s_list=[1.0], oracle_kinds=list(self.oracle_kinds),
            variants=list(bench.VARIANTS), num_seeds=self.slots_per_round,
            base_seed=ROUND_STRIDE * seed + rnd, tol=TOL, max_iter=MAX_ITER,
            n=self.n, d=self.d, reg_nu=REG_NU,
            include_bfgs=self.include_bfgs)

    def setup(self, seed, rnd, workdir):
        grid = self.grid(seed, rnd)
        keys = dict.fromkeys(
            (s.n, s.d, s.coherence, float(s.d) ** s.kappa_power, s.reg_nu,
             s.dataset_seed) for s in bench.expand_grid(grid))
        for key in keys:
            bench._shared_problem(*key)
        return grid, {}

    def step(self, grid, seed, rnd, tracer):
        """Run one grid; returns (bench records, runs, per-run timing)."""
        records = bench.run_grid(grid, jobs=self.jobs)["runs"]
        runs, timing = [], []
        for rec in records:
            meta = rec.pop("_perfbench")
            if tracer is not None:
                tracer.absorb(meta["spans"])
            timing.append((meta["start"], meta["end"], meta["pid"]))
            runs.append({key: rec[key] for key in (
                "coherence", "oracle", "variant", "seed", "iterations",
                "converged", "error")})
            runs[-1]["seconds"] = meta["end"] - meta["start"]
        return records, runs, timing


@dataclass(frozen=True)
class LargeSolve:
    """One large low-coherence instance solved repeatedly with s = d."""

    n: int = 8000
    d: int = 400
    setups: int = 3
    trace_rounds: int = 2

    def dataset_seed(self, seed):
        return bench.stable_seed(seed, "large-solve")

    def run_seeds(self, seed, rnd):
        """(variant, solver seed) of each run in round rnd."""
        return [(variant, bench.stable_seed(seed, "large-solve", variant, rnd))
                for variant in AVERAGED]

    def setup(self, seed, rnd, workdir):
        cfg = datagen.DataGenConfig(
            n=self.n, d=self.d, coherence_mode="low", kappa_A=float(self.d),
            reg_nu=REG_NU, seed=self.dataset_seed(seed))
        ds, _ = datagen.generate(cfg)
        base = os.path.join(workdir, "large-solve")
        bench.save_dataset_csv(base + ".csv", ds)
        bench.save_dataset_binary(base + ".bin", ds)
        loaded = bench.load_dataset(base + ".bin")
        # Unlinked before writeback, so no flush runs into the timed loop.
        os.remove(base + ".csv")
        os.remove(base + ".bin")
        obj = problem.RegularizedLogistic(loaded, REG_NU)
        ref = problem.solve_reference(obj, np.zeros(self.d))
        exact = (np.array_equal(loaded.A, ds.A)
                 and np.array_equal(loaded.b, ds.b))
        return (obj, ref), {"dataset_round_trip_exact": exact}

    def step(self, state, seed, rnd, tracer):
        obj, ref = state
        records, runs = [], []
        for variant, run_seed in self.run_seeds(seed, rnd):
            cfg = solver.SolverConfig(
                max_iter=MAX_ITER, tol_hstar=TOL,
                oracle=bench.oracle_for_name("subsample", self.d),
                weights=bench.weights_for_variant(variant), seed=run_seed)
            rec = {"variant": variant, "seed": run_seed, "iterations": None,
                   "converged": False, "error": None}
            if tracer is not None:
                tracer.run_id = "%s:%d" % (variant, run_seed)
            start = time.perf_counter()
            try:
                result = solver.run(obj, np.zeros(self.d), cfg, ref)
                rec.update(iterations=result.iterations_to_tol,
                           converged=result.converged)
            except Exception as exc:  # reported as a failed run
                rec["error"] = "%s: %s" % (type(exc).__name__, exc)
            end = time.perf_counter()
            if tracer is not None:
                tracer.run_id = None
            records.append(rec)
            runs.append(dict(rec, coherence="low", oracle="subsample",
                             seconds=end - start))
        return records, runs, None


def make_workloads(jobs):
    """The named workloads; jobs maps a name to its worker process count."""
    return {
        "subsample-grid": GridWorkload(
            coherence_modes=("low", "high"), oracle_kinds=("subsample",),
            include_bfgs=True, jobs=jobs["subsample-grid"],
            slots_per_round=4, trace_rounds=4),
        "sketch-grid": GridWorkload(
            coherence_modes=("low",),
            oracle_kinds=("gauss", "countsketch", "less"),
            include_bfgs=False, jobs=jobs["sketch-grid"],
            slots_per_round=1, trace_rounds=3),
        "large-solve": LargeSolve(),
    }


@dataclass
class Pass:
    """What one sequence of rounds produced."""

    setup_s: list
    walls: list
    round0_records: list  # program output of round 0, for the runs hash
    runs: list
    grids: list  # (wall_s, jobs, [(start, end, pid)]) per run_grid call
    checks: dict


def execute(w, seed, workdir, budget_s=None, rounds=None, tracer=None):
    """Set up and run rounds until budget_s of timed work or ``rounds``."""
    p = Pass([], [], [], [], [], {})

    def set_up(rnd):
        start = time.perf_counter()
        state, checks = w.setup(seed, rnd, workdir)
        p.setup_s.append(time.perf_counter() - start)
        for name, ok in checks.items():
            p.checks[name] = p.checks.get(name, True) and ok
        return state

    for _ in range(w.setups):
        state = None  # so that two set-ups never overlap in memory
        state = set_up(0)
    rnd = 0
    while rnd < rounds if rounds is not None else sum(p.walls) < budget_s:
        if w.setups == 0:
            state = set_up(rnd)
        start = time.perf_counter()
        records, runs, timing = w.step(state, seed, rnd, tracer)
        wall = time.perf_counter() - start
        p.walls.append(wall)
        if rnd == 0:
            p.round0_records = records
        p.runs.extend(runs)
        if timing is not None:
            p.grids.append((wall, w.jobs, timing))
        rnd += 1
    return p


def _cell(run):
    return run["coherence"], run["oracle"]


def variant_p50(runs, variant, key):
    """Geometric mean over cells of the cell median of key, converged runs."""
    by_cell = {}
    for r in runs:
        if r["variant"] == variant and r["converged"]:
            by_cell.setdefault(_cell(r), []).append(r[key])
    if not by_cell:
        return 0.0
    return statistics.geometric_mean(
        statistics.median(v) for v in by_cell.values())


def tail(values):
    """(value, percentile, samples beyond) at the highest percentile that
    leaves at least ten samples beyond it; the median when there are fewer
    than eleven samples."""
    xs = sorted(values)
    if not xs:
        return 0.0, 0.0, 0
    if len(xs) >= 11:
        value, pct = xs[-11], 100.0 * (len(xs) - 10) / len(xs)
    else:
        value, pct = statistics.median(xs), 50.0
    return value, pct, sum(x > value for x in xs)


def peak_rss_mib():
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def lower_median(values):
    """The acceptance tests' median: inverted CDF, non-converged as inf."""
    arr = np.array([np.inf if v is None else float(v) for v in values])
    return float(np.quantile(arr, 0.5, method="inverted_cdf"))


def output_checks(w, runs):
    """Acceptance bands on every matching cell, plus error-free runs."""
    checks = {"runs_error_free": all(r["error"] is None for r in runs)}
    if not isinstance(w, GridWorkload) or (w.n, w.d) != ACCEPTANCE_SHAPE:
        return checks
    for name, cell, band in BANDS:
        by_variant = {}
        for r in runs:
            if _cell(r) == cell:
                by_variant.setdefault(r["variant"], []).append(r["iterations"])
        if by_variant:
            checks[name] = bool(band({v: lower_median(its)
                                      for v, its in by_variant.items()}))
    return checks


def runs_sha256(records):
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def run_workload(w, seed, seconds, trace, workdir, spans_path=None):
    """Run one workload; returns (report, result) as printable dicts."""
    saved = bench.execute_run
    bench.execute_run = hooks.timed_execute_run
    try:
        if trace:
            w = replace(w, setups=min(w.setups, 1))
            untraced = execute(w, seed, workdir, rounds=w.trace_rounds)
            bench._shared_problem.cache_clear()
            tracer = spans.Tracer().install()
            hooks.set_tracer(tracer)
            try:
                traced = execute(w, seed, workdir, rounds=w.trace_rounds,
                                 tracer=tracer)
            finally:
                hooks.set_tracer(None)
                tracer.uninstall()
            if spans_path is not None:
                tracer.write(spans_path)
            values = spans.layer_metrics(tracer.spans, traced.grids)
            values["trace.overhead_frac"] = (
                sum(traced.walls) / sum(untraced.walls) - 1.0)
            metrics = {k: {"value": v, "unit": layer_unit(k)}
                       for k, v in values.items()}
            passes = [untraced, traced]
        else:
            p = execute(w, seed, workdir, budget_s=seconds)
            passes = [p]
    finally:
        bench.execute_run = saved

    runs = [r for p in passes for r in p.runs]
    failed = sum(1 for r in runs if r["error"] is not None
                 or not r["converged"])
    checks = output_checks(w, runs)
    for p in passes:
        checks.update(p.checks)
    p = passes[-1]
    seconds_all = [r["seconds"] for r in p.runs if r["converged"]]
    tail_value, tail_pct, tail_beyond = tail(seconds_all)
    report = {
        "rounds": len(p.walls),
        "runs": len(p.runs),
        "timed_s": sum(p.walls),
        "round0_runs_sha256": runs_sha256(p.round0_records),
        "checks": checks,
        "failed_frac": failed / len(runs),
        "tts_s_tail": {"percentile": tail_pct, "beyond": tail_beyond,
                       "samples": len(seconds_all)},
        "iters_lower_median": {
            "%s/%s/%s" % (cell + (v,)): lower_median(
                [r["iterations"] for r in p.runs
                 if _cell(r) == cell and r["variant"] == v])
            for cell in sorted({_cell(r) for r in p.runs})
            for v in sorted({r["variant"] for r in p.runs if _cell(r) == cell})
        },
    }
    if any(r["variant"] == "noavg" for r in p.runs):
        report["tts_noavg_s_p50"] = variant_p50(p.runs, "noavg", "seconds")
        report["iters_noavg_p50"] = variant_p50(p.runs, "noavg", "iterations")
    if not trace:
        values = {
            "runs_per_s": len(p.runs) / sum(p.walls),
            "tts_weightavg_s_p50": variant_p50(p.runs, "weightavg", "seconds"),
            "tts_unifavg_s_p50": variant_p50(p.runs, "unifavg", "seconds"),
            "tts_s_tail": tail_value,
            "iters_weightavg_p50": variant_p50(p.runs, "weightavg",
                                               "iterations"),
            "iters_unifavg_p50": variant_p50(p.runs, "unifavg", "iterations"),
            "converged_frac": sum(r["converged"] for r in p.runs) / len(p.runs),
            "setup_s": statistics.median(p.setup_s),
            "peak_rss_mb": peak_rss_mib(),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    result = {"correct": all(checks.values()), "attempted": len(runs),
              "failed": failed, "metrics": metrics}
    return report, result
