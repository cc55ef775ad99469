"""In-memory spans around the public functions of hessavg.

A ``Tracer`` replaces each traced function by a wrapper under every name a
caller resolves it by (``hessavg.solver.estimate`` as well as
``hessavg.oracles.estimate``), and the traced methods on
``RegularizedLogistic``.  Each call appends one span
``[name, start, end, parent, run, info]`` to ``Tracer.spans``; ``parent`` is
the index of the enclosing span and ``run`` the id shared by the spans of one
solver run.  Nothing leaves memory until ``write`` is called at the end.

``layer_metrics`` turns a span list into the per-layer metrics.
"""

import contextlib
import functools
import json
import statistics
import sys
import time

from hessavg import averaging, bench, datagen, oracles, problem, solver

NAME, START, END, PARENT, RUN, INFO = range(6)

ORACLE_KINDS = {
    oracles.Subsample: "subsample",
    oracles.GaussianSketch: "gauss",
    oracles.CountSketch: "countsketch",
    oracles.LessUniform: "less",
    oracles.Exact: "exact",
}
SKETCH_KINDS = ("gauss", "countsketch", "less")
ALL_KINDS = ("subsample",) + SKETCH_KINDS
RUN_SPANS = ("solver.run", "solver.bfgs_run")


def _kind_label(prefix):
    return lambda args: "%s.%s" % (prefix, ORACLE_KINDS[type(args[0])])


def _line_search_info(args, out):
    mu, backtracks = out
    return {"failed": mu is None, "backtracks": backtracks}


# (module, function, span name or label(args), info(args, result))
FUNCTIONS = (
    (datagen, "generate", "datagen.generate", None),
    (problem, "solve_reference", "problem.solve_reference", None),
    (problem, "hstar_error", "problem.hstar_error", None),
    (oracles, "estimate", _kind_label("oracles.estimate"), None),
    (oracles, "sketch_matrix", _kind_label("oracles.sketch_matrix"), None),
    (averaging, "update", "averaging.update", None),
    (solver, "newton_direction", "solver.newton_direction",
     lambda args, out: {"skipped": out is None}),
    (solver, "line_search", "solver.line_search", _line_search_info),
    (solver, "run", "solver.run",
     lambda args, out: {"iterations": len(out.records)}),
    (solver, "bfgs_run", "solver.bfgs_run",
     lambda args, out: {"iterations": len(out.records)}),
    (bench, "run_grid", "bench.run_grid", None),
    (bench, "save_dataset_csv", "bench.save_dataset_csv", None),
    (bench, "save_dataset_binary", "bench.save_dataset_binary", None),
    (bench, "load_dataset", "bench.load_dataset", None),
)
METHODS = (
    (problem.RegularizedLogistic, "value", "problem.value"),
    (problem.RegularizedLogistic, "gradient", "problem.gradient"),
    (problem.RegularizedLogistic, "curvature_weights",
     "problem.curvature_weights"),
    (problem.RegularizedLogistic, "glm_square_root", "problem.glm_square_root"),
)


class Tracer:
    """Records spans for the functions it patches until ``uninstall``."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []
        self._patched = []

    def wrap(self, label, fn, info=None):
        """fn wrapped to record one span per call."""
        name_of = label if callable(label) else (lambda args: label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_of(args), time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self.run_id,
                    None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[INFO] = info(args, out)
            return out

        return traced

    def install(self):
        """Patch every name under which hessavg code resolves a target."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hessavg" or name.startswith("hessavg.")]
        for module, attr, label, info in FUNCTIONS:
            original = getattr(module, attr)
            traced = self.wrap(label, original, info)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, traced)
        for cls, attr, label in METHODS:
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self.wrap(label, original))
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    @contextlib.contextmanager
    def isolated(self, run_id):
        """Collect the spans of one run in a fresh list, yielded to the caller.

        Pool workers inherit the parent's spans and open stack when forked;
        isolating each run keeps indices local so ``absorb`` can renumber them.
        """
        saved = self.spans, self._stack, self.run_id
        local = []
        self.spans, self._stack, self.run_id = local, [], run_id
        try:
            yield local
        finally:
            self.spans, self._stack, self.run_id = saved

    def absorb(self, spans):
        """Append spans recorded by ``isolated``, shifting parent indices."""
        offset = len(self.spans)
        for span in spans:
            span = list(span)
            if span[PARENT] is not None:
                span[PARENT] += offset
            self.spans.append(span)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run",
                                  "info"], "spans": self.spans}, fh)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][START], spans[c][END])
                             for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans, grids):
    """Per-layer metrics from spans plus the per-grid pool timings.

    ``grids`` holds one ``(wall_s, jobs, runs)`` per run_grid call, where
    ``runs`` lists ``(start, end, pid)`` per run.  A layer the workload does
    not exercise reports 0 for every metric.
    """
    selfs = self_times(spans)
    durs, self_by = {}, {}
    for span, self_s in zip(spans, selfs):
        durs.setdefault(span[NAME], []).append(span[END] - span[START])
        self_by.setdefault(span[NAME], []).append(self_s)

    def calls(name):
        return len(durs.get(name, ()))

    def us_p50(name):
        return _median(durs.get(name, []), 1e6)

    def infos(name):
        return [s[INFO] for s in spans if s[NAME] == name]

    m = {}
    for kind in ALL_KINDS:
        name = "oracles.estimate." + kind
        m[name + ".calls"] = calls(name)
        m[name + ".us_p50"] = us_p50(name)
        m[name + ".self_us_p50"] = _median(self_by.get(name, []), 1e6)
    for kind in SKETCH_KINDS:
        m["oracles.sketch_matrix.%s.us_p50" % kind] = us_p50(
            "oracles.sketch_matrix." + kind)
    for name in ("value", "gradient"):
        m["problem.%s.calls" % name] = calls("problem." + name)
        m["problem.%s.us_p50" % name] = us_p50("problem." + name)
    for name in ("curvature_weights", "glm_square_root", "hstar_error"):
        m["problem.%s.us_p50" % name] = us_p50("problem." + name)
    m["problem.solve_reference.s"] = _median(durs.get(
        "problem.solve_reference", []))

    nd = infos("solver.newton_direction")
    m["solver.newton_direction.calls"] = len(nd)
    m["solver.newton_direction.us_p50"] = us_p50("solver.newton_direction")
    m["solver.newton_direction.skip_frac"] = (
        sum(i["skipped"] for i in nd) / len(nd) if nd else 0.0)
    ls = infos("solver.line_search")
    m["solver.line_search.calls"] = len(ls)
    m["solver.line_search.us_p50"] = us_p50("solver.line_search")
    m["solver.line_search.backtracks_per_call"] = (
        sum(i["backtracks"] for i in ls) / len(ls) if ls else 0.0)
    m["solver.line_search.fail_frac"] = (
        sum(i["failed"] for i in ls) / len(ls) if ls else 0.0)
    run_total = sum(durs.get("solver.run", []))
    m["solver.run.calls"] = calls("solver.run")
    m["solver.run.self_frac"] = (
        sum(self_by.get("solver.run", [])) / run_total if run_total else 0.0)

    # f/g evaluations made inside a solver loop, per iteration of that loop.
    loop_of = []
    for span in spans:
        parent = span[PARENT]
        if span[NAME] in RUN_SPANS:
            loop_of.append(span[NAME])
        else:
            loop_of.append(loop_of[parent] if parent is not None else None)
    fg = sum(1 for span, loop in zip(spans, loop_of) if loop is not None
             and span[NAME] in ("problem.value", "problem.gradient"))
    iters = sum(i["iterations"] for name in RUN_SPANS for i in infos(name))
    m["solver.fg_evals_per_iter"] = fg / iters if iters else 0.0
    m["solver.bfgs_run.s"] = _median(durs.get("solver.bfgs_run", []))

    m["averaging.update.calls"] = calls("averaging.update")
    m["averaging.update.us_p50"] = us_p50("averaging.update")

    busy = sum(end - start for _, _, runs in grids for start, end, _ in runs)
    capacity = sum(wall * jobs for wall, jobs, _ in grids)
    m["bench.pool.busy_frac"] = busy / capacity if capacity else 0.0
    m["bench.pool.tail_s"] = _median([pool_tail(runs) for _, _, runs in grids])
    for name in ("save_dataset_csv", "save_dataset_binary", "load_dataset"):
        m["bench.%s.s" % name] = _median(durs.get("bench." + name, []))
    m["datagen.generate.s"] = _median(durs.get("datagen.generate", []))
    return m


def pool_tail(runs):
    """Seconds from the first worker going idle to the last run finishing."""
    last_end = {}
    for _, end, pid in runs:
        last_end[pid] = max(end, last_end.get(pid, end))
    if not last_end:
        return 0.0
    return max(last_end.values()) - min(last_end.values())
