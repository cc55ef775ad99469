"""A/B timer: microseconds per call of each solver layer, in two trees.

    python3 tools/ab_timer.py PARENT_TREE CHANGE_TREE [--pairs 10]

Each pair starts one fresh worker process per tree at each size, taking the
trees in turn and alternating which goes first from pair to pair.  A worker
imports the package from its tree's ``src/`` (this file's code times both
trees, so only the package differs), runs at one BLAS thread, sets up a
low-coherence dataset with kappa_A = d and reg_nu = 1e-3, and times each
layer over a fixed number of calls after three warm-up calls: 301 at
1000 x 100 with s = 100, and 21 at 8000 x 400 with s = 400.
``solve_reference``, which takes about 5 ms and 0.4 s at these sizes, is
timed over 31 and 5 calls.  The worker's result for a layer is the median
of its calls.

The layers are ``estimate`` of each oracle kind at x*, ``_gram`` of an
s x d matrix, ``update`` (uniform weights), ``newton_direction``,
``hstar_error``, ``value``, ``gradient``, ``curvature_weights`` and
``solve_reference`` from x = 0 (a damped Newton solve through the solver's
loop, whose searches warm-start as the solver's do; a tree where the
reference solve runs its own loop searches from j = 0 at every step), and
four line searches from x = 0 along the exact Newton direction p there:

* ``line_search.unit``: p itself, accepted at j = 0;
* ``line_search.backtrack.start0``: 2^7 p, which takes j* = 5 at both
  sizes, searched from j = 0;
* ``line_search.backtrack.warm``: 2^7 p, searched from j* - 1, where the
  solver loop starts after a step that took j*: it walks up;
* ``line_search.backtrack.above``: 2^7 p, searched from j* + 2: it walks
  down to j* and stops at the decisive rejection below.

A tree whose ``line_search`` takes no ``start`` scans from 0 in the last
two as well.

The script prints one JSON object.  For each size and layer it gives each
side's median, quartiles and IQR over the workers' results, the workers'
results themselves, and how many pairs the change won (its result below the
parent's; ties count for neither side).  Under ``counts`` it gives each
search's j and its calls of ``value``, as each tree's workers all counted
them, or null where two workers of one tree disagree.
"""

import argparse
import inspect
import json
import os
import subprocess
import sys
import time

import numpy as np

# (n, d, s, timed calls per layer, timed calls of solve_reference)
SIZES = {"1000x100": (1000, 100, 100, 301, 31),
         "8000x400": (8000, 400, 400, 21, 5)}
WARMUP = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ORACLES = ("exact", "subsample", "gauss", "countsketch", "less")
BACKTRACK_SCALE = 128.0


def worker(tree, size):
    """Time every layer in this process; return (medians in us, counts)."""
    sys.path.insert(0, os.path.join(tree, "src"))
    from hessavg import averaging, bench, oracles, problem, solver
    from hessavg.datagen import DataGenConfig, generate

    n, d, s, calls, solve_calls = SIZES[size]
    ds, _ = generate(DataGenConfig(n=n, d=d, coherence_mode="low",
                                   kappa_A=float(d), reg_nu=1e-3, seed=5))
    obj = problem.RegularizedLogistic(ds, 1e-3)
    ref = problem.solve_reference(obj, np.zeros(d))
    x = ref.x_star
    m = obj.margins(x)
    h = obj.hessian(x, margins=m)
    g = obj.gradient(x, margins=m)
    rng = np.random.default_rng(12)
    state = averaging.update(averaging.initial_state(d), averaging.Uniform(),
                             h)
    r = np.sqrt(obj.curvature_weights(x, margins=m)[:s] / s)
    rows = r[:, None] * ds.A[:s]

    x0 = np.zeros(d)
    m0 = obj.margins(x0)
    f0, g0 = obj.value(x0, margins=m0), obj.gradient(x0, margins=m0)
    p = solver.newton_direction(obj.hessian(x0, margins=m0), g0)
    far = BACKTRACK_SCALE * p
    warm = "start" in inspect.signature(solver.line_search).parameters

    def search(direction, start=0):
        kwargs = dict(f0=f0, g0=g0, m0=m0)
        if warm:
            kwargs["start"] = start
        return solver.line_search(obj, x0, direction, **kwargs)

    j_far = search(far)[1]
    layers = {"estimate." + name: (
        lambda kind=bench.oracle_for_name(name, s):
        oracles.estimate(kind, obj, x, rng, margins=m)) for name in ORACLES}
    layers.update({
        "_gram": lambda: problem._gram(rows, obj.reg_nu),
        "update": lambda: averaging.update(state, averaging.Uniform(), h),
        "newton_direction": lambda: solver.newton_direction(state.h_tilde, g),
        "line_search.unit": lambda: search(p),
        "line_search.backtrack.start0": lambda: search(far),
        "line_search.backtrack.warm": lambda: search(far, j_far - 1),
        "line_search.backtrack.above": lambda: search(far, j_far + 2),
        "hstar_error": lambda: problem.hstar_error(x, ref),
        "value": lambda: obj.value(x, margins=m),
        "gradient": lambda: obj.gradient(x, margins=m),
        "curvature_weights": lambda: obj.curvature_weights(x, margins=m),
        "solve_reference": lambda: problem.solve_reference(obj, x0),
    })
    medians = {}
    for name, call in layers.items():
        for _ in range(WARMUP):
            call()
        times = []
        for _ in range(solve_calls if name == "solve_reference" else calls):
            t0 = time.perf_counter_ns()
            call()
            times.append(time.perf_counter_ns() - t0)
        medians[name] = float(np.median(times)) / 1e3

    counts = {}
    value = obj.value
    for name in ("line_search.unit", "line_search.backtrack.start0",
                 "line_search.backtrack.warm", "line_search.backtrack.above"):
        made = []
        obj.value = lambda *a, **k: made.append(1) or value(*a, **k)
        _, j = layers[name]()
        del obj.value
        counts[name] = {"j": j, "value_calls": len(made)}
    return medians, counts


def run_worker(tree, size):
    """One fresh worker process of tree at size, at one BLAS thread."""
    env = dict(os.environ, PYTHONPATH="")
    env.update((var, "1") for var in THREAD_VARS)
    out = subprocess.run([sys.executable, os.path.abspath(__file__),
                          "--worker", tree, "--size", size],
                         env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit("worker %s %s failed:\n%s" % (tree, size, out.stderr))
    return json.loads(out.stdout)


def summary(values):
    q1, q2, q3 = (float(v) for v in np.percentile(values, [25, 50, 75]))
    return {"median_us": q2, "q1_us": q1, "q3_us": q3, "iqr_us": q3 - q1,
            "runs_us": values}


def compare(parent, change, pairs):
    """Time both trees in alternating pairs; the report as a dict."""
    trees = {"parent": parent, "change": change}
    results = {size: {side: [] for side in trees} for size in SIZES}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for size in SIZES:
            for side in order:
                results[size][side].append(run_worker(trees[side], size))
    report = {"how": {
        "pairs": pairs,
        "blas_threads": 1, "warmup_calls": WARMUP,
        "sizes": {size: {"n": n, "d": d, "s": s, "calls": calls,
                         "solve_reference_calls": solve_calls}
                  for size, (n, d, s, calls, solve_calls) in SIZES.items()},
        "first_side": ["parent" if i % 2 == 0 else "change"
                       for i in range(pairs)]}}
    for size, sides in results.items():
        layers = {}
        for name in sides["parent"][0][0]:
            runs = {side: [w[0][name] for w in sides[side]] for side in trees}
            wins = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
            entry = {side: summary(runs[side]) for side in trees}
            entry["change_wins"] = wins
            entry["pairs"] = pairs
            entry["rel_change"] = (entry["change"]["median_us"]
                                   / entry["parent"]["median_us"] - 1.0)
            layers[name] = entry
        counts = {side: {name: (first if all(w[1][name] == first
                                             for w in sides[side]) else None)
                         for name, first in sides[side][0][1].items()}
                  for side in trees}
        report[size] = {"layers": layers, "counts": counts}
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", help="the parent tree")
    ap.add_argument("change", nargs="?", help="the changed tree")
    ap.add_argument("--pairs", type=int, default=10,
                    help="worker pairs per size (default 10)")
    ap.add_argument("--worker", metavar="TREE", help=argparse.SUPPRESS)
    ap.add_argument("--size", choices=sorted(SIZES), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker is not None:
        medians, counts = worker(os.path.abspath(args.worker), args.size)
        print(json.dumps([medians, counts]))
        return 0
    if args.parent is None or args.change is None or args.pairs < 1:
        ap.error("give PARENT_TREE and CHANGE_TREE, and --pairs >= 1")
    report = compare(os.path.abspath(args.parent),
                     os.path.abspath(args.change), args.pairs)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
