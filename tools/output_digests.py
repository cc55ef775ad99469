"""sha256 digests of the files the package writes.

Run from any directory with the tree's own sources:

    python3 tools/output_digests.py > digests.txt
    python3 tools/output_digests.py --diff OTHER_TREE

The second form runs the script of OTHER_TREE and this one, each in its own
process, and prints only the lines that moved, as a unified diff without
context (``-`` OTHER_TREE, ``+`` this tree).  It exits 0 when no line moved
and 1 otherwise.

It prints one "<config> <what> <sha256>" line per digest, in seven parts:

* datasets: for each configuration in CONFIGS, the bytes of ``generate``'s
  A, b and x_true, the dataset CSV and binary that
  ``bench.save_dataset_csv`` and ``bench.save_dataset_binary`` write, and
  the three files ``hessavg generate`` writes (.csv, .bin, .json);
* solves: on one small dataset, for each oracle x variant, the trace CSV
  and the JSON summary of ``hessavg solve``, and the ``hessavg rates`` CSV
  of that trace; then the trace and summary of one subsample solve per
  variant at ``--tol 0 --max-iter 150``, which runs on into the float64
  floor, where Armijo trials tie with f(x) to within rounding;
* diag: the report JSON and the curve CSV of ``hessavg diag`` for uniform,
  power and logpower weights;
* bench: the CSV and JSON of ``hessavg bench`` on a tiny grid with BFGS, at
  ``--jobs 1`` and ``--jobs 2``;
* reference solves: for each configuration in CONFIGS, ``solve_reference``'s
  x* and H*, and the gradient and the exact Hessian at three fixed points;
* estimates: one estimate of each oracle kind at x_true with a fixed seed,
  on a 300 x 30 configuration with s = 60 and on a 2001 x 300 one with
  s = 1000, so that s*d lies on both sides of the Hessian's block, and on
  a low-coherence 1000 x 100 one with s = 100, the benchmark grid's shape,
  where LESS's values are +-1 (n = s * nnz_per_row);
* line search: on that 1000 x 100 configuration, ``solver.line_search``'s
  accepted mu, x, f, margins and j for one direction from x = 0 that needs
  j* = 4 backtracks, searched from start 0, j* - 1 and j* + 3, and for the
  Newton direction at the near-tie point x* + 1e-9 x_true, searched from
  start 0, j* + 3 and j* + 6.  There j* = 0 and every trial ties f(x) to
  within rounding: from j* + 3 the start's trial is rejected by less than
  the decisive margin, and from j* + 6 the start is accepted and the trial
  below it is; each search then rescans from j = 0.  A tree whose
  ``line_search`` takes no ``start`` searches from 0 each time, so these
  lines say that a warm start returns the scan's step.

The solves, diag and bench parts go through ``cli.main`` alone, so they read no
record field or helper that a refactor may rename, and they run inside the
scratch directory with relative paths, so no printed path (such as the
"trace" field of a solve summary) depends on where that directory is.

Run it on two trees with the same environment (the BLAS thread count can
change ``generate``'s bits) and compare the outputs, or let ``--diff`` do
both: no moved line says the change left every one of these files
byte-identical.  To compare the same digests, copy this script into the
other tree's ``tools/`` first.

The configurations put n*d on both sides of the CSV writer's share size
(40,000 values per share, so 2 shares from 80,000 values on a machine with
2 or more CPUs) and of the Hessian's block (2 MiB, 262,144 values), with n
odd in some, at low and high coherence, up to the benchmark's 8000 x 400.
"""

import argparse
import contextlib
import difflib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from hessavg import bench, cli, oracles, problem, solver  # noqa: E402
from hessavg.datagen import DataGenConfig, generate  # noqa: E402

# (coherence, n, d, kappa of A, seed)
CONFIGS = [
    ("low", 300, 30, 10.0, 1),
    ("high", 300, 30, 10.0, 2),
    ("low", 1001, 499, 100.0, 3),
    ("high", 1001, 499, 100.0, 4),
    ("low", 2001, 300, 300.0, 5),
    ("high", 2001, 300, 300.0, 6),
    ("low", 8000, 400, 400.0, 7),
    ("high", 8000, 400, 400.0, 8),
]
REG_NU = 1e-3


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def config_name(coherence, n, d, kappa, seed):
    return "%s-%dx%d-seed%d" % (coherence, n, d, seed)


def generate_config(coherence, n, d, kappa, seed):
    return generate(DataGenConfig(n=n, d=d, coherence_mode=coherence,
                                  kappa_A=kappa, reg_nu=REG_NU, seed=seed))


def digests(coherence, n, d, kappa, seed, workdir):
    """(what, sha256) pairs of one configuration."""
    ds, x_true = generate_config(coherence, n, d, kappa, seed)
    out = [("A", hashlib.sha256(ds.A.tobytes()).hexdigest()),
           ("b", hashlib.sha256(ds.b.tobytes()).hexdigest()),
           ("x_true", hashlib.sha256(x_true.tobytes()).hexdigest())]
    base = os.path.join(workdir, "data")
    bench.save_dataset_csv(base + ".csv", ds)
    bench.save_dataset_binary(base + ".bin", ds)
    out += [("save_dataset_csv", sha256_file(base + ".csv")),
            ("save_dataset_binary", sha256_file(base + ".bin"))]
    del ds, x_true
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["generate", "--n", str(n), "--d", str(d),
                           "--coherence", coherence, "--kappa", repr(kappa),
                           "--reg-nu", repr(REG_NU), "--seed", str(seed),
                           "--out", base])
    if status != 0:
        raise SystemExit("hessavg generate exited with %d" % status)
    out += [("generate" + ext, sha256_file(base + ext))
            for ext in (".csv", ".bin", ".json")]
    leftovers = sorted(set(os.listdir(workdir))
                       - {"data.csv", "data.bin", "data.json"})
    if leftovers:
        raise SystemExit("files left behind: %s" % ", ".join(leftovers))
    return out


# The small dataset of the solves, and the oracle size they use.
SOLVE_DATA = ["--n", "300", "--d", "30", "--coherence", "low", "--kappa",
              "10", "--seed", "11"]
SOLVE_S = "60"
ORACLES = ("exact", "subsample", "gauss", "countsketch", "less")
VARIANTS = ("noavg", "unifavg", "weightavg")
DIAG_WEIGHTS = ("uniform", "power", "logpower")
BENCH_GRID = dict(coherence_modes=["low", "high"], kappa_list=[1.0],
                  s_list=[1.0], oracle_kinds=["subsample", "countsketch"],
                  variants=list(VARIANTS), num_seeds=2, base_seed=0,
                  tol=1e-6, max_iter=200, n=240, d=24, reg_nu=1e-3,
                  include_bfgs=True)


def run_cli(argv):
    """What one hessavg command prints; SystemExit unless it exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    if status != 0:
        raise SystemExit("hessavg %s exited with %d" % (argv[0], status))
    return out.getvalue()


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def solve_digests():
    """Trace, summary and rates of each oracle x variant on one dataset."""
    run_cli(["generate", *SOLVE_DATA, "--out", "solve"])
    for oracle in ORACLES:
        for variant in VARIANTS:
            what = "%s-%s" % (oracle, variant)
            summary = run_cli(["solve", "--data", "solve.bin",
                               "--oracle", oracle, "--s", SOLVE_S,
                               "--variant", variant, "--seed", "3",
                               "--trace-out", "trace.csv"])
            run_cli(["rates", "--trace", "trace.csv", "--out", "rates.csv"])
            yield what + ".trace", sha256_file("trace.csv")
            yield what + ".summary", sha256_text(summary)
            yield what + ".rates", sha256_file("rates.csv")
    for variant in VARIANTS:
        what = "subsample-%s-tol0" % variant
        summary = run_cli(["solve", "--data", "solve.bin",
                           "--oracle", "subsample", "--s", SOLVE_S,
                           "--variant", variant, "--seed", "3", "--tol", "0",
                           "--max-iter", "150", "--trace-out", "trace.csv"])
        yield what + ".trace", sha256_file("trace.csv")
        yield what + ".summary", sha256_text(summary)


def diag_digests():
    """The diag report (file and stdout) and curves of each weight kind."""
    for weights in DIAG_WEIGHTS:
        run_cli(["diag", "--weights", weights, "--out", "diag.json",
                 "--curves-out", "curves.csv"])
        printed = run_cli(["diag", "--weights", weights])
        yield weights + ".report", sha256_file("diag.json")
        yield weights + ".stdout", sha256_text(printed)
        yield weights + ".curves", sha256_file("curves.csv")


def bench_digests():
    """The bench table and runs of one tiny grid at one and two jobs."""
    with open("grid.json", "w") as fh:
        json.dump(BENCH_GRID, fh)
    for jobs in ("1", "2"):
        run_cli(["bench", "--grid", "grid.json", "--out", "table",
                 "--jobs", jobs])
        yield "jobs%s.csv" % jobs, sha256_file("table.csv")
        yield "jobs%s.json" % jobs, sha256_file("table.json")


def reference_digests(config):
    """x*, H*, and the gradients and Hessians at three points of one config."""
    ds, x_true = generate_config(*config)
    obj = problem.RegularizedLogistic(ds, REG_NU)
    ref = problem.solve_reference(obj, np.zeros(ds.d))
    yield "reference.x_star", hashlib.sha256(ref.x_star.tobytes()).hexdigest()
    yield "reference.h_star", hashlib.sha256(ref.h_star.tobytes()).hexdigest()
    points = (("zero", np.zeros(ds.d)), ("x_true", x_true),
              ("4x_true", 4.0 * x_true))
    for what, x in points:
        yield "gradient." + what, hashlib.sha256(obj.gradient(x).tobytes()
                                                 ).hexdigest()
    for what, x in points:
        yield "hessian." + what, hashlib.sha256(obj.hessian(x).tobytes()
                                                ).hexdigest()


# (configuration, s): s*d is 1,800, 300,000 and 10,000 values.
ESTIMATES = [(CONFIGS[0], 60), (CONFIGS[4], 1000),
             (("low", 1000, 100, 10.0, 9), 100)]
ESTIMATE_SEED = 12


def estimate_digests(config, s):
    """One estimate of each oracle kind at x_true of one configuration."""
    ds, x_true = generate_config(*config)
    obj = problem.RegularizedLogistic(ds, REG_NU)
    for name in ORACLES:
        est = oracles.estimate(bench.oracle_for_name(name, s), obj, x_true,
                               np.random.default_rng(ESTIMATE_SEED))
        yield "estimate." + name, hashlib.sha256(est.tobytes()).hexdigest()


# The line search's configuration, and its two search rays.  At x = 0 the
# direction is 32 times the Newton step, which the search cuts back to
# j* = 4.  At the near-tie point x* + 1e-9 x_true it is the Newton step,
# whose trials all tie f(x) to within rounding.
LINE_SEARCH_CONFIG = ESTIMATES[2][0]
LINE_SEARCH_SCALE = 32.0
NEAR_TIE_OFFSET = 1e-9


def line_search_digests(config):
    """Each ray searched from several starts: step and j, one digest each."""
    ds, x_true = generate_config(*config)
    obj = problem.RegularizedLogistic(ds, REG_NU)
    x_star = problem.solve_reference(obj, np.zeros(ds.d)).x_star
    warm = "start" in inspect.signature(solver.line_search).parameters
    rays = (("line_search", np.zeros(ds.d), LINE_SEARCH_SCALE, (-1, 3)),
            ("line_search.near_tie", x_star + NEAR_TIE_OFFSET * x_true, 1.0,
             (3, 6)))
    for name, x, scale, offsets in rays:
        m = obj.margins(x)
        f, g = obj.value(x, margins=m), obj.gradient(x, margins=m)
        p = scale * solver.newton_direction(obj.hessian(x, margins=m), g)

        def search(start):
            kwargs = dict(f0=f, g0=g, m0=m)
            if warm:
                kwargs["start"] = start
            return solver.line_search(obj, x, p, **kwargs)

        _, j_star = search(0)
        starts = [("0", 0)] + [("j*%+d" % k, j_star + k) for k in offsets]
        for label, start in starts:
            step, j = search(start)
            h = hashlib.sha256(np.float64(step.mu).tobytes())
            for part in (step.x, np.float64(step.f), step.margins,
                         np.int64(j)):
                h.update(part.tobytes())
            yield "%s.start%s" % (name, label), h.hexdigest()


def diff(other_tree):
    """Print the lines that moved from other_tree's digests to this tree's."""
    outputs = []
    for tree in (other_tree, ROOT):
        script = os.path.join(tree, "tools", "output_digests.py")
        outputs.append(subprocess.run([sys.executable, script], check=True,
                                      capture_output=True, text=True
                                      ).stdout.splitlines())
    # [2:] drops the two file header lines; "@@" lines head each hunk.
    moved = [line for line in list(difflib.unified_diff(
        *outputs, other_tree, ROOT, n=0, lineterm=""))[2:]
             if not line.startswith("@@")]
    for line in moved:
        print(line)
    return 1 if moved else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--diff", metavar="OTHER_TREE",
                    help="print only the digests that moved from OTHER_TREE")
    args = ap.parse_args()
    if args.diff is not None:
        return diff(os.path.abspath(args.diff))
    with tempfile.TemporaryDirectory() as workdir:
        for config in CONFIGS:
            name = config_name(*config)
            for what, digest in digests(*config, workdir):
                print(name, what, digest, flush=True)
        with contextlib.chdir(workdir):
            for name, part in (("solve-low-300x30-seed11", solve_digests),
                               ("diag", diag_digests),
                               ("bench", bench_digests)):
                for what, digest in part():
                    print(name, what, digest, flush=True)
    for config in CONFIGS:
        for what, digest in reference_digests(config):
            print(config_name(*config), what, digest, flush=True)
    for config, s in ESTIMATES:
        for what, digest in estimate_digests(config, s):
            print("%s-s%d" % (config_name(*config), s), what, digest,
                  flush=True)
    for what, digest in line_search_digests(LINE_SEARCH_CONFIG):
        print(config_name(*LINE_SEARCH_CONFIG), what, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
