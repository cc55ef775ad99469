"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload subsample-grid --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics under ``--trace 0`` and the per-layer metrics under
``--trace 1``.  The line before it is a report: environment, thread budget,
output checks, the sha256 of the first round's runs JSON, and the figures
that are not metrics.  A traced run also writes its spans to
``.perfbench_out/``.  Without the package sources in ``src/`` the script
exits with status 2 and prints no result.
"""

import argparse
import json
import os
import platform
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# The script's own directory would shadow stdlib names; use the root instead.
sys.path[0] = ROOT

from perfbench import NPROC, THREAD_VARS, WORKLOAD_JOBS  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_JOBS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for dirpath, _, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": NPROC,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s (%s)" % (blas.get("name"), blas.get("version"),
                                blas.get("openblas configuration", "")),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "repo.src_lines": src_lines,
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hessavg", "__init__.py")):
        print("perfbench: no hessavg sources under %s" % SRC, file=sys.stderr)
        return 2
    jobs = WORKLOAD_JOBS[args.workload]
    threads = max(1, NPROC // jobs)
    for var in THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)

    from perfbench import workloads

    w = workloads.make_workloads(WORKLOAD_JOBS)[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(workdir, exist_ok=True)
    spans_path = None
    if args.trace:
        outdir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(outdir, exist_ok=True)
        spans_path = os.path.join(
            outdir, "spans-%s-seed%d.json" % (args.workload, args.seed))
    try:
        report, result = workloads.run_workload(
            w, args.seed, args.seconds, bool(args.trace), workdir, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  jobs=jobs, env=environment(), **report)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
