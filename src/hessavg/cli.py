"""Command-line interface.

Subcommands:

* ``generate``: write a synthetic logistic dataset (CSV + binary) with a
  JSON report of its measured coherence and condition number.
* ``solve``: run the averaged stochastic Newton solver on a dataset file,
  writing a per-iteration trace CSV and printing a JSON summary.
* ``bench``: execute an experiment grid from a JSON config and write the
  aggregated median/IQR table as CSV and JSON.
* ``diag``: evaluate the transition-point calculators for a parameter
  bundle, with substitute-back self-checks and optional rate curves.
* ``rates``: turn a trace file into consecutive error ratios for plotting.

Exit codes: 0 ok, 1 I/O or execution failure, 2 usage, 3 oracle/objective
capability mismatch, 4 theory precondition violation.  HESSAVG_JOBS sets
the default for ``bench --jobs``, which is capped at the available CPUs.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import bench, theory
from .averaging import LogPower, Power, Uniform, psi_bound
from .datagen import (COHERENCE_MODES, DataGenConfig, coherence,
                      condition_number, generate)
from .oracles import CapabilityError
from .problem import RegularizedLogistic, solve_reference
from .solver import (DEFAULT_BETA, DEFAULT_MAX_ITER, DEFAULT_RHO, DEFAULT_TOL,
                     SolverConfig, run)


def _strip_known_suffix(path: str) -> str:
    for suffix in (".csv", ".bin", ".json"):
        if path.endswith(suffix):
            return path[: -len(suffix)]
    return path


def _write_all(files) -> None:
    """Each (path, write, payload) as write(path, payload): all or none.

    When one write fails, the files written before it are removed.
    """
    published = []
    try:
        for path, write, payload in files:
            write(path, payload)
            published.append(path)
    except BaseException:
        for path in published:
            os.remove(path)
        raise


def cmd_generate(args) -> int:
    cfg = DataGenConfig(n=args.n, d=args.d, coherence_mode=args.coherence,
                        kappa_A=args.kappa, reg_nu=args.reg_nu,
                        seed=args.seed)
    ds, x_true = generate(cfg)
    sidecar = {
        "config": {"n": args.n, "d": args.d, "coherence": args.coherence,
                   "kappa": args.kappa, "reg_nu": args.reg_nu,
                   "seed": args.seed},
        "measured_coherence": coherence(ds.A),
        "measured_condition": condition_number(ds.A),
        "x_true": list(x_true),
    }
    base = _strip_known_suffix(args.out)
    _write_all([(base + ".csv", bench.save_dataset_csv, ds),
                (base + ".bin", bench.save_dataset_binary, ds),
                (base + ".json", bench.write_json, sidecar)])
    print("wrote %s.csv, %s.bin, %s.json (coherence %.4g, condition %.6g)"
          % (base, base, base, sidecar["measured_coherence"],
             sidecar["measured_condition"]))
    return 0


def cmd_solve(args) -> int:
    ds = bench.load_dataset(args.data)
    obj = RegularizedLogistic(ds, args.reg_nu)
    x0 = np.zeros(obj.dim)
    ref = solve_reference(obj, x0)
    cfg = SolverConfig(beta=args.beta, rho_backtrack=args.rho,
                       max_iter=args.max_iter, tol_hstar=args.tol,
                       oracle=bench.oracle_for_name(args.oracle, args.s),
                       weights=bench.weights_for_variant(args.variant),
                       seed=args.seed)
    result = run(obj, x0, cfg, ref)
    if args.trace_out:
        bench.save_trace_csv(args.trace_out, result.records)
    summary = {
        "iterations_to_tol": result.iterations_to_tol,
        "converged": result.converged,
        "final_hstar_error": result.records[-1].hstar_error,
        "final_f": result.records[-1].f,
        "records": len(result.records),
        "trace": args.trace_out,
    }
    print(json.dumps(summary))
    return 0


def cmd_bench(args) -> int:
    with open(args.grid) as fh:
        grid = bench.ExperimentGrid.from_dict(json.load(fh))
    outcome = bench.run_grid(grid, jobs=args.jobs)
    base = _strip_known_suffix(args.out)
    _write_all([(base + ".csv", bench.write_bench_csv, outcome["rows"]),
                (base + ".json", bench.write_json,
                 dict(grid=grid.__dict__, **outcome))])
    failures = sum(1 for rec in outcome["runs"] if rec["error"])
    print("wrote %s.csv and %s.json (%d rows, %d runs, %d failures)"
          % (base, base, len(outcome["rows"]), len(outcome["runs"]),
             failures))
    return 0


def _diag_weights(args):
    if args.weights == "uniform":
        return Uniform()
    if args.weights == "power":
        return Power(args.power_p)
    return LogPower()


def cmd_diag(args) -> int:
    seq = _diag_weights(args)
    psi = args.psi if args.psi is not None else psi_bound(seq, 1000)
    inputs = theory.TheoryInputs(
        kappa=args.kappa, lambda_min=args.lambda_min,
        upsilon=args.upsilon, epsilon=args.epsilon, delta=args.delta,
        d=args.d, radius_nu=args.radius_nu,
        lipschitz_L=args.lipschitz, f0_gap=args.f0_gap, psi=psi,
        weights=seq, beta=args.beta, rho=args.rho)
    report = theory.transition_report(inputs)
    checks = theory.substitute_back_checks(inputs, report)
    payload = dict(theory.report_to_json_dict(report), psi=psi, checks=checks,
                   self_check="pass" if all(checks.values()) else "fail")
    bench.write_json(args.out, payload)
    if args.curves_out:
        offsets = np.unique(np.round(np.logspace(0.0, 6.0, 120)))
        offsets = np.concatenate(([0.0], offsets))
        bench.write_csv(args.curves_out, ("t", "rho_t", "theta_t"), [
            (int(t),
             theory.rho_t(inputs, report.t_total, report.j_transition, t),
             theory.theta_t(inputs, report.i_total, report.u_transition, t))
            for t in offsets])
    return 0


def cmd_rates(args) -> int:
    columns = bench.load_trace_csv(args.trace)
    if "hstar_error" not in columns:
        raise ValueError("%s: no hstar_error column" % args.trace)
    if columns["hstar_error"].size < 2:
        raise ValueError("%s: trace has fewer than 2 rows" % args.trace)
    idx, ratios = bench.ratio_series(columns["hstar_error"])
    bench.write_csv(args.out, ("t", "ratio"), zip(idx, ratios))
    print("wrote %s (%d ratios)" % (args.out, len(ratios)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessavg",
        description="Stochastic Newton optimization with online weighted "
                    "Hessian averaging: dataset generation, solving, "
                    "benchmark grids, and rate diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic logistic dataset")
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--d", type=int, default=100)
    g.add_argument("--coherence", choices=COHERENCE_MODES, default="low")
    g.add_argument("--kappa", type=float, default=100.0,
                   help="target condition number of the data matrix")
    g.add_argument("--reg-nu", type=float, default=bench.ExperimentGrid.reg_nu)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True,
                   help="output base path (writes .csv, .bin, .json)")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run the solver on a dataset file")
    s.add_argument("--data", required=True)
    s.add_argument("--oracle", choices=bench.ORACLES, default="subsample")
    s.add_argument("--s", type=int, default=0,
                   help="subsample/sketch size (required unless exact)")
    s.add_argument("--variant", choices=bench.VARIANTS, default="unifavg")
    s.add_argument("--beta", type=float, default=DEFAULT_BETA)
    s.add_argument("--rho", type=float, default=DEFAULT_RHO)
    s.add_argument("--tol", type=float, default=DEFAULT_TOL)
    s.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--reg-nu", type=float, default=bench.ExperimentGrid.reg_nu,
                   help="l2 strength of the objective built from the data")
    s.add_argument("--trace-out", default=None,
                   help="per-iteration trace CSV path")
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="run an experiment grid")
    b.add_argument("--grid", required=True, help="grid config JSON")
    b.add_argument("--out", required=True,
                   help="output base path (writes .csv and .json)")
    # A string default goes through type=int only when bench is parsed, so
    # a malformed HESSAVG_JOBS is a bench usage error, not a crash elsewhere.
    b.add_argument("--jobs", type=int,
                   default=os.environ.get("HESSAVG_JOBS", "1"))
    b.set_defaults(func=cmd_bench)

    dg = sub.add_parser("diag", help="transition-point calculators")
    dg.add_argument("--kappa", type=float, default=10.0)
    dg.add_argument("--lambda-min", type=float, default=1e-3)
    dg.add_argument("--upsilon", type=float, default=0.1)
    dg.add_argument("--epsilon", type=float, default=0.5)
    dg.add_argument("--delta", type=float, default=0.01)
    dg.add_argument("--d", type=int, default=100)
    dg.add_argument("--radius-nu", type=float, default=0.5)
    dg.add_argument("--beta", type=float, default=DEFAULT_BETA)
    dg.add_argument("--rho", type=float, default=DEFAULT_RHO)
    dg.add_argument("--lipschitz", type=float, default=1.0)
    dg.add_argument("--f0-gap", type=float, default=1.0)
    dg.add_argument("--psi", type=float, default=None,
                    help="growth bound; computed from the weights if omitted")
    dg.add_argument("--weights", choices=("uniform", "power", "logpower"),
                    default="uniform",
                    help="weight sequence; logpower is (t+1)^ln(t+1), scale "
                         "1, not the (t+1)^log10(t+1) of the solver's "
                         "weightavg variant, so its predictions do not "
                         "describe weightavg runs")
    dg.add_argument("--power-p", type=float, default=2.0)
    dg.add_argument("--out", default=None, help="report JSON path (stdout if omitted)")
    dg.add_argument("--curves-out", default=None,
                    help="sampled rho_t/theta_t curve CSV path")
    dg.set_defaults(func=cmd_diag)

    r = sub.add_parser("rates", help="consecutive error ratios from a trace")
    r.add_argument("--trace", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_rates)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapabilityError as exc:
        print("capability error: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4 if args.command == "diag" else 2
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4 if args.command == "diag" else 1


if __name__ == "__main__":
    sys.exit(main())
