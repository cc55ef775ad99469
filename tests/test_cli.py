import hashlib
import json
import math

import numpy as np
import pytest

from hessavg import bench
from hessavg.bench import CSV_VERSION, load_trace_csv, save_trace_csv
from hessavg.cli import main
from hessavg.solver import IterationRecord

TINY_GRID = dict(coherence_modes=["low"], kappa_list=[1.0], s_list=[1.0],
                 oracle_kinds=["subsample"], variants=["noavg", "unifavg"],
                 num_seeds=4, base_seed=0, tol=1e-6, max_iter=200,
                 n=240, d=24, reg_nu=1e-3, include_bfgs=True)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gen_args(base, n=300, d=30, coherence="low", kappa=30.0, seed=1):
    return ["generate", "--n", str(n), "--d", str(d),
            "--coherence", coherence, "--kappa", str(kappa),
            "--reg-nu", "1e-3", "--seed", str(seed), "--out", str(base)]


def test_generate_writes_dataset_and_sidecar(tmp_path, capsys):
    base = tmp_path / "data"
    assert main(gen_args(base)) == 0
    capsys.readouterr()
    for suffix in (".csv", ".bin", ".json"):
        assert (tmp_path / ("data" + suffix)).exists()
    sidecar = json.loads((tmp_path / "data.json").read_text())
    assert sidecar["config"]["n"] == 300
    assert abs(sidecar["measured_condition"] - 30.0) / 30.0 <= 1e-10
    assert len(sidecar["x_true"]) == 30


def test_generate_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(gen_args(a)) == 0
    assert main(gen_args(b)) == 0
    capsys.readouterr()
    assert sha(tmp_path / "a.bin") == sha(tmp_path / "b.bin")
    assert sha(tmp_path / "a.csv") == sha(tmp_path / "b.csv")


def test_generate_high_coherence_report(tmp_path, capsys):
    base = tmp_path / "high"
    args = gen_args(base, n=1000, d=100, coherence="high", kappa=100.0,
                    seed=0)
    assert main(args) == 0
    capsys.readouterr()
    sidecar = json.loads((tmp_path / "high.json").read_text())
    assert 6.0 <= sidecar["measured_coherence"] <= 10.0 + 1e-9


def test_generate_failure_leaves_no_files(tmp_path, capsys):
    (tmp_path / "data.bin").mkdir()
    assert main(gen_args(tmp_path / "data")) == 1
    assert "i/o error" in capsys.readouterr().err
    # The CSV written before the binary failed is gone, and so are the
    # part files; the directory in the way is left as it was.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.bin"]
    assert not any((tmp_path / "data.bin").iterdir())


@pytest.fixture()
def dataset(tmp_path, capsys):
    base = tmp_path / "data"
    assert main(gen_args(base)) == 0
    capsys.readouterr()
    return tmp_path / "data.bin"


def test_solve_produces_summary_and_trace(dataset, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = main(["solve", "--data", str(dataset), "--oracle", "subsample",
                 "--s", "30", "--variant", "unifavg", "--tol", "1e-6",
                 "--max-iter", "300", "--seed", "3",
                 "--trace-out", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads(out)
    assert summary["converged"]
    assert summary["iterations_to_tol"] == summary["records"]
    assert summary["final_hstar_error"] <= 1e-6
    cols = load_trace_csv(trace)
    assert trace.read_text().startswith(CSV_VERSION + "\n")
    assert len(cols["t"]) == summary["records"]
    assert cols["hstar_error"][-1] <= 1e-6


def test_solve_missing_data_is_io_error(tmp_path, capsys):
    code = main(["solve", "--data", str(tmp_path / "nope.bin")])
    capsys.readouterr()
    assert code == 1


def test_solve_bad_sketch_size_is_usage_error(dataset, capsys):
    code = main(["solve", "--data", str(dataset), "--oracle", "subsample",
                 "--s", "0"])
    capsys.readouterr()
    assert code == 2


def test_solve_bad_dataset_csv_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(CSV_VERSION + "\n2,2\n1,2,3\n4,5,6\n1,-1\n")
    code = main(["solve", "--data", str(bad), "--oracle", "exact"])
    assert code == 2
    assert str(bad) in capsys.readouterr().err


def test_solve_cut_binary_header_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "cut.bin"
    bad.write_bytes(bench.BIN_MAGIC + b"\x00\x00")
    code = main(["solve", "--data", str(bad), "--oracle", "exact"])
    assert code == 2
    assert "truncated dataset binary" in capsys.readouterr().err


def test_solve_nan_tolerance_is_usage_error(dataset, capsys):
    for tol in ("nan", "inf"):
        code = main(["solve", "--data", str(dataset), "--oracle", "exact",
                     "--tol", tol])
        assert code == 2
        assert "tol_hstar" in capsys.readouterr().err


def test_bench_runs_grid_and_is_parallel_invariant(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(TINY_GRID))
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    assert main(["bench", "--grid", str(grid_path), "--out", str(out1),
                 "--jobs", "1"]) == 0
    assert main(["bench", "--grid", str(grid_path), "--out", str(out2),
                 "--jobs", "2"]) == 0
    capsys.readouterr()
    csv1 = (tmp_path / "serial.csv").read_text()
    csv2 = (tmp_path / "parallel.csv").read_text()
    assert csv1 == csv2
    assert csv1.startswith(CSV_VERSION + "\n")
    payload = json.loads((tmp_path / "serial.json").read_text())
    assert payload["grid"]["n"] == 240
    assert len(payload["runs"]) == 9


def test_bench_failure_leaves_no_files(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(TINY_GRID))
    (tmp_path / "table.json").mkdir()
    assert main(["bench", "--grid", str(grid_path), "--out",
                 str(tmp_path / "table"), "--jobs", "1"]) == 1
    assert "i/o error" in capsys.readouterr().err
    # The CSV written before the JSON failed is gone, and so are the part
    # files; the directory in the way is left as it was.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json",
                                                           "table.json"]
    assert not any((tmp_path / "table.json").iterdir())


def test_bench_cell_reproducible_via_solve(tmp_path, capsys):
    # Any grid cell must be reproducible by the single-run commands using
    # the seeds recorded in the bench output.
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(TINY_GRID))
    assert main(["bench", "--grid", str(grid_path), "--out",
                 str(tmp_path / "res"), "--jobs", "1"]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "res.json").read_text())
    rec = payload["runs"][0]
    assert rec["variant"] == "noavg"
    base = tmp_path / "replay"
    assert main(["generate", "--n", str(rec["n"]), "--d", str(rec["d"]),
                 "--coherence", rec["coherence"],
                 "--kappa", str(rec["kappa_a"]),
                 "--reg-nu", str(rec["reg_nu"]),
                 "--seed", str(rec["dataset_seed"]),
                 "--out", str(base)]) == 0
    capsys.readouterr()
    code = main(["solve", "--data", str(tmp_path / "replay.bin"),
                 "--oracle", rec["oracle"], "--s", str(rec["s"]),
                 "--variant", rec["variant"], "--reg-nu", str(rec["reg_nu"]),
                 "--tol", str(rec["tol"]), "--max-iter", str(rec["max_iter"]),
                 "--seed", str(rec["seed"])])
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads(out)
    assert summary["iterations_to_tol"] == rec["iterations"]


def test_bench_bad_grid_field_is_usage_error(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"n": 100, "bogus": True}))
    code = main(["bench", "--grid", str(grid_path), "--out",
                 str(tmp_path / "x"), "--jobs", "1"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("field", [{"beta": 0.7}, {"rho": 1.0},
                                   {"max_iter": 0}])
def test_bench_out_of_range_armijo_is_usage_error(tmp_path, capsys, field):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(dict(TINY_GRID, **field)))
    code = main(["bench", "--grid", str(grid_path), "--out",
                 str(tmp_path / "x"), "--jobs", "1"])
    capsys.readouterr()
    assert code == 2
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("field", [{"n": 20}, {"d": 0}, {"reg_nu": -1.0},
                                   {"kappa_list": [-1.0]},
                                   {"coherence_modes": [], "n": 5},
                                   {"kappa_list": [], "n": 5}])
def test_bench_bad_dataset_grid_fails_before_any_run(tmp_path, capsys,
                                                     monkeypatch, field):
    def no_run(spec):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench, "execute_run", no_run)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(dict(TINY_GRID, **field)))
    code = main(["bench", "--grid", str(grid_path), "--out",
                 str(tmp_path / "x"), "--jobs", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("field", [{"n": "1000"}, {"num_seeds": 2.5},
                                   {"include_bfgs": 1}, {"tol": True},
                                   {"s_list": 1.0}, {"kappa_list": ["1"]}])
def test_bench_wrong_field_type_is_usage_error(tmp_path, capsys, monkeypatch,
                                               field):
    def no_run(spec):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench, "execute_run", no_run)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(dict(TINY_GRID, **field)))
    code = main(["bench", "--grid", str(grid_path), "--out",
                 str(tmp_path / "x"), "--jobs", "1"])
    assert code == 2
    assert "grid field %s" % next(iter(field)) in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_bench_nan_tolerance_fails_before_any_run(tmp_path, capsys,
                                                  monkeypatch):
    def no_run(spec):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench, "execute_run", no_run)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(dict(TINY_GRID, tol=math.nan)))
    assert "NaN" in grid_path.read_text()
    code = main(["bench", "--grid", str(grid_path), "--out",
                 str(tmp_path / "x"), "--jobs", "1"])
    assert code == 2
    assert "tol" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_bench_jobs_below_one_is_usage_error(tmp_path, capsys, jobs):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(TINY_GRID))
    code = main(["bench", "--grid", str(grid_path), "--out",
                 str(tmp_path / "x"), "--jobs", jobs])
    assert code == 2
    assert "jobs" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_rates_from_solver_trace(dataset, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["solve", "--data", str(dataset), "--oracle", "subsample",
                 "--s", "30", "--variant", "unifavg", "--seed", "3",
                 "--trace-out", str(trace)]) == 0
    out_path = tmp_path / "rates.csv"
    assert main(["rates", "--trace", str(trace), "--out",
                 str(out_path)]) == 0
    capsys.readouterr()
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_VERSION
    assert lines[1] == "t,ratio"
    assert len(lines) >= 3


def test_rates_on_geometric_trace(tmp_path, capsys):
    records = [IterationRecord(t=t, f=0.0, grad_norm=0.0,
                               hstar_error=0.5 ** t, stepsize=1.0,
                               skipped=False, backtracks=0)
               for t in range(8)]
    trace = tmp_path / "geom.csv"
    save_trace_csv(trace, records)
    out_path = tmp_path / "rates.csv"
    assert main(["rates", "--trace", str(trace), "--out",
                 str(out_path)]) == 0
    capsys.readouterr()
    rows = out_path.read_text().splitlines()[2:]
    assert len(rows) == 7
    ratios = [float(line.split(",")[1]) for line in rows]
    assert ratios == [0.5] * 7


def test_rates_short_trace_is_usage_error(tmp_path, capsys):
    records = [IterationRecord(t=0, f=0.0, grad_norm=0.0,
                               hstar_error=1.0, stepsize=1.0,
                               skipped=False, backtracks=0)]
    trace = tmp_path / "one.csv"
    save_trace_csv(trace, records)
    code = main(["rates", "--trace", str(trace), "--out",
                 str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert str(trace) in err
    assert "fewer than 2 rows" in err


def test_rates_ragged_trace_names_the_file(tmp_path, capsys):
    trace = tmp_path / "ragged.csv"
    trace.write_text("%s\nt,hstar_error\n0,1.0\n1,0.5,9\n2,0.25\n"
                     % CSV_VERSION)
    code = main(["rates", "--trace", str(trace), "--out",
                 str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert str(trace) in err
    assert "ragged" in err


def test_rates_non_numeric_trace_names_the_file(tmp_path, capsys):
    trace = tmp_path / "text.csv"
    trace.write_text("%s\nt,hstar_error\n0,1.0\n1,abc\n" % CSV_VERSION)
    code = main(["rates", "--trace", str(trace), "--out",
                 str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert str(trace) in err
    assert "abc" in err


def test_malformed_jobs_env_only_affects_bench(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HESSAVG_JOBS", "abc")
    assert main(gen_args(tmp_path / "data")) == 0
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(TINY_GRID))
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--grid", str(grid), "--out", str(tmp_path / "b")])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


DIAG_DEFAULTS = ["diag", "--kappa", "10", "--lambda-min", "1e-3",
                 "--upsilon", "0.1", "--epsilon", "0.5", "--delta", "0.01",
                 "--d", "100", "--radius-nu", "0.5", "--lipschitz", "1",
                 "--f0-gap", "1", "--weights", "uniform"]


def test_diag_report_self_checks(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(DIAG_DEFAULTS + ["--out", str(out_path)]) == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["self_check"] == "pass"
    assert all(payload["checks"].values())
    # The two formula tracks describe the same phases and must agree to a
    # small factor at the default operating point.
    burn_ratio = max(payload["t1"], payload["i1"]) / min(payload["t1"],
                                                         payload["i1"])
    assert burn_ratio <= 4.0
    onset_t = payload["t_total"] + payload["j_transition"] + payload[
        "k_transition"]
    onset_i = payload["i_total"] + payload["u_transition"] + payload[
        "v_transition"]
    onset_ratio = max(onset_t, onset_i) / min(onset_t, onset_i)
    assert onset_ratio <= 4.0


def test_diag_noise_free_serializes_inf(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    args = [a for a in DIAG_DEFAULTS]
    args[args.index("--upsilon") + 1] = "0"
    assert main(args + ["--out", str(out_path)]) == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["k_transition"] == "inf"
    assert payload["v_transition"] == "inf"


def test_diag_emits_rate_curves(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    curves = tmp_path / "curves.csv"
    assert main(DIAG_DEFAULTS + ["--out", str(out_path),
                                 "--curves-out", str(curves)]) == 0
    capsys.readouterr()
    lines = curves.read_text().splitlines()
    assert lines[0] == CSV_VERSION
    assert lines[1] == "t,rho_t,theta_t"
    data = np.array([[float(v) for v in line.split(",")]
                     for line in lines[2:]])
    assert np.all(data[:, 1:] >= 0.0)
    assert np.all(np.diff(data[:, 1]) <= 0.0)
    assert np.all(np.diff(data[:, 2]) <= 0.0)


def test_diag_precondition_violation_exits_4(capsys):
    args = [a for a in DIAG_DEFAULTS]
    args[args.index("--epsilon") + 1] = "2.0"
    assert main(args) == 4
    capsys.readouterr()


def test_diag_nan_upsilon_exits_4(capsys):
    args = [a for a in DIAG_DEFAULTS]
    args[args.index("--upsilon") + 1] = "nan"
    assert main(args) == 4
    assert "upsilon" in capsys.readouterr().err


def test_diag_infinite_kappa_exits_4(capsys):
    args = [a for a in DIAG_DEFAULTS]
    args[args.index("--kappa") + 1] = "inf"
    assert main(args) == 4
    assert capsys.readouterr().err.startswith("error: kappa must be finite")


def test_diag_reports_noise_transition_past_2_62(capsys):
    args = ["diag", "--kappa", "341.4", "--lambda-min", "0.1076",
            "--upsilon", "0.1827", "--epsilon", "0.5", "--delta", "0.1",
            "--d", "100", "--radius-nu", "0.5", "--lipschitz", "1",
            "--f0-gap", "0.197", "--psi", "2", "--weights", "uniform"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["self_check"] == "pass"
    assert 2.0 ** 62 < payload["v_transition"] < math.inf


def test_diag_reports_burn_in_past_2_62(capsys):
    args = [a for a in DIAG_DEFAULTS]
    for flag, value in [("--upsilon", "30000"), ("--epsilon", "0.01"),
                        ("--weights", "power")]:
        args[args.index(flag) + 1] = value
    assert main(args + ["--psi", "30", "--power-p", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["self_check"] == "pass"
    assert 2.0 ** 62 < payload["i1"] < math.inf


def test_diag_logpower_weights(capsys):
    args = [a for a in DIAG_DEFAULTS]
    args[args.index("--weights") + 1] = "logpower"
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["self_check"] == "pass"
    assert np.isclose(payload["psi"], 2.1849470328269085, rtol=1e-12, atol=0)
