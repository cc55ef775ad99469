import copy
import dataclasses
import math
import os
import re
import struct
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hessavg import bench
from hessavg.averaging import LastOnly, LogPower, Uniform
from hessavg.bench import (BIN_MAGIC, CSV_VERSION, DNF, ExperimentGrid,
                           RunSpec, aggregate_rows, execute_run, expand_grid,
                           load_dataset, load_dataset_csv, load_trace_csv,
                           oracle_for_name, ratio_series, rows_to_csv,
                           run_grid, save_dataset_binary, save_dataset_csv,
                           save_trace_csv, stable_seed, weights_for_variant,
                           write_csv, write_json)
from hessavg.datagen import DataGenConfig, generate
from hessavg.oracles import (CountSketch, Exact, GaussianSketch, LessUniform,
                             Subsample)
from hessavg.problem import Dataset
from hessavg.solver import IterationRecord

TINY = dict(coherence_modes=["low"], kappa_list=[1.0], s_list=[1.0],
            oracle_kinds=["subsample"], variants=["noavg", "unifavg"],
            num_seeds=4, base_seed=0, tol=1e-6, max_iter=200,
            n=240, d=24, reg_nu=1e-3, include_bfgs=True)

# Every number below is reproducible: the grid seeds are content-addressed,
# so this CSV is a fixed point of the runner.
TINY_CSV_LINES = [
    CSV_VERSION,
    "coherence,kappa_a,s,oracle,noavg_median,noavg_iqr,"
    "unifavg_median,unifavg_iqr,bfgs_median,bfgs_iqr",
    "low,24,24,subsample,121,3,25,2,96,0",
]


@pytest.fixture(scope="module")
def tiny_outcome():
    grid = ExperimentGrid(**TINY)
    return grid, run_grid(grid, jobs=1)


def test_grid_validation():
    with pytest.raises(ValueError):
        ExperimentGrid(num_seeds=0)
    with pytest.raises(ValueError):
        ExperimentGrid(tol=0.0)
    with pytest.raises(ValueError):
        ExperimentGrid(coherence_modes=["medium"])
    with pytest.raises(ValueError):
        ExperimentGrid(oracle_kinds=["magic"])
    with pytest.raises(ValueError):
        ExperimentGrid(variants=["bfgs"])
    with pytest.raises(ValueError):
        ExperimentGrid(beta=0.7)
    with pytest.raises(ValueError):
        ExperimentGrid(rho=1.0)
    with pytest.raises(ValueError):
        ExperimentGrid(max_iter=0)
    # Checked by the dataset config each run builds: n >= d >= 1,
    # reg_nu >= 0, kappa_A = d ** power >= 1.
    with pytest.raises(ValueError):
        ExperimentGrid(n=50, d=100)
    with pytest.raises(ValueError):
        ExperimentGrid(d=0)
    with pytest.raises(ValueError):
        ExperimentGrid(reg_nu=-1.0)
    with pytest.raises(ValueError):
        ExperimentGrid(kappa_list=[-1.0])
    with pytest.raises(ValueError):
        ExperimentGrid(d=0, kappa_list=[-1.0])
    # A grid without datasets would skip those checks.
    with pytest.raises(ValueError):
        ExperimentGrid(coherence_modes=[])
    with pytest.raises(ValueError):
        ExperimentGrid(kappa_list=[])
    # Every list field must be nonempty, and each s in [1, n].
    with pytest.raises(ValueError):
        ExperimentGrid(variants=[])
    with pytest.raises(ValueError):
        ExperimentGrid(oracle_kinds=[])
    with pytest.raises(ValueError):
        ExperimentGrid(s_list=[], include_bfgs=True)
    with pytest.raises(ValueError):
        ExperimentGrid(s_list=[-3.0])
    with pytest.raises(ValueError):
        ExperimentGrid(n=60, d=6, s_list=[20.0])


@pytest.mark.parametrize("field, value, message", [
    ("tol", math.nan, "tol"),
    ("reg_nu", math.nan, "reg_nu"),
    ("beta", math.nan, "beta"),
    ("rho", math.nan, "rho"),
    ("kappa_list", [1.0, math.nan], "kappa_A"),
    ("s_list", [math.nan], "s_list"),
    ("s_list", [math.inf], "s_list"),
    ("tol", math.inf, "tol"),
    ("reg_nu", math.inf, "reg_nu"),
    ("beta", math.inf, "beta"),
    ("rho", math.inf, "rho"),
    ("kappa_list", [1.0, math.inf], "kappa_A"),
])
def test_grid_rejects_non_finite_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        ExperimentGrid(**{**TINY, field: value})


def test_grid_from_dict():
    grid = ExperimentGrid.from_dict(TINY)
    assert grid.n == 240
    assert grid.include_bfgs
    with pytest.raises(ValueError):
        ExperimentGrid.from_dict({"n": 100, "bogus_field": 1})


def test_stable_seed_properties():
    a = stable_seed(0, "low", 1.0, "subsample", 3)
    assert a == stable_seed(0, "low", 1.0, "subsample", 3)
    assert a != stable_seed(0, "low", 1.0, "subsample", 4)
    assert a != stable_seed(0, "high", 1.0, "subsample", 3)
    assert stable_seed(17, "x") == stable_seed(0, "x") + 17


def test_variant_weight_mapping():
    assert isinstance(weights_for_variant("noavg"), LastOnly)
    assert isinstance(weights_for_variant("unifavg"), Uniform)
    w = weights_for_variant("weightavg")
    assert isinstance(w, LogPower)
    assert np.isclose(w.scale, 1.0 / math.log(10.0), rtol=1e-15, atol=0)
    with pytest.raises(ValueError):
        weights_for_variant("midavg")


def test_oracle_name_mapping():
    assert isinstance(oracle_for_name("exact", 0), Exact)
    assert oracle_for_name("subsample", 7) == Subsample(7)
    assert oracle_for_name("gauss", 7) == GaussianSketch(7)
    assert oracle_for_name("countsketch", 7) == CountSketch(7)
    assert isinstance(oracle_for_name("less", 7), LessUniform)
    with pytest.raises(ValueError):
        oracle_for_name("subsample", 0)
    with pytest.raises(ValueError):
        oracle_for_name("fourier", 7)


def test_expand_grid_layout():
    grid = ExperimentGrid(**TINY)
    specs = expand_grid(grid)
    # 1 setup x 2 variants x 4 slots, plus one BFGS run per dataset.
    assert len(specs) == 9
    solver_specs = [s for s in specs if s.variant != "bfgs"]
    assert all(s.oracle == "subsample" for s in solver_specs)
    seeds = [s.seed for s in solver_specs]
    assert len(set(seeds)) == len(seeds)
    assert len({s.dataset_seed for s in specs}) == 1
    tail = specs[-1]
    assert tail.variant == "bfgs"
    assert tail.oracle == "none"
    assert tail.s_mult == 0.0
    assert tail.slot == 0


def test_expanding_a_grid_keeps_existing_seeds():
    grid = ExperimentGrid(**TINY)
    wider = ExperimentGrid(**{**TINY, "kappa_list": [1.0, 0.5]})
    original = {(s.variant, s.slot): s.seed for s in expand_grid(grid)}
    extended = {(s.variant, s.slot): s.seed for s in expand_grid(wider)
                if s.kappa_power == 1.0}
    assert original == extended


def _ids_to_seeds(grid):
    return {(s.coherence, s.kappa_power, s.s_mult, s.oracle, s.variant,
             s.slot): (s.seed, s.dataset_seed) for s in expand_grid(grid)}


@st.composite
def grid_and_wider(draw):
    """A small grid, and one with entries added to every list and more slots.

    The added entries go anywhere in their list, not only at its end.
    """
    small, wider = {}, {}
    for name, choices in (("coherence_modes", ["low", "high"]),
                          ("oracle_kinds", list(bench.ORACLES)),
                          ("variants", list(bench.VARIANTS)),
                          ("kappa_list", st.floats(0.0, 2.0)),
                          ("s_list", st.floats(0.05, 10.0))):
        if isinstance(choices, list):
            choices = st.sampled_from(choices)
        picked = draw(st.lists(choices, min_size=1, max_size=4, unique=True))
        kept = draw(st.integers(1, len(picked)))
        small[name] = picked[:kept]
        wider[name] = draw(st.permutations(picked))
    slots = draw(st.integers(1, 3))
    common = dict(TINY, base_seed=draw(st.integers(0, 2 ** 32)),
                  include_bfgs=draw(st.booleans()))
    return (ExperimentGrid(**{**common, **small, "num_seeds": slots}),
            ExperimentGrid(**{**common, **wider,
                              "num_seeds": slots + draw(st.integers(0, 3))}))


@settings(max_examples=60, deadline=None)
@given(grids=grid_and_wider())
def test_widening_a_grid_keeps_every_existing_seed(grids):
    small, wider = grids
    assert _ids_to_seeds(small).items() <= _ids_to_seeds(wider).items()


def test_csv_columns_are_the_row_keys(tiny_outcome):
    grid, outcome = tiny_outcome
    # Reordered variants reorder the columns; BFGS comes last.
    for variants in (["noavg", "unifavg"], ["unifavg", "noavg"]):
        rows = aggregate_rows(dataclasses.replace(grid, variants=variants),
                              outcome["runs"])
        header = rows_to_csv(rows).splitlines()[1]
        assert header.split(",") == list(rows[0])
        assert header.endswith(",bfgs_median,bfgs_iqr")
    assert list(aggregate_rows(grid, outcome["runs"])[0]) == \
        TINY_CSV_LINES[1].split(",")


def test_tiny_grid_frozen_output(tiny_outcome):
    _, outcome = tiny_outcome
    csv = rows_to_csv(outcome["rows"])
    assert csv.splitlines() == TINY_CSV_LINES
    assert csv.endswith("\n")


def test_grid_output_independent_of_jobs(tiny_outcome):
    grid, outcome = tiny_outcome
    parallel = run_grid(grid, jobs=2)
    assert rows_to_csv(outcome["rows"]) == rows_to_csv(parallel["rows"])
    assert outcome["runs"] == parallel["runs"]


def test_cell_reproducible_in_isolation(tiny_outcome):
    _, outcome = tiny_outcome
    rec = outcome["runs"][0]
    fields = [f.name for f in dataclasses.fields(RunSpec)
              if f.name != "keep_trace"]
    replay = execute_run(RunSpec(**{k: rec[k] for k in fields}))
    assert replay["iterations"] == rec["iterations"]
    assert replay["converged"] == rec["converged"]


def test_run_failures_are_captured():
    grid = ExperimentGrid(**TINY)
    spec = expand_grid(grid)[0]
    # s = 50 * d rows cannot be drawn from an n = 240 dataset.
    broken = dataclasses.replace(spec, s_mult=50.0)
    out = execute_run(broken)
    assert out["error"] is not None
    assert "ValueError" in out["error"]
    assert out["iterations"] is None
    assert not out["converged"]


class SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize("jobs, cpus, expected", [
    (10_000, 2, [2]),     # capped at the CPUs available
    (10_000, 64, [9]),    # capped at the grid's 9 runs
    (3, 64, [3]),         # jobs itself is the smallest
    (10_000, 1, []),      # one worker: runs in-process, no pool
])
def test_grid_workers_are_capped(tiny_outcome, monkeypatch, jobs, cpus,
                                 expected):
    grid, serial = tiny_outcome
    monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(bench, "_available_cpus", lambda: cpus)
    SerialPool.created = []
    outcome = run_grid(grid, jobs=jobs)
    assert SerialPool.created == expected
    assert outcome == serial


@pytest.mark.parametrize("pool", [False, True])
def test_run_grid_drops_shared_problems(monkeypatch, pool):
    if pool:
        monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(bench, "_available_cpus", lambda: 2)
    run_grid(ExperimentGrid(**dict(TINY, num_seeds=1)), jobs=2 if pool else 1)
    assert bench._shared_problem.cache_info().currsize == 0


def test_median_is_lower_median(tiny_outcome):
    grid, outcome = tiny_outcome
    runs = copy.deepcopy(outcome["runs"])
    fake = iter([10, 20, 30, 40])
    for rec in runs:
        if rec["variant"] == "unifavg":
            rec["iterations"] = next(fake)
            rec["converged"] = True
    row = aggregate_rows(grid, runs)[0]
    assert row["unifavg_median"] == 20
    assert row["unifavg_iqr"] == 20


def test_unfinished_runs_become_dnf(tiny_outcome):
    grid, outcome = tiny_outcome
    runs = copy.deepcopy(outcome["runs"])
    for rec in runs:
        if rec["variant"] == "unifavg" and rec["slot"] > 0:
            rec["iterations"] = None
            rec["converged"] = False
    row = aggregate_rows(grid, runs)[0]
    assert row["unifavg_median"] == DNF
    csv = rows_to_csv(aggregate_rows(grid, runs))
    assert "dnf" in csv


def test_all_dnf_cell_aggregates_without_warning(tiny_outcome):
    grid, outcome = tiny_outcome
    runs = copy.deepcopy(outcome["runs"])
    for rec in runs:
        if rec["variant"] == "unifavg":
            rec["iterations"] = None
            rec["converged"] = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = aggregate_rows(grid, runs)[0]
    assert row["unifavg_median"] == DNF
    assert row["unifavg_iqr"] == DNF


def test_dataset_csv_roundtrip(tmp_path):
    cfg = DataGenConfig(n=40, d=5, coherence_mode="low", kappa_A=3.0,
                        reg_nu=1e-3, seed=8)
    ds, _ = generate(cfg)
    path = tmp_path / "data.csv"
    save_dataset_csv(path, ds)
    text = path.read_text()
    assert text.startswith(CSV_VERSION + "\n")
    loaded = load_dataset_csv(path)
    assert np.array_equal(loaded.A, ds.A)
    assert np.array_equal(loaded.b, ds.b)


EDGE_VALUES = [-0.0, 5e-324, 1e-310, 1.7976931348623157e308, 1 / 3]


def _dataset_of_every_magnitude(n, d, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300,
                                                          size=(n, d))
    return Dataset(A=A, b=np.where(rng.random(n) < 0.5, 1, -1))


def _per_element_csv(ds):
    """The dataset CSV text, formatted one value at a time."""
    rows = [",".join("%.17g" % v for v in ds.A[i]) for i in range(ds.n)]
    labels = ",".join("%d" % v for v in ds.b)
    return "\n".join([CSV_VERSION, "%d,%d" % (ds.n, ds.d), *rows,
                      labels]) + "\n"


def test_dataset_csv_rows_match_per_element_format(tmp_path):
    # 600 rows of every magnitude, with the edge values in the first.
    ds = _dataset_of_every_magnitude(600, 7, seed=21)
    ds.A[0, :5] = EDGE_VALUES
    path = tmp_path / "data.csv"
    save_dataset_csv(path, ds)
    assert path.read_text() == _per_element_csv(ds)


class CountingPool(ProcessPoolExecutor):
    """A real process pool that records the max_workers of each one made."""

    created = []

    def __init__(self, max_workers, *args):
        self.created.append(max_workers)
        super().__init__(max_workers, *args)


@pytest.mark.parametrize("n, d, cpus, share_values, workers", [
    (7, 5, 3, 1, 2),     # 3 shares of 2, 2 and 3 rows
    (2, 5, 3, 1, 1),     # capped by n: 2 shares of one row
    (7, 5, 3, 15, 1),    # capped by the values per share: 35 // 15 = 2
    (600, 7, 3, 1000, 2),
    (600, 7, 1, 1, 0),   # one CPU: no pool
])
def test_dataset_csv_shares_match_per_element_format(
        tmp_path, monkeypatch, n, d, cpus, share_values, workers):
    monkeypatch.setattr(bench, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(bench, "_CSV_SHARE_VALUES", share_values)
    monkeypatch.setattr(bench, "ProcessPoolExecutor", CountingPool)
    CountingPool.created = []
    ds = _dataset_of_every_magnitude(n, d, seed=n + d)
    k = workers + 1
    for i in range(k):
        # The edge values in the first and last row of every share.
        ds.A[n * i // k, :5] = EDGE_VALUES
        ds.A[n * (i + 1) // k - 1, -5:] = EDGE_VALUES[::-1]
    path = tmp_path / "data.csv"
    save_dataset_csv(path, ds)
    assert CountingPool.created == ([workers] if workers else [])
    assert path.read_text() == _per_element_csv(ds)
    assert os.listdir(tmp_path) == ["data.csv"]


_WRITE_SHARE = bench._write_share


def _share_raises(path, start, stop):
    _WRITE_SHARE(path, start, stop)
    raise OSError("injected share failure")


def _share_exits(path, start, stop):
    _WRITE_SHARE(path, start, stop)
    os._exit(1)


def _share_unprivileged(path, start, stop):
    # Root may write into a read-only directory, so the worker drops to nobody.
    if os.geteuid() == 0:
        os.setuid(65534)
    _WRITE_SHARE(path, start, stop)


@pytest.mark.parametrize("writer, error, match, read_only, existed", [
    (_share_raises, OSError, "injected share failure", False, True),
    (_share_exits, BrokenProcessPool, None, False, True),
    (_share_unprivileged, PermissionError, None, True, True),
    (_share_raises, OSError, "injected share failure", False, False),
], ids=["raises", "exits", "unwritable-dir", "raises-no-old-file"])
def test_dataset_csv_share_failure_raises_and_leaves_no_part(
        tmp_path, monkeypatch, writer, error, match, read_only, existed):
    monkeypatch.setattr(bench, "_available_cpus", lambda: 3)
    monkeypatch.setattr(bench, "_CSV_SHARE_VALUES", 1)
    monkeypatch.setattr(bench, "_write_share", writer)
    ds = _dataset_of_every_magnitude(30, 4, seed=3)
    path = tmp_path / "data.csv"
    if existed:
        path.write_text("")
    if read_only:
        tmp_path.chmod(0o555)
    try:
        with pytest.raises(error, match=match):
            save_dataset_csv(path, ds)
    finally:
        tmp_path.chmod(0o755)
    # The old file keeps its bytes, and a failed write makes no new one.
    assert os.listdir(tmp_path) == (["data.csv"] if existed else [])
    if existed:
        assert path.read_text() == ""


def test_dataset_binary_roundtrip(tmp_path):
    cfg = DataGenConfig(n=40, d=5, coherence_mode="high", kappa_A=3.0,
                        reg_nu=1e-3, seed=8)
    ds, _ = generate(cfg)
    path = tmp_path / "data.bin"
    save_dataset_binary(path, ds)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.A, ds.A)
    assert np.array_equal(loaded.b, ds.b)


# Any finite float64, with the edge values always in the mix: signed zero,
# the smallest subnormal and normal, and the largest magnitudes.
FEATURE_VALUES = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308,
                     1.7976931348623157e308, -1.79e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def datasets(draw):
    # n up to 600, so files of many rows are drawn too.
    n = draw(st.integers(1, 600))
    d = draw(st.integers(1, 6))
    A = draw(arrays(np.float64, (n, d), elements=FEATURE_VALUES))
    b = draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    return Dataset(A=A, b=b)


@pytest.mark.parametrize("save", [save_dataset_csv, save_dataset_binary],
                         ids=["csv", "binary"])
@settings(max_examples=40, deadline=None)
@given(ds=datasets())
def test_dataset_files_roundtrip_any_finite_values(save, ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data"
        save(path, ds)
        loaded = load_dataset(path)
    assert loaded.A.shape == ds.A.shape
    assert loaded.A.tobytes() == ds.A.tobytes()
    assert np.array_equal(loaded.b, ds.b)


def test_load_dataset_sniffs_format(tmp_path):
    cfg = DataGenConfig(n=20, d=3, coherence_mode="low", kappa_A=2.0,
                        reg_nu=0.0, seed=1)
    ds, _ = generate(cfg)
    csv_path = tmp_path / "d.csv"
    bin_path = tmp_path / "d.bin"
    save_dataset_csv(csv_path, ds)
    save_dataset_binary(bin_path, ds)
    assert np.array_equal(load_dataset(csv_path).A, load_dataset(bin_path).A)


def test_corrupt_dataset_files_raise(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        load_dataset(bad)
    truncated = tmp_path / "trunc.csv"
    truncated.write_text(CSV_VERSION + "\n5,2\n1,2\n")
    with pytest.raises(ValueError):
        load_dataset_csv(truncated)
    header = BIN_MAGIC + struct.pack("<QQ", 2, 2)
    for name, blob in [("cut-header", BIN_MAGIC + b"\x00\x00"),
                       ("cut-body", header + b"\x00" * 47),
                       ("long-body", header + b"\x00" * 49),
                       ("huge", BIN_MAGIC + struct.pack("<QQ", 2 ** 62, 2 ** 62)
                        + b"\x00" * 48)]:
        path = tmp_path / (name + ".bin")
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="truncated dataset binary"):
            load_dataset(path)
    fraction = tmp_path / "fraction.bin"
    fraction.write_bytes(header + struct.pack("<6d", 1, 2, 4, 5, 1.5, -1))
    with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
        load_dataset(fraction)


@pytest.mark.parametrize("body", [
    "2,2\n1,2,3\n4,5,6\n1,-1\n",  # every feature row has d+1 fields
    "2,2\n1,2\n4,5,6\n1,-1\n",    # ragged feature rows
    "2,2\n1,2\n4,5\n1,-1,1\n",    # n+1 labels
    "2,2,2\n1,2\n4,5\n1,-1\n",    # three header fields
    "2,2\n1,2\n4,x\n1,-1\n",      # a value that is not a number
    "2,2\n1,2\n4,5\n1,0\n",       # a label outside {-1, +1}
    "2,2\n1,2\n4,5\n1.5,-1\n",    # a label that is not an integer
], ids=["wide", "ragged", "labels", "header", "value", "label-value",
        "label-fraction"])
def test_malformed_dataset_csv_names_the_file(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_VERSION + "\n" + body)
    with pytest.raises(ValueError, match="^" + re.escape(str(path))):
        load_dataset_csv(path)


# Signed zero, the smallest subnormal, a value that %g would round, the
# largest float, inf and nan.
TRACE_EDGES = [-0.0, 5e-324, 0.1, 1.7976931348623157e308, math.inf, math.nan]
TRACE_FLOAT_COLUMNS = ("f", "grad_norm", "hstar_error", "stepsize")


def test_trace_roundtrip(tmp_path):
    # Each float column takes each edge value once.
    records = []
    for t in range(6):
        edges = dict(zip(TRACE_FLOAT_COLUMNS,
                         TRACE_EDGES[t:] + TRACE_EDGES[:t]))
        records.append(IterationRecord(t=t, skipped=t % 2 == 0,
                                       backtracks=t % 3, **edges))
    path = tmp_path / "trace.csv"
    save_trace_csv(path, records)
    assert path.read_text().splitlines() == [
        CSV_VERSION,
        "t,f,grad_norm,hstar_error,stepsize,skipped,backtracks",
        "0,-0,4.9406564584124654e-324,0.10000000000000001,"
        "1.7976931348623157e+308,1,0",
        "1,4.9406564584124654e-324,0.10000000000000001,"
        "1.7976931348623157e+308,inf,0,1",
        "2,0.10000000000000001,1.7976931348623157e+308,inf,nan,1,2",
        "3,1.7976931348623157e+308,inf,nan,-0,0,0",
        "4,inf,nan,-0,4.9406564584124654e-324,1,1",
        "5,nan,-0,4.9406564584124654e-324,0.10000000000000001,0,2",
    ]
    cols = load_trace_csv(path)
    assert list(cols) == [f.name for f in dataclasses.fields(IterationRecord)]
    for name in TRACE_FLOAT_COLUMNS:
        want = np.array([getattr(r, name) for r in records])
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(cols[name]), nan)
        assert cols[name][~nan].tobytes() == want[~nan].tobytes()
    assert np.array_equal(cols["t"], np.arange(6.0))
    assert np.array_equal(cols["skipped"], [1.0, 0.0] * 3)
    assert np.array_equal(cols["backtracks"], [0.0, 1.0, 2.0] * 2)
    # numpy scalars, as rates passes them: %d integers, %.17g floats.
    write_csv(path, ("t", "ratio"),
              zip(np.array([0, 2 ** 62], dtype=np.int64),
                  np.array([0.1, -0.0], dtype=np.float64)))
    assert path.read_text().splitlines() == [
        CSV_VERSION, "t,ratio", "0,0.10000000000000001",
        "4611686018427387904,-0"]


def _rows_then_failure():
    yield (1, 0.5)
    raise OSError("injected row failure")


@pytest.mark.parametrize("write, payload, error", [
    (lambda path, rows: write_csv(path, ("t", "ratio"), rows()),
     _rows_then_failure, OSError),
    (write_json, {"a": 1, "b": object()}, TypeError),
], ids=["csv", "json"])
def test_writers_leave_path_as_it_was_on_failure(tmp_path, write, payload,
                                                  error):
    # json.dump fails after it has written part of the object.  Either way
    # the old file keeps its bytes and no part file is left.
    path = tmp_path / "out"
    path.write_text("old")
    with pytest.raises(error):
        write(path, payload)
    assert os.listdir(tmp_path) == ["out"]
    assert path.read_text() == "old"


def test_ratio_series_drops_zero_pairs():
    errors = np.array([8.0, 4.0, 0.0, 2.0, 1.0])
    idx, ratios = ratio_series(errors)
    assert list(idx) == [0, 3]
    assert np.allclose(ratios, [0.5, 0.5], rtol=1e-15, atol=0)
