"""Experiment grids, aggregation, and file formats.

This module turns a grid description (coherence modes x condition numbers
x sample sizes x oracles x averaging variants x seeds) into independent
solver runs, executes them serially or across a process pool, and
aggregates iteration counts into median/IQR rows.  It also owns the
on-disk formats: the dataset binary, and the versioned CSV (write_csv,
read_csv) behind every CSV file the package writes or reads.

Seeding: every run's seed is derived from the base seed plus a hash of
the cell coordinates (coherence, kappa power, s multiple, oracle, variant,
seed slot), so editing a grid never reshuffles the seeds of cells that
stay, and any cell can be reproduced in isolation from its recorded seed.
The run seed drives only the solver's oracle stream; all runs of a setup
share one dataset whose seed hashes just (coherence, kappa power), and the
deterministic BFGS baseline runs once per dataset.

Aggregation conventions: runs that fail to converge within max_iter count
as infinity and render as "dnf"; medians and quartiles use the inverted-CDF
(lower) convention so results are platform-stable integers.
"""

import contextlib
import hashlib
import math
import multiprocessing
import os
import struct
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache

import numpy as np

from .averaging import LastOnly, LogPower, Uniform
from .datagen import DataGenConfig, generate
from .oracles import CountSketch, Exact, GaussianSketch, LessUniform, Subsample
from .problem import Dataset, RegularizedLogistic, solve_reference
from .solver import (DEFAULT_BETA, DEFAULT_RHO, DEFAULT_TOL, SolverConfig,
                     bfgs_run, run)

CSV_VERSION = "# hessavg-csv v1"
BIN_MAGIC = b"HAVG1"
_BIN_HEADER = struct.Struct("<5sQQ")  # BIN_MAGIC, then uint64 n and d
DNF = "dnf"
TRACE_COLUMNS = ("t", "f", "grad_norm", "hstar_error", "stepsize",
                 "skipped", "backtracks")

# The weighted variant grows w(t) as (t+1)^{log10(t+1)}.  The natural-base
# sequence puts roughly 2 ln(t) / t of the weight on the newest estimate,
# which at benchmark scale (tolerance 1e-6 is reached near t = 25) leaves
# too little averaging to damp the per-draw noise of the sketching oracles;
# the base-10 exponent keeps the same eventual growth class while widening
# the window enough for those cells to finish contracting.
_WEIGHTS_BY_VARIANT = {
    "noavg": LastOnly(),
    "unifavg": Uniform(),
    "weightavg": LogPower(scale=1.0 / math.log(10.0)),
}
# Each builder takes the sample/sketch size s; the oracle checks it.
_ORACLES_BY_NAME = {
    "exact": lambda s: Exact(),
    "subsample": Subsample,
    "gauss": GaussianSketch,
    "countsketch": CountSketch,
    "less": LessUniform,
}
VARIANTS = tuple(_WEIGHTS_BY_VARIANT)
ORACLES = tuple(_ORACLES_BY_NAME)


def weights_for_variant(name: str):
    if name not in _WEIGHTS_BY_VARIANT:
        raise ValueError("unknown variant %r" % (name,))
    return _WEIGHTS_BY_VARIANT[name]


def oracle_for_name(name: str, s: int):
    if name not in _ORACLES_BY_NAME:
        raise ValueError("unknown oracle %r" % (name,))
    return _ORACLES_BY_NAME[name](s)


def kappa_a(d: int, kappa_power: float) -> float:
    # math.pow raises ValueError where ** would raise ZeroDivisionError
    # (d = 0) or return a complex (d < 0), so a bad d reads as bad input.
    return math.pow(d, kappa_power)


def sample_size(s_mult: float, d: int) -> int:
    """The oracle size s for a grid's multiple of d."""
    return round(s_mult * d)


def _check_type(name: str, value, kind) -> None:
    """ValueError naming the grid field unless value has its declared type.

    An int passes where a float is declared; a bool passes only as a bool.
    """
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise ValueError("grid field %s must be a list, got %r"
                             % (name, value))
        for item in value:
            _check_type(name, item, typing.get_args(kind)[0])
        return
    allowed = (int, float) if kind is float else kind
    if not isinstance(value, allowed) or isinstance(value, bool) != (kind is bool):
        raise ValueError("grid field %s must hold %s, got %r"
                         % (name, kind.__name__, value))


@dataclass
class ExperimentGrid:
    """Grid description; kappa_list holds powers of d, s_list multiples of d."""

    coherence_modes: list[str] = field(default_factory=lambda: ["low"])
    kappa_list: list[float] = field(default_factory=lambda: [1.0])
    s_list: list[float] = field(default_factory=lambda: [1.0])
    oracle_kinds: list[str] = field(default_factory=lambda: ["subsample"])
    variants: list[str] = field(default_factory=lambda: list(VARIANTS))
    num_seeds: int = 50
    base_seed: int = 0
    tol: float = DEFAULT_TOL
    max_iter: int = 999
    n: int = 1000
    d: int = 100
    reg_nu: float = 1e-3
    include_bfgs: bool = False
    beta: float = DEFAULT_BETA
    rho: float = DEFAULT_RHO

    def __post_init__(self):
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name), f.type)
        # An empty list would leave a grid without rows or runs, and skip the
        # checks made per dataset below.
        for name in ("coherence_modes", "kappa_list", "s_list",
                     "oracle_kinds", "variants"):
            if not getattr(self, name):
                raise ValueError("%s must be nonempty" % name)
        if self.num_seeds < 1:
            raise ValueError("num_seeds must be >= 1")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        if self.base_seed < 0:
            raise ValueError("base_seed must be nonnegative")
        # The configs the runs build check the remaining parameters.
        SolverConfig(beta=self.beta, rho_backtrack=self.rho,
                     max_iter=self.max_iter, tol_hstar=self.tol)
        for coherence in self.coherence_modes:
            for kappa_power in self.kappa_list:
                DataGenConfig(n=self.n, d=self.d, coherence_mode=coherence,
                              kappa_A=kappa_a(self.d, kappa_power),
                              reg_nu=self.reg_nu, seed=self.base_seed)
        for s_mult in self.s_list:
            if not math.isfinite(s_mult):
                raise ValueError("s_list entry %r is not finite" % (s_mult,))
            s = sample_size(s_mult, self.d)
            if not 1 <= s <= self.n:
                raise ValueError("s_list entry %r gives s = %d, outside "
                                 "[1, n = %d]" % (s_mult, s, self.n))
            for name in self.oracle_kinds:
                oracle_for_name(name, s)
        for name in self.variants:
            weights_for_variant(name)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentGrid":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError("unknown grid fields: %s" % ", ".join(sorted(unknown)))
        return cls(**data)


@dataclass
class RunSpec:
    """One independent run; all fields are plain values (pool-friendly)."""

    coherence: str
    kappa_power: float
    s_mult: float
    oracle: str
    variant: str
    slot: int
    seed: int
    dataset_seed: int
    n: int
    d: int
    reg_nu: float
    tol: float
    max_iter: int
    beta: float
    rho: float
    keep_trace: bool = False


def stable_seed(base_seed: int, *parts) -> int:
    """Seed from identifying parts, independent of grid layout.

    Hashing the identifiers (rather than enumerating grid positions) means
    inserting or reordering grid rows never changes the seed of a cell that
    stays.
    """
    words = ["%.12g" % p if isinstance(p, float) else str(p) for p in parts]
    digest = hashlib.sha256("|".join(words).encode("ascii")).digest()
    return int(base_seed) + int.from_bytes(digest[:6], "big")


def _setups(grid: ExperimentGrid):
    for coherence in grid.coherence_modes:
        for kappa_power in grid.kappa_list:
            for s_mult in grid.s_list:
                for oracle in grid.oracle_kinds:
                    yield coherence, float(kappa_power), float(s_mult), oracle


def expand_grid(grid: ExperimentGrid, keep_trace: bool = False) -> list:
    """All run specs in deterministic order (solver cells, then BFGS).

    The deterministic BFGS baseline gets a single spec per dataset; the
    stochastic variants get one per seed slot.
    """
    specs = []

    def add(coherence, kappa_power, s_mult, oracle, variant, slot):
        specs.append(RunSpec(
            coherence=coherence, kappa_power=kappa_power, s_mult=s_mult,
            oracle=oracle, variant=variant, slot=slot,
            seed=stable_seed(grid.base_seed, coherence, kappa_power, s_mult,
                             oracle, variant, slot),
            dataset_seed=stable_seed(grid.base_seed, "dataset", coherence,
                                     kappa_power),
            n=grid.n, d=grid.d, reg_nu=grid.reg_nu, tol=grid.tol,
            max_iter=grid.max_iter, beta=grid.beta, rho=grid.rho,
            keep_trace=keep_trace))

    for coherence, kappa_power, s_mult, oracle in _setups(grid):
        for variant in grid.variants:
            for slot in range(grid.num_seeds):
                add(coherence, kappa_power, s_mult, oracle, variant, slot)
    if grid.include_bfgs:
        for coherence in grid.coherence_modes:
            for kappa_power in grid.kappa_list:
                add(coherence, float(kappa_power), 0.0, "none", "bfgs", 0)
    return specs


@lru_cache(maxsize=32)
def _shared_problem(n, d, coherence, kappa_a, reg_nu, seed):
    """Dataset, objective, and reference solution shared by a setup's runs.

    Cached per process so a worker pays the reference solve once per setup
    it touches; everything returned is treated as immutable downstream.
    """
    cfg = DataGenConfig(n=n, d=d, coherence_mode=coherence, kappa_A=kappa_a,
                        reg_nu=reg_nu, seed=seed)
    ds, _ = generate(cfg)
    obj = RegularizedLogistic(ds, reg_nu)
    ref = solve_reference(obj, np.zeros(d))
    return obj, ref


def execute_run(spec: RunSpec) -> dict:
    """Solve one run against its setup's shared dataset and report the count.

    Failures are captured in the record's "error" field so a grid keeps
    going when one cell breaks.
    """
    out = asdict(spec)
    del out["keep_trace"]
    out["kappa_a"] = kappa_a(spec.d, spec.kappa_power)
    out["s"] = sample_size(spec.s_mult, spec.d) if spec.oracle != "none" else 0
    out.update(iterations=None, converged=False, error=None)
    try:
        obj, ref = _shared_problem(spec.n, spec.d, spec.coherence,
                                   out["kappa_a"], spec.reg_nu,
                                   spec.dataset_seed)
        solve, stochastic = bfgs_run, {}
        if spec.variant != "bfgs":
            solve, stochastic = run, dict(
                oracle=oracle_for_name(spec.oracle, out["s"]),
                weights=weights_for_variant(spec.variant))
        config = SolverConfig(beta=spec.beta, rho_backtrack=spec.rho,
                              max_iter=spec.max_iter, tol_hstar=spec.tol,
                              seed=spec.seed, **stochastic)
        result = solve(obj, np.zeros(spec.d), config, ref)
        out["iterations"] = result.iterations_to_tol
        out["converged"] = result.converged
        if spec.keep_trace:
            out["hstar_trace"] = [r.hstar_error for r in result.records]
    except Exception as exc:
        out["error"] = "%s: %s" % (type(exc).__name__, exc)
    return out


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where supported)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_grid(grid: ExperimentGrid, jobs: int = 1,
             keep_trace: bool = False) -> dict:
    """Execute every run and aggregate; identical output for any jobs value.

    Uses min(jobs, available CPUs, runs) workers, since a pool starts all
    of its workers at once; with one worker the runs execute in-process.
    The shared datasets are dropped afterwards, so none outlives the call.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    specs = expand_grid(grid, keep_trace=keep_trace)
    workers = min(jobs, _available_cpus(), len(specs))
    try:
        if workers <= 1:
            runs = [execute_run(spec) for spec in specs]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                runs = list(pool.map(execute_run, specs, chunksize=1))
    finally:
        _shared_problem.cache_clear()
    return {"rows": aggregate_rows(grid, runs), "runs": runs}


def _cell_quantiles(values):
    """(median, iqr) strings/ints from iteration counts with None as dnf."""
    arr = np.array([np.inf if v is None else float(v) for v in values])
    q1, med, q3 = np.quantile(arr, [0.25, 0.5, 0.75], method="inverted_cdf")
    med_out = int(med) if np.isfinite(med) else DNF
    iqr_out = int(q3 - q1) if np.isfinite(q3) else DNF
    return med_out, iqr_out


def aggregate_rows(grid: ExperimentGrid, runs: list) -> list:
    """One row per setup with per-variant medians and IQRs."""
    by_cell = {}
    for rec in runs:
        key = (rec["coherence"], rec["kappa_power"], rec["s_mult"],
               rec["oracle"], rec["variant"])
        cell = by_cell.setdefault(key, {})
        cell[rec["slot"]] = None if rec["error"] else rec["iterations"]
    rows = []
    for coherence, kappa_power, s_mult, oracle in _setups(grid):
        row = {
            "coherence": coherence,
            "kappa_a": kappa_a(grid.d, kappa_power),
            "s": sample_size(s_mult, grid.d),
            "oracle": oracle,
        }
        for variant in grid.variants:
            cell = by_cell[(coherence, kappa_power, s_mult, oracle, variant)]
            med, iqr = _cell_quantiles(
                [cell.get(slot) for slot in range(grid.num_seeds)])
            row["%s_median" % variant] = med
            row["%s_iqr" % variant] = iqr
        if grid.include_bfgs:
            cell = by_cell[(coherence, kappa_power, 0.0, "none", "bfgs")]
            med, iqr = _cell_quantiles([cell.get(0)])
            row["bfgs_median"] = med
            row["bfgs_iqr"] = iqr
        rows.append(row)
    return rows


def rows_to_csv(rows: list) -> str:
    """Render aggregated rows as the versioned benchmark CSV.

    The columns are the row keys, which aggregate_rows inserts in order.
    """
    lines = [",".join("%g" % v if isinstance(v, float) else str(v)
                      for v in row.values()) for row in rows]
    return _csv_text(list(rows[0]), lines)


def _csv_text(header, lines) -> str:
    return "\n".join([CSV_VERSION, ",".join(header), *lines]) + "\n"


def write_csv(path, header, lines) -> None:
    """Versioned CSV: version comment, header fields, formatted lines."""
    with open(path, "w") as fh:
        fh.write(_csv_text(header, lines))


def read_csv(path, what: str) -> list:
    """Fields of each non-comment row, header first; ValueError if none."""
    with open(path) as fh:
        rows = [line.strip().split(",") for line in fh
                if line.strip() and not line.startswith("#")]
    if not rows:
        raise ValueError("%s: empty %s file" % (path, what))
    return rows


# Each share of a dataset CSV's rows holds at least this many values (about
# 0.25 s of formatting), so the pool's start, about 20 ms, stays small.
_CSV_SHARE_VALUES = 250_000
_share_rows = []  # [A], appended by the pool initializer in share workers


def _write_share(path, start, stop) -> None:
    np.savetxt(path, _share_rows[0][start:stop], fmt="%.17g", delimiter=",")


def save_dataset_csv(path, ds: Dataset) -> None:
    """Dataset CSV: version comment, "n,d", n feature rows, one label row.

    The rows go out in k contiguous shares at once: forked workers inherit A
    (pickling it would raise this process's peak memory) and write shares
    1..k-1 to part files next to path, which are appended in order and
    always removed, while this process writes share 0.
    """
    n, d = ds.A.shape
    k = max(1, min(_available_cpus(), n, n * d // _CSV_SHARE_VALUES))
    parts = ["%s.%d.part%d" % (path, os.getpid(), i) for i in range(1, k)]
    pool = (ProcessPoolExecutor(k - 1, multiprocessing.get_context("fork"),
                                _share_rows.append, (ds.A,))
            if parts else contextlib.nullcontext())
    try:
        with pool, open(path, "w") as fh:
            writes = [pool.submit(_write_share, part, n * i // k,
                                  n * (i + 1) // k)
                      for i, part in enumerate(parts, 1)]
            fh.write(_csv_text(("%d" % n, "%d" % d), []))
            np.savetxt(fh, ds.A[:n // k], fmt="%.17g", delimiter=",")
            fh.flush()
            for write, part in zip(writes, parts):
                write.result()
                with open(part, "rb") as src:
                    while os.sendfile(fh.fileno(), src.fileno(), None, 1 << 30):
                        pass
            fh.write(",".join("%d" % v for v in ds.b) + "\n")
    finally:
        for part in filter(os.path.exists, parts):
            os.remove(part)


def load_dataset_csv(path) -> Dataset:
    rows = read_csv(path, "dataset")
    try:
        n, d = (int(v) for v in rows[0])
        if (len(rows) != n + 2 or len(rows[-1]) != n
                or any(len(row) != d for row in rows[1:-1])):
            raise ValueError("expected %d rows of %d fields, then %d labels"
                             % (n, d, n))
        A = np.array(rows[1:-1], dtype=float)
        return Dataset(A=A, b=np.array(rows[-1], dtype=float))
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def save_dataset_binary(path, ds: Dataset) -> None:
    """Dataset binary: magic HAVG1, uint64 n and d, then row-major f64 A, f64 labels (all little-endian)."""
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(BIN_MAGIC, ds.n, ds.d))
        np.ascontiguousarray(ds.A, dtype="<f8").tofile(fh)
        ds.b.astype("<f8").tofile(fh)


def load_dataset(path) -> Dataset:
    """Load either dataset format, sniffing the binary magic."""
    with open(path, "rb") as fh:
        head = fh.read(_BIN_HEADER.size)
        if head[:len(BIN_MAGIC)] != BIN_MAGIC:
            return load_dataset_csv(path)
        if len(head) < _BIN_HEADER.size:
            raise ValueError("%s: truncated dataset binary" % path)
        _, n, d = _BIN_HEADER.unpack(head)
        if os.fstat(fh.fileno()).st_size != len(head) + 8 * n * (d + 1):
            raise ValueError("%s: truncated dataset binary" % path)
        A = np.fromfile(fh, dtype="<f8", count=n * d).reshape(n, d)
        b = np.fromfile(fh, dtype="<f8", count=n)
    return Dataset(A=A, b=b)


def save_trace_csv(path, records) -> None:
    """Per-iteration trace CSV with the versioned header."""
    write_csv(path, TRACE_COLUMNS, [
        "%d,%.17g,%.17g,%.17g,%.17g,%d,%d" % (
            r.t, r.f_value, r.grad_norm, r.hstar_error, r.stepsize,
            int(r.skipped), r.backtracks)
        for r in records])


def load_trace_csv(path) -> dict:
    """Trace CSV back as {column: array}."""
    header, *rows = read_csv(path, "trace")
    if any(len(row) != len(header) for row in rows):
        raise ValueError("%s: ragged trace file" % path)
    try:
        data = np.array(rows, dtype=float)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
    data = data.reshape(len(rows), len(header))
    return {name: data[:, j] for j, name in enumerate(header)}


def ratio_series(errors: np.ndarray):
    """(index, ratio) arrays of consecutive error ratios e_{t+1}/e_t.

    Pairs touching an exact zero are dropped: once the error is exactly
    zero the ratio carries no information.
    """
    errors = np.asarray(errors, dtype=float)
    prev, nxt = errors[:-1], errors[1:]
    mask = (prev > 0.0) & (nxt > 0.0)
    idx = np.nonzero(mask)[0]
    return idx, nxt[mask] / prev[mask]
