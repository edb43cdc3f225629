"""Experiment campaigns: parameter grids, deterministic seed derivation,
optional multi-process execution, CSV emission and stat-labelled summaries.

One *cell* is a full coordinate tuple (kind, n, delta, r, tau, alpha, algo,
bound); each cell is run ``runs`` times. Child seeds are a pure function of
the base seed and the cell coordinates, so output is byte-identical no matter
how many worker processes execute the grid. Runs with the same run index
share a capacity trajectory across algorithms, which pairs the comparisons.
"""

from __future__ import annotations

import csv
import io
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import dynamics, oracle, solvers, stats
from .chance import BOUND_KINDS, ChanceParams
from .model import generate_instance, normalize_kind
from .solvers import ALGORITHMS

RUNS_CSV_HEADER = ("cell_id,algo,bound,r,tau,delta,alpha,run_seed,"
                   "total_offline_error,feasible_fraction,change_count")
SUMMARY_CSV_HEADER = ("cell_id,algo,bound,r,tau,delta,alpha,runs,"
                      "mean_offline_error,std_offline_error,stat")
TRACE_CSV_HEADER = "iteration,capacity,best_profit,violation_prob,phi"
# the columns runs.csv and summary.csv share, copied as text
_CELL_COLUMNS = ("cell_id", "algo", "bound", "r", "tau", "delta", "alpha")


@dataclass(frozen=True)
class CampaignConfig:
    kind: str = "uncorrelated"
    n: int = 100
    deltas: tuple = (25,)
    c_constant: int = 100
    instance_seed: int = 1
    rs: tuple = (500,)
    taus: tuple = (1000,)
    alphas: tuple = (0.01,)
    algos: tuple = ("ea11", "posdc")
    bounds: tuple = ("chebyshev", "chernoff")
    runs: int = 10
    total_iters: int = 100_000  # post-warmup (measured) iterations
    warmup: int = 1_000
    c0_fraction: float = 0.5
    base_seed: int = 0
    out_dir: str | None = None
    jobs: int = 1
    trace: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kind", normalize_kind(self.kind))
        for name in ("runs", "total_iters", "jobs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.c0_fraction <= 1.0:
            raise ValueError(f"c0_fraction must be in (0, 1], got {self.c0_fraction}")
        for name in ("base_seed", "instance_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("deltas", "rs", "taus", "alphas", "algos", "bounds"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        for a in self.algos:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}")
        # every other value is checked by the call that uses it; make each
        # call once here, so a bad grid fails before any run starts (a
        # schedule of one iteration checks every argument without the walk)
        instances = [generate_instance(self.kind, self.n, d, self.c_constant,
                                       self.instance_seed) for d in self.deltas]
        for alpha, delta, bound in product(self.alphas, self.deltas, self.bounds):
            ChanceParams(alpha, delta, bound)
        # item weights do not depend on delta, so one instance settles c0
        c0 = dynamics.default_initial_capacity(instances[0], self.c0_fraction)
        c_min, c_max = dynamics.default_clamp_bounds(instances[0])
        for r, tau in product(self.rs, self.taus):
            dynamics.build_schedule(c0, tau, r, self.warmup, self.warmup + 1,
                                    c_min, c_max)
        # runs.csv, and the summary computed from it, key cells by their id
        ids = [cell.cell_id for cell in enumerate_cells(self)]
        if len(set(ids)) != len(ids):
            raise ValueError("grid values repeat, or alphas agree in the 6 "
                             "significant digits a cell id shows")


@dataclass(frozen=True)
class Cell:
    kind: str
    n: int
    delta: int
    r: int
    tau: int
    alpha: float
    algo: str
    bound: str

    @property
    def cell_id(self) -> str:
        return (f"{self.kind}-n{self.n}-d{self.delta}-r{self.r}-t{self.tau}"
                f"-a{self.alpha:g}-{self.algo}-{self.bound}")


def enumerate_cells(config: CampaignConfig) -> list[Cell]:
    return [Cell(config.kind, config.n, d, r, t, a, algo, bound)
            for d, r, t, a, algo, bound in product(
                config.deltas, config.rs, config.taus, config.alphas,
                config.algos, config.bounds)]


def _alpha_key(alpha: float) -> int:
    # stable 64-bit encoding of the float for seed derivation
    return struct.unpack("<Q", struct.pack("<d", float(alpha)))[0]


def run_seed_for(config: CampaignConfig, cell: Cell, run_idx: int) -> int:
    """Solver seed: pure function of base seed + full cell coordinates."""
    ss = np.random.SeedSequence((config.base_seed, cell.delta, cell.r, cell.tau,
                                 _alpha_key(cell.alpha),
                                 ALGORITHMS.index(cell.algo),
                                 BOUND_KINDS.index(cell.bound), run_idx))
    return int(ss.generate_state(1, np.uint64)[0])


def schedule_seed_for(config: CampaignConfig, cell: Cell, run_idx: int) -> int:
    """Schedule seed: independent of algo/bound/alpha so every variant at the
    same run index faces the same capacity trajectory."""
    ss = np.random.SeedSequence((config.base_seed, 0xD7, cell.delta, cell.r,
                                 cell.tau, run_idx))
    return int(ss.generate_state(1, np.uint64)[0])


# per-process inputs, one entry per name; ``run_campaign`` puts the runs that
# share an instance, a DP table or a schedule next to each other
_MEMO: dict = {}  # name -> (key, value)


def _memo(name: str, key, build):
    """``build()``, reused while ``name`` is asked for the same ``key``."""
    if _MEMO.get(name, (None,))[0] != key:
        _MEMO.pop(name, None)  # the old value goes before the new one is built
        _MEMO[name] = (key, build())
    return _MEMO[name][1]


def _instance_and_dp(config: CampaignConfig, delta: int):
    """(instance, DP table, c0, c_min, c_max) for one delta of the grid."""
    key = (config.kind, config.n, delta, config.c_constant, config.instance_seed)
    def build_instance():
        inst = generate_instance(*key)
        return (inst, dynamics.default_initial_capacity(inst, config.c0_fraction),
                *dynamics.default_clamp_bounds(inst))

    inst, c0, c_min, c_max = _memo("instance", (key, config.c0_fraction),
                                   build_instance)
    # items (profits, expected weights) are drawn independently of delta, so
    # every delta of an instance shares one DP table; it covers the
    # capacities the grid's widest schedules (largest r, smallest tau) reach
    low, high = dynamics.capacity_range(
        c0, min(config.taus), max(config.rs), config.warmup,
        config.warmup + config.total_iters, c_min, c_max)
    dp = _memo("dp", (config.kind, config.n, config.c_constant,
                      config.instance_seed, low, high),
               lambda: oracle.dp_optimal_profits(inst, high, low))
    return inst, dp, c0, c_min, c_max


def execute_run(config: CampaignConfig, cell: Cell, run_idx: int):
    """Run one grid point; returns (cell, run_idx, RunRecord)."""
    inst, dp, c0, c_min, c_max = _instance_and_dp(config, cell.delta)
    args = (c0, cell.tau, cell.r, config.warmup, config.warmup + config.total_iters,
            c_min, c_max, schedule_seed_for(config, cell, run_idx))
    schedule = _memo("schedule", args, lambda: dynamics.build_schedule(*args))
    params = ChanceParams(alpha=cell.alpha, delta=cell.delta, bound_kind=cell.bound)
    rec = solvers.run_algorithm(cell.algo, inst, schedule, params, dp,
                                run_seed_for(config, cell, run_idx))
    return cell, run_idx, rec


def _execute_task(args):
    config, cell, run_idx = args
    return execute_run(config, cell, run_idx)


@dataclass
class CampaignResult:
    config: CampaignConfig
    cells: list
    records: dict          # (cell, run_idx) -> RunRecord
    summary_rows: list     # parsed summary rows, one per cell
    runs_csv: str
    summary_csv: str


def _format_float(x: float) -> str:
    return repr(float(x))


def _runs_csv(config, cells, records) -> str:
    buf = io.StringIO()
    buf.write(RUNS_CSV_HEADER + "\n")
    for cell in cells:
        for j in range(config.runs):
            rec = records[(cell, j)]
            buf.write(",".join([
                cell.cell_id, cell.algo, cell.bound, str(cell.r), str(cell.tau),
                str(cell.delta), _format_float(cell.alpha), str(rec.run_seed),
                _format_float(rec.total_offline_error),
                _format_float(rec.feasible_fraction), str(rec.change_count),
            ]) + "\n")
    return buf.getvalue()


def format_summary_csv(rows) -> str:
    """summary.csv text of rows as ``summarize_runs_csv`` returns them."""
    buf = io.StringIO()
    buf.write(SUMMARY_CSV_HEADER + "\n")
    for row in rows:
        buf.write(",".join([
            *(row[key] for key in _CELL_COLUMNS), str(row["runs"]),
            _format_float(row["mean"]), _format_float(row["std"]), row["stat"],
        ]) + "\n")
    return buf.getvalue()


def _trace_csv(rec) -> str:
    """A run's interval log, one row per entry: its first post-warmup
    iteration and the exact values that hold from there to the next entry."""
    log = rec.intervals
    rows = zip(log.starts.tolist(), *(log.columns[name].tolist() for name in
                                      ("capacity", "best_profit", "violation", "phi")))
    return TRACE_CSV_HEADER + "\n" + "".join(
        f"{j},{cap},{profit},{_format_float(viol)},{_format_float(phi)}\n"
        for j, cap, profit, viol, phi in rows)


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Execute the full grid and (optionally) write the CSV outputs.

    Output text is independent of ``jobs`` and of task completion order.
    """
    cells = enumerate_cells(config)
    if config.out_dir is not None:  # a bad path fails before the first run
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    # the runs that share a schedule (delta, r, tau, run index) are adjacent,
    # so each process builds it at most once; output stays in cell order
    tasks = sorted(((config, cell, j) for cell in cells for j in range(config.runs)),
                   key=lambda task: (task[1].delta, task[1].r, task[1].tau, task[2]))
    records = {}
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            for cell, j, rec in pool.map(_execute_task, tasks, chunksize=1):
                records[(cell, j)] = rec
    else:
        for task in tasks:
            cell, j, rec = _execute_task(task)
            records[(cell, j)] = rec

    runs_csv = _runs_csv(config, cells, records)
    # the summary is a function of runs.csv alone, so `dcckp summarize`
    # reproduces summary.csv from it
    summary_rows = summarize_runs_csv(runs_csv)
    summary_csv = format_summary_csv(summary_rows)

    result = CampaignResult(config=config, cells=cells, records=records,
                            summary_rows=summary_rows, runs_csv=runs_csv,
                            summary_csv=summary_csv)
    if config.out_dir is not None:
        out = Path(config.out_dir)
        (out / "runs.csv").write_text(runs_csv)
        (out / "summary.csv").write_text(summary_csv)
        if config.trace:
            for (cell, j), rec in records.items():
                (out / f"trace-{cell.cell_id}-run{j}.csv").write_text(_trace_csv(rec))
    return result


def group_runs_csv(text: str, family_alpha: float = 0.05):
    """The runs of a runs.csv payload by setting, in file order: yields
    (setting, rows by cell, ``total_offline_error`` values by cell, labels).
    The cells of a setting share its cell id up to the algo/bound suffix and
    are the variants compared with each other; ``labels`` is
    ``stats.pairwise_labels`` at ``family_alpha``, or None for a setting
    that is not ``stats.testable``."""
    if (text.splitlines() or [""])[0] != RUNS_CSV_HEADER:
        raise ValueError(f"not a runs.csv: its first line must be {RUNS_CSV_HEADER}")
    groups: dict[str, dict[str, list[dict]]] = {}
    for row in csv.DictReader(io.StringIO(text)):
        cid = row["cell_id"]
        groups.setdefault(cid.rsplit("-", 2)[0], {}).setdefault(cid, []).append(row)
    for setting, family in groups.items():
        named = {cid: [float(r["total_offline_error"]) for r in rows]
                 for cid, rows in family.items()}
        labels = stats.pairwise_labels(named, family_alpha) if stats.testable(named) else None
        yield setting, family, named, labels


def summarize_runs_csv(text: str) -> list[dict]:
    """Per-cell runs, mean and std of the total offline error, plus stat
    labels against the other cells of its setting, from a runs.csv payload;
    the labels stay blank in a setting that is not ``stats.testable``. Each
    row also carries the cell's coordinate columns as written."""
    out_rows = []
    for _, family, named, labels in group_runs_csv(text):
        for cid, rows in family.items():
            vals = np.asarray(named[cid])
            stat = stats.format_stat_column(labels, list(named), cid) if labels else ""
            out_rows.append({
                **{key: rows[0][key] for key in _CELL_COLUMNS},
                "runs": len(vals), "mean": float(vals.mean()),
                "std": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
                "stat": stat,
            })
    return out_rows
