"""Offline-error measure: per-iteration distance to the moving optimum,
penalized when the designated solution violates the chance constraint.

Phi only changes at events: a capacity change or a new designated solution.
A run therefore keeps its per-iteration series as an interval log (one entry
per run of equal values), and the dense series are rebuilt from it on read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np


def offline_error(p_star: float, p_x: float, violation_prob: float,
                  alpha: float) -> float:
    """Distance to the optimum for one iteration.

    Feasible designated solutions (violation <= alpha) score p_star - p_x;
    infeasible ones score (1 + violation) * p_star, which always dominates any
    feasible score.
    """
    if violation_prob <= alpha:
        return float(p_star - p_x)
    return (1.0 + violation_prob) * p_star


def total_offline_error(phis) -> float:
    """Mean offline error over a run's post-warmup iterations."""
    arr = np.asarray(phis, np.float64)
    if arr.size == 0:
        raise ValueError("offline-error series is empty")
    return float(arr.mean())


# log columns in row order, with the dtype of their per-iteration series;
# the last three are kept only for traced runs
COLUMNS = (("phi", np.float64), ("feasible", bool), ("capacity", np.int64),
           ("best_profit", np.int64), ("violation", np.float64))


@dataclass(frozen=True)
class IntervalLog:
    """Per-iteration series stored as runs of equal values.

    Entry t holds on iterations ``starts[t]`` up to the next start (the last
    entry up to ``length - 1``); ``columns`` maps a name of ``COLUMNS`` to
    its per-entry values.
    """

    length: int
    starts: np.ndarray
    columns: dict

    def series(self, name: str):
        """The dense per-iteration series of one column, or None if the log
        does not keep it."""
        values = self.columns.get(name)
        if values is None:
            return None
        return np.repeat(values, np.diff(self.starts, append=self.length))


class OfflineErrorRecorder:
    """Builds a run's interval log from the iterations at which the
    capacity or the designated solution may have changed.

    ``record`` must be called at the first iteration of the run, at every
    capacity change and after every change of the designated solution, in
    iteration order. Warm-up iterations are not scored: the last record at or
    before the end of warm-up opens the log.
    """

    def __init__(self, warmup: int, measured: int, alpha: float, trace: bool):
        self.warmup = warmup
        self.measured = measured
        self.alpha = alpha
        self.trace = trace
        self.starts: list[int] = []
        self.rows: list[tuple] = []

    def record(self, i: int, p_star: int, p_x: int, violation: float,
               capacity: int):
        alpha = self.alpha
        row = (offline_error(p_star, p_x, violation, alpha), violation <= alpha)
        if self.trace:
            row += (capacity, p_x, violation)
        j = i - self.warmup
        if j < 0:
            j = 0
        starts, rows = self.starts, self.rows
        if starts and starts[-1] == j:  # superseded before it was scored
            starts.pop()
            rows.pop()
        if rows and rows[-1] == row:
            return
        starts.append(j)
        rows.append(row)

    def log(self) -> IntervalLog:
        if not self.starts or self.starts[0] != 0:
            raise ValueError("the first scored iteration was never recorded")
        values = list(zip(*self.rows))
        columns = {name: np.array(v, dtype)
                   for (name, dtype), v in zip(COLUMNS, values)}
        return IntervalLog(self.measured, np.array(self.starts, np.int64),
                           columns)


class _Series:
    """A per-iteration series of a ``RunRecord``, rebuilt from its interval
    log on every read. Assigning a dense array (``dataclasses.replace`` does)
    stores it in the log in place of the column."""

    def __init__(self, column: str):
        self.column = column

    def __get__(self, rec, owner=None):
        if rec is None:
            return None  # the field's default
        return rec.intervals.series(self.column)

    def __set__(self, rec, value):
        if value is None:
            return
        log = rec.intervals
        dense = {name: log.series(name) for name in log.columns}
        dense[self.column] = np.asarray(value)
        rec.intervals = IntervalLog(log.length, np.arange(log.length), dense)


@dataclass
class RunRecord:
    """Result of one (algorithm, instance, schedule, seed) run."""

    run_seed: int
    intervals: IntervalLog = field(repr=False)
    total_offline_error: float = 0.0
    feasible_fraction: float = 0.0
    change_count: int = 0
    evaluations: int = 0
    # dense views of the interval log; the three traces are None unless the
    # run was traced
    per_iteration_phi: np.ndarray = _Series("phi")
    capacity_trace: np.ndarray | None = _Series("capacity")
    best_profit_trace: np.ndarray | None = _Series("best_profit")
    violation_trace: np.ndarray | None = _Series("violation")

    def __repr__(self):
        shown = (f for f in fields(self)
                 if f.repr and not isinstance(vars(RunRecord).get(f.name), _Series))
        return "RunRecord(" + ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in shown) + ")"
