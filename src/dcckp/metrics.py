"""Offline-error measure: per-iteration distance to the moving optimum,
penalized when the designated solution violates the chance constraint.

Phi only changes at events: a capacity change or a new designated solution.
A run therefore keeps its per-iteration series as an interval log (one entry
per run of equal values), and the dense series are rebuilt from it on read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def feasible(violation, alpha):
    """The chance constraint met, for a scalar or an array of violations."""
    return violation <= alpha


def offline_error(p_star: float, p_x: float, violation_prob: float,
                  alpha: float) -> float:
    """Distance to the optimum for one iteration.

    Feasible designated solutions (violation <= alpha) score p_star - p_x;
    infeasible ones score (1 + violation) * p_star, which always dominates any
    feasible score.
    """
    if feasible(violation_prob, alpha):
        return float(p_star - p_x)
    return (1.0 + violation_prob) * p_star


def total_offline_error(phis) -> float:
    """Mean offline error over a run's post-warmup iterations."""
    arr = np.asarray(phis, np.float64)
    if arr.size == 0:
        raise ValueError("offline-error series is empty")
    return float(arr.mean())


# log columns in row order, with the dtype of their per-iteration series
COLUMNS = (("phi", np.float64), ("capacity", np.int64),
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

    def __eq__(self, other):
        """The same length, entry starts and per-entry values."""
        if not isinstance(other, IntervalLog):
            return NotImplemented
        return (self.length == other.length
                and np.array_equal(self.starts, other.starts)
                and self.columns.keys() == other.columns.keys()
                and all(np.array_equal(v, other.columns[name])
                        for name, v in self.columns.items()))

    def series(self, name: str) -> np.ndarray:
        """The dense per-iteration series of one column."""
        return np.repeat(self.columns[name], np.diff(self.starts, append=self.length))


class OfflineErrorRecorder:
    """Scores a run, the only code that does: builds its interval log from
    the iterations at which the capacity or the designated solution may have
    changed, then its ``RunRecord``. The run's ``TailBound`` gives each
    designation's violation (``certified``) and the level alpha.

    ``record`` must be called at the first iteration of the run, at every
    capacity change and after every change of the designated solution, in
    iteration order. Warm-up iterations are not scored: the last record at or
    before the end of warm-up opens the log.
    """

    def __init__(self, bound, warmup: int, measured: int):
        if measured <= 0:
            raise ValueError("schedule has no post-warmup iterations; "
                             "total offline error is undefined")
        self.bound = bound
        self.warmup = warmup
        self.measured = measured
        self.starts, self.rows = [], []  # per log entry: first iteration, values

    def record(self, i: int, p_star: int, p: int, w: int, k: int, capacity: int):
        """Score the designation (p, w, k) from iteration ``i`` on."""
        violation = self.bound.certified(w, k, capacity)
        row = (offline_error(p_star, p, violation, self.bound.alpha), capacity, p,
               violation)
        j = max(i - self.warmup, 0)
        starts, rows = self.starts, self.rows
        if starts and starts[-1] == j:  # superseded before it was scored
            starts.pop()
            rows.pop()
        if rows and rows[-1] == row:
            return
        starts.append(j)
        rows.append(row)

    def run_record(self, run_seed: int, change_count: int,
                   evaluations: int) -> RunRecord:
        """The run's record: its interval log, the mean phi
        (``total_offline_error``) and the share of feasible iterations."""
        if not self.starts or self.starts[0] != 0:
            raise ValueError("the first scored iteration was never recorded")
        columns = {name: np.array(v, dtype)
                   for (name, dtype), v in zip(COLUMNS, zip(*self.rows))}
        log = IntervalLog(self.measured, np.array(self.starts, np.int64), columns)
        spans = np.diff(log.starts, append=log.length)  # iterations per entry
        ok = feasible(columns["violation"], self.bound.alpha)
        return RunRecord(
            run_seed=run_seed, intervals=log, change_count=change_count,
            evaluations=evaluations, feasible_fraction=int(spans[ok].sum()) / log.length,
            total_offline_error=total_offline_error(log.series("phi")))


class _Series:
    """A per-iteration series of a ``RunRecord``, rebuilt from its interval
    log on every read. Assigning a dense array (``dataclasses.replace`` does)
    stores it in the log in place of the column."""

    def __init__(self, column: str):
        self.column = column

    def __get__(self, rec, owner=None):
        if rec is None:
            return self
        return rec.intervals.series(self.column)

    def __set__(self, rec, value):
        if value is self:  # the field's default: nothing was given
            return
        log = rec.intervals
        dense = {name: log.series(name) for name in log.columns}
        dense[self.column] = np.asarray(value)
        rec.intervals = IntervalLog(log.length, np.arange(log.length), dense)


@dataclass(repr=False)  # a field-by-field repr would rebuild the dense series
class RunRecord:
    """Result of one (algorithm, instance, schedule, seed) run."""

    run_seed: int
    intervals: IntervalLog
    total_offline_error: float
    feasible_fraction: float
    change_count: int
    evaluations: int
    # the dense phi series, a function of the interval log, so not compared
    per_iteration_phi: np.ndarray = field(default=_Series("phi"), compare=False)
