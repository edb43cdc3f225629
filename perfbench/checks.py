"""Output checks. A run that fails any of them counts as a failed run.

Mean offline error is checked here, not tracked as a regression metric: its
value follows the solvers' RNG stream, which a later change may alter on
purpose. What must hold for every run regardless is checked instead, and
the ``runs.csv`` of campaigns with the same config must agree byte for byte.
"""

from __future__ import annotations

import math

import numpy as np


def record_failures(rec, iterations: int, measured: int, changes: int) -> list:
    """Reasons one run's record is wrong; empty when it passes.

    ``iterations`` is the run length including warm-up, ``measured`` the
    post-warm-up iterations, ``changes`` the capacity changes its schedule
    must hold.
    """
    problems = []
    total = rec.total_offline_error
    if not (math.isfinite(total) and total >= 0.0):
        problems.append(f"total offline error {total!r} is not >= 0")
    phi = getattr(rec, "per_iteration_phi", None)
    if phi is not None:
        phi = np.asarray(phi, np.float64)
        if phi.shape != (measured,):
            problems.append(f"{phi.size} phi values, expected {measured}")
        elif not np.isfinite(phi).all() or (phi < 0.0).any():
            problems.append("a per-iteration phi is negative or not finite")
        elif not math.isclose(total, float(phi.mean()), rel_tol=1e-9):
            problems.append(f"total offline error {total!r} is not the mean "
                            f"of phi {float(phi.mean())!r}")
    if rec.evaluations != iterations:
        problems.append(f"{rec.evaluations} evaluations, expected {iterations}")
    if not 0.0 <= rec.feasible_fraction <= 1.0:
        problems.append(f"feasible fraction {rec.feasible_fraction!r} "
                        f"outside [0, 1]")
    if rec.change_count != changes:
        problems.append(f"{rec.change_count} capacity changes, expected {changes}")
    return problems


def campaign_problems(result, config) -> list:
    """``[(cell, run_idx, record, problems)]`` for every run of a campaign
    result, in ``runs.csv`` row order. A schedule holds one capacity change
    every ``tau`` iterations from the end of warm-up; that count is derived
    here, independently of ``dynamics``."""
    iterations = config.warmup + config.total_iters
    out = []
    for cell in result.cells:
        changes = len(range(config.warmup, iterations, cell.tau))
        for j in range(config.runs):
            rec = result.records[(cell, j)]
            out.append((cell, j, rec, record_failures(
                rec, iterations, config.total_iters, changes)))
    return out


def csv_mismatches(text: str, reference: str) -> list:
    """Indices of data rows (one per run) where ``text`` differs from
    ``reference``; rows missing on either side count as differing."""
    rows, ref = text.splitlines(), reference.splitlines()
    if rows[:1] != ref[:1]:
        return list(range(max(len(rows), len(ref)) - 1))
    rows, ref = rows[1:], ref[1:]
    bad = [i for i, (a, b) in enumerate(zip(rows, ref)) if a != b]
    bad.extend(range(min(len(rows), len(ref)), max(len(rows), len(ref))))
    return bad


def failed_runs(per_run_problems: list, csv_bad: list) -> int:
    """Runs of one campaign that fail: a record check or a ``runs.csv`` row
    that disagrees with the reference campaign. ``per_run_problems`` is in
    ``runs.csv`` row order."""
    bad = {i for i, problems in enumerate(per_run_problems) if problems}
    bad.update(i for i in csv_bad if i < len(per_run_problems))
    return len(bad)
