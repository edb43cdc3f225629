"""Paired equivalence verdict for two runs.csv files of one campaign grid,
one from a parent tree and one from a change.

Runs pair by (cell_id, run_seed), so the files must hold the same runs. Per
cell it writes the ratio of mean ``total_offline_error`` (change over
parent), the paired percentile-bootstrap 90% interval of that ratio, and
"equivalent" when the interval lies inside [1 - MARGIN, 1 + MARGIN] (two
one-sided tests at 5% each). Each bootstrap resample draws the cell's runs
with replacement, the same runs from both files, RESAMPLES times from a
generator seeded with RESAMPLE_SEED, so reruns agree. It takes no flags:

    python tools/equivalence.py PARENT_RUNS_CSV CHANGE_RUNS_CSV
"""

import csv
import sys
from pathlib import Path

import numpy as np

MARGIN = 0.02
RESAMPLES, RESAMPLE_SEED = 10_000, 20_200_216
TAIL = RESAMPLES // 20  # resampled ratios beyond each end of the 90% interval


def offline_errors(text: str) -> dict:
    """``total_offline_error`` of each run of a runs.csv text, by
    (cell_id, run_seed)."""
    errors = {}
    for row in csv.DictReader(text.splitlines()):
        key = row["cell_id"], row["run_seed"]
        if key in errors:
            raise ValueError(f"run {key} appears twice")
        errors[key] = float(row["total_offline_error"])
    return errors


def resamples(runs: int) -> np.ndarray:
    """RESAMPLES rows of ``runs`` run indices, drawn with replacement."""
    return np.random.default_rng(RESAMPLE_SEED).integers(0, runs, (RESAMPLES, runs))


def verdicts(parent_text: str, change_text: str) -> list[tuple]:
    """(cell_id, runs, ratio, low, high, verdict) per cell, in cell order."""
    parent, change = offline_errors(parent_text), offline_errors(change_text)
    if parent.keys() != change.keys():
        unpaired = sorted(parent.keys() ^ change.keys())
        raise ValueError(f"the files hold different runs, first {unpaired[0]}")
    cells = {}
    for cell, seed in sorted(parent):
        cells.setdefault(cell, []).append((parent[cell, seed], change[cell, seed]))
    out = []
    for cell, pairs in cells.items():
        a, b = np.array(pairs).T
        draws = resamples(len(pairs))
        ratios = np.sort(b[draws].sum(axis=1) / a[draws].sum(axis=1))
        low, high = ratios[TAIL], ratios[-1 - TAIL]
        inside = 1 - MARGIN <= low and high <= 1 + MARGIN
        out.append((cell, len(pairs), b.sum() / a.sum(), low, high,
                    "equivalent" if inside else "not equivalent"))
    return out


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    parent, change = (Path(name).read_text() for name in argv)
    print("cell_id,runs,ratio,ci90_low,ci90_high,verdict")
    for cell, runs, ratio, low, high, verdict in verdicts(parent, change):
        print(f"{cell},{runs},{ratio:.6f},{low:.6f},{high:.6f},{verdict}")


if __name__ == "__main__":
    main(sys.argv[1:])
