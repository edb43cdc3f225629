import importlib.util
from pathlib import Path

import pytest

from dcckp.campaign import RUNS_CSV_HEADER

EQUIVALENCE = Path(__file__).resolve().parents[1] / "tools" / "equivalence.py"


def load_equivalence():
    """``tools/equivalence.py`` as a module; loading it reads no file."""
    spec = importlib.util.spec_from_file_location("equivalence", EQUIVALENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs_csv(rows):
    """A runs.csv text of (cell_id, run_seed, total_offline_error) rows."""
    lines = [RUNS_CSV_HEADER]
    for cell, seed, error in rows:
        algo, bound = cell.split("-")
        lines.append(f"{cell},{algo},{bound},500,1000,25,0.01,{seed},{error},1.0,100")
    return "\n".join(lines) + "\n"


# per cell, run_seed -> (parent error, change error)
RUNS = {
    "ea11-chernoff": {11: (2000.0, 2050.5), 12: (1800.0, 1790.0),
                      13: (2400.0, 2390.0), 14: (2100.0, 2200.0)},
    "posdc-chebyshev": {21: (900.0, 905.0), 22: (1100.0, 1098.0), 23: (1000.0, 1001.0)},
}


def test_ratio_and_interval_match_a_plain_recomputation():
    eq = load_equivalence()
    parent = runs_csv((cell, seed, pe) for cell, runs in RUNS.items()
                      for seed, (pe, _) in runs.items())
    # the change lists its rows in another order: runs pair by key
    change = runs_csv((cell, seed, ce) for cell, runs in reversed(RUNS.items())
                      for seed, (_, ce) in reversed(runs.items()))
    got = {cell: rest for cell, *rest in eq.verdicts(parent, change)}
    assert list(got) == sorted(RUNS)
    for cell, runs in RUNS.items():
        pairs = [runs[seed] for seed in sorted(runs)]
        ratios = sorted(sum(pairs[j][1] for j in draw) / sum(pairs[j][0] for j in draw)
                        for draw in eq.resamples(len(pairs)).tolist())
        tail = len(ratios) // 20  # 5% beyond each end
        count, ratio, low, high, verdict = got[cell]
        assert count == len(pairs)
        assert ratio == pytest.approx(sum(c for _, c in pairs) / sum(p for p, _ in pairs),
                                      rel=1e-12)
        assert (low, high) == pytest.approx((ratios[tail], ratios[-1 - tail]), rel=1e-12)
        assert low < ratio < high
        assert verdict == ("equivalent" if 0.98 <= low and high <= 1.02
                           else "not equivalent")
    # ea11's 2200 against 2100 moves its upper end past 1.02
    assert got["ea11-chernoff"][4] == "not equivalent"
    assert got["posdc-chebyshev"][4] == "equivalent"


def test_identical_files_are_equivalent_at_one():
    eq = load_equivalence()
    text = runs_csv((cell, seed, pe) for cell, runs in RUNS.items()
                    for seed, (pe, _) in runs.items())
    for _, _, ratio, low, high, verdict in eq.verdicts(text, text):
        assert (ratio, low, high, verdict) == (1.0, 1.0, 1.0, "equivalent")


@pytest.mark.parametrize("rows, match", [
    ([("posdc-chebyshev", 21, 900.0), ("posdc-chebyshev", 29, 1100.0)],
     r"different runs, first \('posdc-chebyshev', '2[29]'\)"),
    ([("posdc-chebyshev", 21, 900.0), ("posdc-chebyshev", 21, 1100.0)], "twice"),
])
def test_runs_that_do_not_pair_are_refused(rows, match):
    parent = runs_csv([("posdc-chebyshev", 21, 900.0), ("posdc-chebyshev", 22, 1100.0)])
    with pytest.raises(ValueError, match=match):
        load_equivalence().verdicts(parent, runs_csv(rows))
