import importlib.util
import itertools
import math
from pathlib import Path

import pytest

POWER_AUDIT = Path(__file__).resolve().parents[1] / "tools" / "power_audit.py"


def load_power_audit():
    """``tools/power_audit.py`` as a module; loading it runs no audit."""
    spec = importlib.util.spec_from_file_location("power_audit", POWER_AUDIT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("rates", [
    [], [0.5], [0.0, 1.0, 0.3], [0.95] * 10,
    [0.1, 0.9, 0.975, 0.025, 0.5, 0.6, 1 / 3, 0.0, 1.0, 0.7],
])
def test_poisson_binomial_matches_every_outcome_enumerated(rates):
    expected = [0.0] * (len(rates) + 1)
    for outcome in itertools.product((0, 1), repeat=len(rates)):
        expected[sum(outcome)] += math.prod(r if hit else 1.0 - r
                                            for r, hit in zip(rates, outcome))
    dist = load_power_audit().poisson_binomial(rates)
    assert dist.tolist() == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("ones, p_pass", [(95, 1.0), (94, 0.0)])
def test_row_summary_passes_at_95_hits(ones, p_pass):
    rates = [1.0] * ones + [0.0] * (100 - ones)
    row = load_power_audit().row_summary(ones, rates)
    assert (row["mean_hits"], row["quantile_5pct"], row["p_pass"]) == (ones, ones, p_pass)
