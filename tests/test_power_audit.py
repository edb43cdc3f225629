import importlib.util
import itertools
import json
import math
from pathlib import Path

import pytest

from dcckp.chance import CHEBYSHEV, CHERNOFF

POWER_AUDIT = Path(__file__).resolve().parents[1] / "tools" / "power_audit.py"


def load_power_audit():
    """``tools/power_audit.py`` as a module; loading it runs no audit."""
    spec = importlib.util.spec_from_file_location("power_audit", POWER_AUDIT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RATES = [[], [0.5], [0.0, 1.0, 0.3], [0.95] * 10,
         [0.1, 0.9, 0.975, 0.025, 0.5, 0.6, 1 / 3, 0.0, 1.0, 0.7]]


def enumerated(rates):
    """P(h successes), entry h, summed over every outcome of the trials."""
    dist = [0.0] * (len(rates) + 1)
    for outcome in itertools.product((0, 1), repeat=len(rates)):
        dist[sum(outcome)] += math.prod(r if hit else 1.0 - r
                                        for r, hit in zip(rates, outcome))
    return dist


@pytest.mark.parametrize("rates", RATES)
def test_poisson_binomial_matches_every_outcome_enumerated(rates):
    dist = load_power_audit().poisson_binomial(rates)
    assert dist.tolist() == pytest.approx(enumerated(rates), abs=1e-15)


@pytest.mark.parametrize("rates", RATES)
def test_lower_quantile_matches_every_outcome_enumerated(rates):
    audit = load_power_audit()
    exact = enumerated(rates)
    for q in (1e-9, 0.01, 0.05, 0.5, 0.99):
        least = min(h for h in range(len(rates) + 1) if sum(exact[:h + 1]) >= q)
        assert audit.lower_quantile(audit.poisson_binomial(rates), q) == least


@pytest.mark.parametrize("trials", [1, 6, 100])
def test_drop_caught_is_the_least_that_fails_a_sure_row(trials):
    # every rate 1 and the row passes only at all hits: it fails with
    # probability 1 - (1 - d)^trials after a drop of d
    drop = load_power_audit().drop_caught([1.0] * trials, trials)
    assert 1 - (1 - drop) ** trials >= 0.9 > 1 - (1 - drop + 0.001) ** trials


@pytest.mark.parametrize("ones, p_pass", [(95, 1.0), (94, 0.0)])
def test_row_summary_passes_at_95_hits(ones, p_pass):
    rates = [1.0] * ones + [0.0] * (100 - ones)
    row = load_power_audit().row_summary(ones, rates, 95)
    assert (row["mean_hits"], row["quantile_1pct"], row["p_pass"]) == (ones, ones, p_pass)


def test_criterion_4_bars_are_the_audits():
    """Criterion 4's setup is the one POWER_AUDIT.json was measured on, each
    EA row's bar is the 1% lower quantile of the hit count over the replay
    row's audited rates, and a POSDC row's bar is the one the audit used."""
    audit = load_power_audit()
    acceptance = audit.acceptance()
    report = json.loads(audit.OUT.read_text())
    assert report["setup"] == {
        "instances": acceptance.STATIC_INSTANCES,
        "instance_seed": acceptance.INSTANCE_SEED, "solver_seed": acceptance.SOLVER_SEED,
        "budget": acceptance.STATIC_BUDGET, "eta": acceptance.STATIC_ETA,
        "fresh_seeds_per_instance": 40, "fresh_seed_entropy": 20_200_216,
        "quantile": 0.01}
    rows = report["rows"]
    for family in (CHEBYSHEV, CHERNOFF):
        rates = rows[f"ea11-replay-{family}"]["rates"]
        assert len(rates) == acceptance.STATIC_INSTANCES["ea11"]
        bar = audit.lower_quantile(audit.poisson_binomial(rates), 0.01)
        assert acceptance.PASS_HITS["ea11", family] == bar
        assert rows[f"ea11-replay-{family}"]["p_pass"] >= 0.99
        for stream in ("ea11-replay", "ea11-gaps", "posdc"):
            algo = stream.split("-")[0]
            assert rows[f"{stream}-{family}"]["pass_hits"] == acceptance.PASS_HITS[algo, family]
