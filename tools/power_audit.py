"""How often acceptance criterion 4 passes a correct solver stream: its
power, per row, written to POWER_AUDIT.json beside this repository's README.

Criterion 4 (``tests/test_acceptance.py``) runs each solver once on 100
small instances at fixed seeds and asks for 95 hits per (solver, family).
This script runs its exact setup again: uncorrelated n=12, delta=25,
instance seed 4000+i, capacity int(0.45 W), alpha=0.01, a budget of 10,000
iterations and POSDC's eta=500, with the EA's target from
``brute_force_chance_optimum`` and POSDC's from the criterion's own
``cstar_side_optimum``, loaded from the test file. Its six rows are the
(1+1)-EA on today's replay stream, the (1+1)-EA on geometric gaps
(``solvers._gap_flips``) and POSDC, each under Chebyshev and Chernoff.

Each row runs at the criterion's seeds 9000+i, and at K fresh seeds per
instance from one fixed ``SeedSequence``. The fresh seeds give each
instance's hit rate; the hit count over the 100 instances is then a sum of
independent Bernoulli trials with those rates, whose exact (Poisson-binomial)
distribution gives the row's mean, 5% quantile and P(hits >= 95). It takes
no flags and runs in two worker processes:

    PYTHONPATH=src python tools/power_audit.py
"""

import functools
import importlib.util
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from pathlib import Path

import numpy as np

from dcckp import solvers
from dcckp.chance import CHEBYSHEV, CHERNOFF, ChanceParams
from dcckp.model import generate_instance
from dcckp.oracle import brute_force_chance_optimum

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "POWER_AUDIT.json"
INSTANCES, K, PASS_HITS = 100, 40, 95
BUDGET, ETA = 10_000, 500
FRESH_SEEDS = np.random.SeedSequence(20_200_216)  # fixed, so reruns agree
STREAMS = ("ea11-replay", "ea11-gaps", "posdc")
FAMILIES = (CHEBYSHEV, CHERNOFF)


@functools.cache
def _cstar_side_optimum():
    """``cstar_side_optimum`` as criterion 4 defines it, loaded by path so
    its predicate is the test's own."""
    spec = importlib.util.spec_from_file_location(
        "acceptance", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cstar_side_optimum


def poisson_binomial(rates) -> np.ndarray:
    """The distribution of the number of successes among independent trials
    with success probabilities ``rates``: entry h is P(h successes)."""
    dist = np.ones(1)
    for r in rates:
        dist = np.convolve(dist, [1.0 - r, r])
    return dist


def _hits(i: int, family: str, seeds) -> dict:
    """Per stream, whether each seed's run on instance i reaches its target."""
    inst = generate_instance("uncorrelated", 12, 25, seed=4000 + i)
    capacity = int(0.45 * inst.total_expected_weight())
    params = ChanceParams(0.01, 25, family)
    ctx = solvers._RunContext(inst, params)
    target_ea = brute_force_chance_optimum(inst, capacity, params)[0]
    target_pos = _cstar_side_optimum()(inst, capacity, params)
    hits = {stream: [] for stream in STREAMS}
    for seed in seeds:
        for stream in ("ea11-replay", "ea11-gaps"):
            rng = np.random.default_rng(seed)
            ea = solvers.OnePlusOneEA(ctx, rng, capacity)
            if stream == "ea11-gaps":
                ea.flips = solvers._gap_flips(rng, ctx.n)
            ea.step(capacity, 0, BUDGET, lambda _: None)
            hits[stream].append(bool(ea.p == target_ea))
        pos = solvers.Posdc(ctx, np.random.default_rng(seed), capacity, eta=ETA)
        pos.step(capacity, 0, BUDGET, lambda _: None)
        hits["posdc"].append(pos.repair is None and bool(pos.best()[1] == target_pos))
    return hits


def _instance_task(task):
    i, family, fresh = task
    fixed = _hits(i, family, [9000 + i])
    rates = _hits(i, family, fresh)
    return i, family, {s: (fixed[s][0], sum(rates[s]) / len(fresh)) for s in STREAMS}


def row_summary(fixed_hits: int, rates) -> dict:
    """One row of the report, from its fixed-seed hits and the instances'
    hit rates at the fresh seeds."""
    dist = poisson_binomial(rates)
    cdf = np.cumsum(dist)
    return {
        "fixed_seed_hits": fixed_hits,
        "rates": list(rates),
        "mean_hits": float(sum(rates)),
        "quantile_5pct": int(np.searchsorted(cdf, 0.05)),
        "p_pass": float(dist[PASS_HITS:].sum()),
        "distribution": dist.tolist(),
    }


def main():
    children = FRESH_SEEDS.spawn(INSTANCES)
    fresh = [child.generate_state(K, np.uint64).tolist() for child in children]
    tasks = [(i, family, fresh[i]) for family in FAMILIES for i in range(INSTANCES)]
    outcomes = {}
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        for i, family, per_stream in pool.map(_instance_task, tasks):
            outcomes[family, i] = per_stream
    rows = {}
    for stream, family in product(STREAMS, FAMILIES):
        fixed, rates = zip(*(outcomes[family, i][stream] for i in range(INSTANCES)))
        rows[f"{stream}-{family}"] = row_summary(sum(fixed), rates)
    report = {
        "setup": {"instances": INSTANCES, "fresh_seeds_per_instance": K,
                  "pass_hits": PASS_HITS, "budget": BUDGET, "eta": ETA,
                  "fresh_seed_entropy": FRESH_SEEDS.entropy},
        "rows": rows,
    }
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    for name, row in rows.items():
        print(f"{name:28s} fixed {row['fixed_seed_hits']:3d}  mean "
              f"{row['mean_hits']:5.1f}  5% quantile {row['quantile_5pct']:3d}  "
              f"P(hits >= {PASS_HITS}) {row['p_pass']:.2f}")


if __name__ == "__main__":
    main()
