"""How often acceptance criterion 4 passes a correct solver stream: its
power, per row, written to POWER_AUDIT.json beside this repository's README.

It runs the criterion's own experiment, ``static_optimum_hits`` from
``tests/test_acceptance.py``, on the criterion's instances, in six rows: the
(1+1)-EA on the replay stream it read before geometric gaps
(``replay_flips`` in that module), the (1+1)-EA on its own stream of gaps
and POSDC, each under Chebyshev and Chernoff. Each row runs at the
criterion's solver seeds, and at K fresh seeds per instance from one fixed
``SeedSequence``, which give each instance's hit rate. The hit count is
then a sum of independent Bernoulli trials with those rates, whose exact
(Poisson-binomial) distribution gives the row's 1% lower quantile and
P(pass). An EA row passes at the 1% lower quantile of its family's replay
row: criterion 4's EA bar. The gap rows are measured
against that bar and do not set it. A POSDC row passes at the criterion's
bar. Each row also gives the least drop of every instance's rate that
fails it with probability at least POWER. No flags; two worker processes:

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

from dcckp.chance import CHEBYSHEV, CHERNOFF

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "POWER_AUDIT.json"
K, QUANTILE, POWER = 40, 0.01, 0.9
FRESH_SEEDS = np.random.SeedSequence(20_200_216)  # fixed, so reruns agree
# each row's solver and the name of the EA's flip stream in the acceptance
# module (None: the solver's own, geometric gaps)
STREAMS = {"ea11-replay": ("ea11", "replay_flips"), "ea11-gaps": ("ea11", None),
           "posdc": ("posdc", None)}
FAMILIES = (CHEBYSHEV, CHERNOFF)


@functools.cache
def acceptance():
    """``tests/test_acceptance.py``, loaded by path, so the experiment and
    its setup are the criterion's own."""
    spec = importlib.util.spec_from_file_location(
        "acceptance", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def poisson_binomial(rates) -> np.ndarray:
    """The distribution of the number of successes among independent trials
    with success probabilities ``rates``: entry h is P(h successes)."""
    dist = np.ones(1)
    for r in rates:
        dist = np.convolve(dist, [1.0 - r, r])
    return dist


def lower_quantile(dist, q: float) -> int:
    """The least h with P(hits <= h) >= q under the distribution ``dist``."""
    return int(np.searchsorted(np.cumsum(dist), q))


def drop_caught(rates, pass_hits: int) -> float:
    """The least d, in steps of 0.001, such that the row fails with
    probability at least POWER once every rate falls by d (floored at 0)."""
    rates = np.asarray(rates, float)
    lo, hi = 0, 1000
    while lo < hi:
        mid = (lo + hi) // 2
        fail = poisson_binomial(np.maximum(rates - mid / 1000, 0.0))[:pass_hits].sum()
        lo, hi = (lo, mid) if fail >= POWER else (mid + 1, hi)
    return lo / 1000


def row_summary(fixed_hits: int, rates, pass_hits: int) -> dict:
    """One row of the report, from its fixed-seed hits, the instances' hit
    rates at the fresh seeds and the hits it passes at."""
    dist = poisson_binomial(rates)
    return {
        "fixed_seed_hits": fixed_hits,
        "pass_hits": pass_hits,
        "mean_hits": float(sum(rates)),
        "quantile_1pct": lower_quantile(dist, QUANTILE),
        "p_pass": float(dist[pass_hits:].sum()),
        "drop_caught": drop_caught(rates, pass_hits),
        "rates": list(rates),
    }


def _instance_task(task):
    stream, family, i, fresh = task
    acc, (algo, flips) = acceptance(), STREAMS[stream]
    flips = flips and getattr(acc, flips)
    hits = acc.static_optimum_hits(algo, family, i, [acc.SOLVER_SEED + i, *fresh], flips)
    return int(hits[0]), sum(hits[1:]) / len(fresh)


def main():
    acc = acceptance()
    count = {stream: acc.STATIC_INSTANCES[algo] for stream, (algo, _) in STREAMS.items()}
    children = FRESH_SEEDS.spawn(max(count.values()))
    fresh = [child.generate_state(K, np.uint64).tolist() for child in children]
    tasks = [(stream, family, i, fresh[i])
             for stream, family in product(STREAMS, FAMILIES) for i in range(count[stream])]
    outcomes = {}
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        for task, outcome in zip(tasks, pool.map(_instance_task, tasks, chunksize=8)):
            outcomes.setdefault(task[:2], []).append(outcome)
    bars = {family: lower_quantile(poisson_binomial(
        [rate for _, rate in outcomes["ea11-replay", family]]), QUANTILE)
        for family in FAMILIES}
    rows = {}
    for stream, family in product(STREAMS, FAMILIES):
        fixed, rates = zip(*outcomes[stream, family])
        algo = STREAMS[stream][0]
        pass_hits = bars[family] if algo == "ea11" else acc.PASS_HITS[algo, family]
        rows[f"{stream}-{family}"] = row_summary(sum(fixed), rates, pass_hits)
    report = {
        "setup": {"instances": acc.STATIC_INSTANCES, "instance_seed": acc.INSTANCE_SEED,
                  "solver_seed": acc.SOLVER_SEED, "budget": acc.STATIC_BUDGET,
                  "eta": acc.STATIC_ETA, "fresh_seeds_per_instance": K,
                  "fresh_seed_entropy": FRESH_SEEDS.entropy, "quantile": QUANTILE},
        "rows": rows,
    }
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    for name, row in rows.items():
        print(f"{name:28s} fixed {row['fixed_seed_hits']:3d}  mean {row['mean_hits']:5.1f}  "
              f"1% quantile {row['quantile_1pct']:3d}  P(hits >= {row['pass_hits']}) "
              f"{row['p_pass']:.3f}  drop caught {row['drop_caught']:.3f}")


if __name__ == "__main__":
    main()
