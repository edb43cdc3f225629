"""What the pieces of a campaign cost, one labelled line each, for a CI step
summary. Each time is the best of 5 timed calls at seed 1, in the unit its
line names; a count beside a time repeats exactly on any machine. Desk's
shape is uncorrelated n=100, churn's bsc n=100 (profit equals weight) and
wide's n=1000. It gates nothing and takes no flags:

    python tools/costs.py
"""

import subprocess
import sys
import time

import numpy as np

from dcckp.campaign import CampaignConfig
from dcckp.chance import CHERNOFF, ChanceParams
from dcckp.dynamics import build_schedule, default_clamp_bounds, default_initial_capacity
from dcckp.model import generate_instance
from dcckp.oracle import _plan, dp_optimal_profits
from dcckp.solvers import Nsga2, _RunContext, run_algorithm

# run in a fresh process: the wall time and peak RSS of a cold import
COLD_IMPORT = """import resource, time; t = time.perf_counter(); import dcckp.cli
print(f'cold import dcckp.cli: {time.perf_counter() - t:.3f} s, '
      f'ru_maxrss {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB')"""


def best_of_5(fn):
    """The least wall time of 5 calls of ``fn``, in seconds, and its value."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - start)
    return min(times), value


# the count beside a DP table's time: on uncorrelated instances the cells the
# general DP's planned updates touch; on bsc instances, whose table comes from
# subset sums, the reachable sums in the range
def planned_cells(inst, low, high, table):
    keep = (inst.weights <= high) & (inst.profits > 0)
    _, lo, top = _plan(inst.weights[keep], inst.profits[keep], high, low)
    return f"{int((top - lo + 1).sum()):,} cells"


def reachable_sums(inst, low, high, table):
    reached = table[low:] == np.arange(low, high + 1)
    return f"subset sums, {int(reached.sum()):,} reachable"


def main():
    subprocess.run([sys.executable, "-c", COLD_IMPORT], check=True)
    inst = {(kind, n): generate_instance(kind, n, 25, seed=1)
            for kind in ("uncorrelated", "bsc") for n in (100, 1000)}
    desk, churn = inst["uncorrelated", 100], inst["bsc", 100]
    wide, bsc = inst["uncorrelated", 1000], inst["bsc", 1000]

    # blocks of 1,000 generations after 300 of warm-up: Chernoff at alpha
    # 1e-4, the capacity half the expected total weight
    for kind, case in (("bsc", churn), ("uncorrelated", wide)):
        capacity = case.total_expected_weight() // 2
        alg = Nsga2(_RunContext(case, ChanceParams(1e-4, 25, CHERNOFF)),
                    np.random.default_rng(1), capacity)
        for _ in range(300):
            alg.generation(capacity)
        s, _ = best_of_5(lambda: [alg.generation(capacity) for _ in range(1000)])
        print(f"NSGA-II generation, {kind} n={case.n}: {s * 1e3:.1f} us")

    # run_algorithm over one schedule of 1,000 warm-up and 20,000 measured
    # iterations: desk's stretches let the (1+1)-EA screen, churn's do not
    for shape, case, tau, alpha in (("desk", desk, 1000, 1e-4), ("churn", churn, 25, 0.01)):
        c_min, c_max = default_clamp_bounds(case)
        schedule = build_schedule(default_initial_capacity(case), tau, 500, 1000,
                                  21_000, c_min, c_max, seed=1)
        table = dp_optimal_profits(case, c_max)
        for algo in ("ea11", "posdc"):
            for bound in ("chebyshev", "chernoff"):
                params = ChanceParams(alpha, 25, bound)
                s, _ = best_of_5(lambda: run_algorithm(algo, case, schedule, params, table, 1))
                print(f"{algo} {bound}, {shape}'s shape: {s / 21_000 * 1e6:.3f} us/iter")

    # the windows around c0 = W/2 that the benchmark's schedules reach, the
    # range 1..W that full-size desk and churn campaigns reach, and dump-dp's
    def window(case, half):
        c0 = default_initial_capacity(case)
        return c0 - half, c0 + half

    for name, case, (low, high), count in (
            ("uncorrelated n=1000, full range", wide, (0, wide.total_expected_weight()),
             planned_cells),
            ("uncorrelated n=1000, window c0 +- 5000", wide, window(wide, 5000), planned_cells),
            ("bsc n=1000, window c0 +- 5000", bsc, window(bsc, 5000), reachable_sums),
            ("uncorrelated n=100, window c0 +- 4500", desk, window(desk, 4500), planned_cells),
            ("uncorrelated n=100, range 1..W", desk, (1, desk.total_expected_weight()),
             planned_cells),
            ("bsc n=100, range 1..W", churn, (1, churn.total_expected_weight()), reachable_sums)):
        s, table = best_of_5(lambda: dp_optimal_profits(case, high, low))
        print(f"DP table, {name}: {s * 1e3:.1f} ms, {count(case, low, high, table)}")

    # the wide grid's CampaignConfig builds one instance per delta; at tau 1
    # it checks each (r, tau)'s schedule arguments on a one-iteration schedule
    for n in (100, 1000):
        s, _ = best_of_5(lambda: generate_instance("uncorrelated", n, 25, seed=1))
        print(f"generate_instance, n={n}: {s * 1e3:.3f} ms")
    s, _ = best_of_5(lambda: CampaignConfig(
        kind="uncorrelated", n=1000, deltas=(25, 50), taus=(1000,), alphas=(0.0001,),
        algos=("ea11", "posdc", "nsga2"), bounds=("chernoff",)))
    print(f"CampaignConfig of the wide grid: {s * 1e3:.3f} ms")
    c0, (c_min, c_max) = default_initial_capacity(desk), default_clamp_bounds(desk)
    for tau in (1, 25):
        s, _ = best_of_5(lambda: build_schedule(c0, tau, 500, 0, 100_000, c_min, c_max, seed=1))
        print(f"build_schedule, tau={tau}, 100,000 iterations: {s * 1e3:.1f} ms")
    s, _ = best_of_5(lambda: CampaignConfig(taus=(1,)))
    print(f"CampaignConfig at tau=1: {s * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
