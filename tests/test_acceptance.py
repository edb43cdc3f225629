"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live. The
desk-scale campaign and the Monte-Carlo safety check take tens of seconds
each; everything else is fast.
"""

import math
import time

import numpy as np
import pytest

from dcckp.campaign import CampaignConfig, group_runs_csv, run_campaign
from dcckp.chance import (
    CHEBYSHEV,
    CHERNOFF,
    ChanceParams,
    monte_carlo_violation,
    tail_bound,
)
from dcckp.dynamics import build_schedule
from dcckp.model import generate_instance
from dcckp.oracle import (
    brute_force_chance_optimum,
    brute_force_optimum,
    dp_optimal_profits,
)
from dcckp.solvers import (
    Nsga2,
    OnePlusOneEA,
    Posdc,
    _RunContext,
    fast_nondominated_sort,
    run_algorithm,
)
from dcckp.stats import kruskal_wallis


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
          f"{(' — ' + detail) if detail else ''}")
    assert ok, f"criterion {num} ({name}): {detail}"


# --- 1. Chebyshev round trip -------------------------------------------------

def test_criterion_1_chebyshev_round_trip():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        ew = float(rng.integers(100, 100_000))
        k = int(rng.integers(1, 200))
        delta = int(rng.integers(1, 101))
        alpha = float(10 ** rng.uniform(-6, -0.01))
        bound = tail_bound(ChanceParams(alpha, delta, CHEBYSHEV), k)
        c = bound.cstar(ew, k)
        back = bound.tail(ew, k, c)
        worst = max(worst, abs(back - alpha) / alpha)
    elapsed = time.perf_counter() - t0
    report(1, "chebyshev round trip", worst <= 1e-9 and elapsed < 1.0,
           f"max rel err {worst:.2e}, {elapsed:.2f}s")


# --- 2. Monte-Carlo safety of both capacity bounds ---------------------------

def test_criterion_2_chance_constraint_safety():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    samples = 1_000_000
    instances = {d: generate_instance("uncorrelated", 100, d, seed=50 + d)
                 for d in (25, 50)}
    failures = []
    for case in range(50):
        k = (10, 50, 100)[case % 3]
        delta = (25, 50)[case % 2]
        alpha = (0.01, 0.001)[(case // 2) % 2]
        inst = instances[delta]
        idx = rng.choice(100, size=k, replace=False)
        bits = np.zeros(100, np.uint8)
        bits[idx] = 1
        ew = int(inst.weights[idx].sum())
        threshold = alpha + 3 * math.sqrt(alpha / samples)
        # both families read one set of draws (seed 7000 + case)
        caps = [tail_bound(ChanceParams(alpha, delta, kind), k).cstar(ew, k)
                for kind in (CHEBYSHEV, CHERNOFF)]
        ests = monte_carlo_violation(inst, bits, caps, samples, seed=7000 + case)
        for name, est in zip(("cheby", "chern"), ests):
            if est > threshold:
                failures.append((case, name, k, delta, alpha, est, threshold))
    elapsed = time.perf_counter() - t0
    report(2, "chance-constraint safety (Monte Carlo)",
           not failures and elapsed < 60.0,
           f"{len(failures)} violations, {elapsed:.1f}s")


# --- 3. DP vs brute force ----------------------------------------------------

def test_criterion_3_dp_matches_brute_force():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    mismatches = 0
    for trial in range(100):
        n = int(rng.integers(4, 17))
        inst = generate_instance("uncorrelated", n, 25, seed=300 + trial)
        top = inst.total_expected_weight()
        table = dp_optimal_profits(inst, top)
        for cap in rng.integers(0, top + 1, size=20):
            if table[cap] != brute_force_optimum(inst, int(cap))[0]:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    report(3, "DP vs brute force", mismatches == 0 and elapsed < 30.0,
           f"{mismatches} mismatches over 2000 checks, {elapsed:.1f}s")


# --- 4. Static-optimum recovery ----------------------------------------------

def cstar_side_optimum(inst, capacity, params):
    n = inst.n
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(np.int64)
    w = bits @ inst.weights
    k = bits.sum(axis=1)
    p = bits @ inst.profits
    cstar = tail_bound(params, n).cstar_array(w, k)
    feas = cstar < capacity
    return int(p[feas].max()) if feas.any() else 0


def test_criterion_4_static_optimum_recovery():
    t0 = time.perf_counter()
    budget = 10_000
    hits = {("ea11", CHEBYSHEV): 0, ("ea11", CHERNOFF): 0,
            ("posdc", CHEBYSHEV): 0, ("posdc", CHERNOFF): 0}
    for i in range(100):
        inst = generate_instance("uncorrelated", 12, 25, seed=4000 + i)
        capacity = int(0.45 * inst.total_expected_weight())
        for kind in (CHEBYSHEV, CHERNOFF):
            params = ChanceParams(0.01, 25, kind)
            ctx = _RunContext(inst, params)
            target_ea = brute_force_chance_optimum(inst, capacity, params)[0]
            target_pos = cstar_side_optimum(inst, capacity, params)

            ea = OnePlusOneEA(ctx, np.random.default_rng(9000 + i), capacity)
            ea.step(capacity, 0, budget, lambda _: None)
            if ea.p == target_ea:
                hits[("ea11", kind)] += 1

            pos = Posdc(ctx, np.random.default_rng(9000 + i), capacity, eta=500)
            pos.step(capacity, 0, budget, lambda _: None)
            if pos.repair is None and pos.best()[1] == target_pos:
                hits[("posdc", kind)] += 1
    elapsed = time.perf_counter() - t0
    ok = all(v >= 95 for v in hits.values()) and elapsed < 120.0
    report(4, "static optimum recovery",
           ok, f"hits={dict(hits)}, {elapsed:.1f}s (threshold 95/100 each)")


# --- 5 & 6: desk-scale campaign ----------------------------------------------

DESK = dict(kind="uncorrelated", n=100, deltas=(25,), rs=(500,), taus=(1000,),
            alphas=(0.01, 0.0001), algos=("ea11", "posdc"),
            bounds=("chebyshev", "chernoff"), runs=10,
            total_iters=100_000, warmup=1_000, base_seed=606)


@pytest.fixture(scope="module")
def desk_campaign():
    t0 = time.perf_counter()
    result = run_campaign(CampaignConfig(**DESK))
    result.elapsed = time.perf_counter() - t0
    return result


def mean_phi(result, algo, bound, alpha):
    cell = next(c for c in result.cells
                if c.algo == algo and c.bound == bound and c.alpha == alpha)
    return float(np.mean([result.records[(cell, j)].total_offline_error
                          for j in range(result.config.runs)]))


def test_criterion_5_offline_error_invariants(desk_campaign):
    # every phi over the whole campaign is nonnegative
    neg = sum(int((rec.per_iteration_phi < 0).sum())
              for rec in desk_campaign.records.values())
    # infeasible iterations score at least P(x*): checked on a
    # 1e5-iteration run at the campaign's coordinates
    inst = generate_instance("uncorrelated", 100, 25, seed=1)
    dp = dp_optimal_profits(inst, inst.total_expected_weight())
    sched = build_schedule(int(0.5 * inst.total_expected_weight()), 1000, 500,
                           1000, 101_000, 1, inst.total_expected_weight(), seed=4)
    bad = 0
    seen_infeasible = 0
    all_nonneg = True
    for algo, kind in (("posdc", CHERNOFF), ("ea11", CHEBYSHEV)):
        rec = run_algorithm(algo, inst, sched, ChanceParams(0.0001, 25, kind),
                            dp, seed=17)
        infeasible = rec.intervals.series("violation") > 0.0001
        p_stars = dp[rec.intervals.series("capacity")]
        bad += int((rec.per_iteration_phi[infeasible] < p_stars[infeasible]).sum())
        seen_infeasible += int(infeasible.sum())
        all_nonneg &= bool((rec.per_iteration_phi >= 0).all())
    ok = neg == 0 and bad == 0 and all_nonneg and seen_infeasible > 0
    report(5, "offline-error invariants", ok,
           f"{neg} negative phi, {bad} infeasible iterations below P(x*) "
           f"({seen_infeasible} infeasible iterations exercised)")


def test_feasible_fraction_is_the_dense_mean(desk_campaign):
    """``run_algorithm`` counts the feasible iterations on the interval log;
    the share equals the dense series' mean bit for bit, on runs that spend
    part of their iterations infeasible."""
    records = desk_campaign.records
    for (cell, _), rec in records.items():
        violation = rec.intervals.series("violation")
        assert rec.feasible_fraction == float((violation <= cell.alpha).mean())
    assert any(0 < rec.feasible_fraction < 1 for rec in records.values())


def test_criterion_6_trend_reproduction(desk_campaign):
    phis = {(a, b, al): mean_phi(desk_campaign, a, b, al)
            for a in ("ea11", "posdc")
            for b in (CHEBYSHEV, CHERNOFF)
            for al in (0.01, 0.0001)}
    tight = 0.0001
    order_a = (
        phis[("posdc", CHERNOFF, tight)] < phis[("posdc", CHEBYSHEV, tight)]
        and phis[("posdc", CHERNOFF, tight)] < phis[("ea11", CHERNOFF, tight)]
        and phis[("ea11", CHERNOFF, tight)] < phis[("ea11", CHEBYSHEV, tight)])
    mono_b = all(phis[(a, b, 0.0001)] > phis[(a, b, 0.01)]
                 for a in ("ea11", "posdc") for b in (CHEBYSHEV, CHERNOFF))
    detail = ", ".join(
        f"{a}-{b}@{al:g}={phis[(a, b, al)]:.0f}"
        for a in ("ea11", "posdc") for b in (CHEBYSHEV, CHERNOFF)
        for al in (0.01, 0.0001))
    ok = order_a and mono_b and desk_campaign.elapsed < 600.0
    report(6, "benchmark trend reproduction", ok,
           f"orderings={'ok' if order_a else 'VIOLATED'}, "
           f"alpha-monotonicity={'ok' if mono_b else 'VIOLATED'}, "
           f"{desk_campaign.elapsed:.0f}s; {detail}")


# --- 7. Kruskal-Wallis -------------------------------------------------------

def test_criterion_7_kruskal_wallis(desk_campaign):
    h, _ = kruskal_wallis([[1, 2, 3], [4, 5, 6]])
    h_ok = abs(h - 3.857) <= 0.001
    h0, p0 = kruskal_wallis([[2, 2], [2, 2, 2]])
    ident_ok = h0 == 0.0 and p0 == 1.0

    # antisymmetric labels on every setting of the campaign, as summary.csv
    # prints them; a setting left unlabelled fails the check
    anti_ok = True
    flip = {"+": "-", "-": "+", "*": "*"}
    for _, _, named, labels in group_runs_csv(desk_campaign.runs_csv):
        if labels is None:
            anti_ok = False
            continue
        for a in named:
            for b in named:
                if labels[(a, b)] != flip[labels[(b, a)]]:
                    anti_ok = False
                if a == b and labels[(a, b)] != "*":
                    anti_ok = False
    report(7, "Kruskal-Wallis and labels", h_ok and ident_ok and anti_ok,
           f"H={h:.4f} (want 3.857±0.001), identical-groups=({h0},{p0}), "
           f"antisymmetry={'ok' if anti_ok else 'VIOLATED'}")


# --- 8. NSGA-II structural invariants -----------------------------------------

def test_criterion_8_nsga2_invariants():
    inst = generate_instance("uncorrelated", 100, 25, seed=88)
    params = ChanceParams(0.01, 25, CHERNOFF)
    ctx = _RunContext(inst, params)
    capacity = int(0.5 * inst.total_expected_weight())
    alg = Nsga2(ctx, np.random.default_rng(42), capacity)
    evaluations = 0
    size_ok = True
    front_ok = True
    while evaluations < 10_000:
        alg.generation(capacity)
        evaluations += Nsga2.pop_size
        if len(alg.bits) != 20 or len(alg.p) != 20:
            size_ok = False
        front0 = fast_nondominated_sort(alg.p, alg.cstar)[0]
        p, c = alg.p[front0], alg.cstar[front0]
        strict = ((p[:, None] >= p[None, :]) & (c[:, None] <= c[None, :])
                  & ((p[:, None] > p[None, :]) | (c[:, None] < c[None, :])))
        np.fill_diagonal(strict, False)
        if strict.any():
            front_ok = False
    report(8, "NSGA-II structural invariants", size_ok and front_ok,
           f"population-size={'ok' if size_ok else 'VIOLATED'}, "
           f"rank-0 non-domination={'ok' if front_ok else 'VIOLATED'} "
           f"over {evaluations} evaluations")


# --- 9. Determinism under parallelism -----------------------------------------

def test_criterion_9_determinism_across_jobs(tmp_path):
    base = dict(kind="uncorrelated", n=12, deltas=(25,), rs=(300,), taus=(150,),
                alphas=(0.01,), algos=("ea11", "posdc", "nsga2"),
                bounds=(CHEBYSHEV, CHERNOFF), runs=2, total_iters=1000,
                warmup=100, base_seed=99)
    a = run_campaign(CampaignConfig(**base, out_dir=str(tmp_path / "a"), jobs=1))
    b = run_campaign(CampaignConfig(**base, out_dir=str(tmp_path / "b"), jobs=3))
    c = run_campaign(CampaignConfig(**base, out_dir=str(tmp_path / "c"), jobs=1))
    bytes_a = (tmp_path / "a" / "runs.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "runs.csv").read_bytes()
    bytes_c = (tmp_path / "c" / "runs.csv").read_bytes()
    ok = bytes_a == bytes_b == bytes_c and a.summary_csv == b.summary_csv == c.summary_csv
    report(9, "determinism under parallelism", ok,
           f"runs.csv identical across jobs∈{{1,3}} and reruns "
           f"({len(bytes_a)} bytes)")
