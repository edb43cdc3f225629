import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from dcckp import oracle
from dcckp.chance import CHEBYSHEV, CHERNOFF, ChanceParams, tail_bound
from dcckp.model import generate_instance
from dcckp.oracle import (
    brute_force_chance_optimum,
    brute_force_optimum,
    dp_optimal_profits,
)
from dcckp.solvers import _RunContext


def stub_instance(pairs, delta=25):
    """Instance-shaped stub for arithmetic examples with weights below the
    generator's Table-style floor."""
    profits = np.array([p for p, _ in pairs], np.int64)
    weights = np.array([w for _, w in pairs], np.int64)
    return SimpleNamespace(n=len(pairs), delta=delta, profits=profits, weights=weights)


def test_dp_two_items_only_singles_fit():
    inst = stub_instance([(3, 2), (4, 3)])
    table = dp_optimal_profits(inst, 4)
    assert table[4] == 4


def test_dp_three_items_derived_by_enumeration():
    inst = stub_instance([(3, 2), (4, 3), (5, 4)])
    table = dp_optimal_profits(inst, 9)
    # brute force over all 8 subsets at c = 5 gives items 1+2 -> profit 7
    assert table[5] == 7
    assert table[0] == 0
    assert table[9] == 12
    # non-decreasing in capacity
    assert (np.diff(table) >= 0).all()


def reference_dp(instance, c_max):
    """The full-range int64 loop over items in instance order."""
    dp = np.zeros(c_max + 1, np.int64)
    for w, p in zip(instance.weights.tolist(),
                    instance.profits.tolist()):
        if w <= c_max:
            np.maximum(dp[w:], dp[:-w] + p, out=dp[w:])
    return dp


def assert_matches_reference(inst, c_max, c_min=0, full=None):
    """The table of the window c_min..c_max equals ``full`` (the reference
    by default) from c_min up, and is -1 below it."""
    table = dp_optimal_profits(inst, c_max, c_min)
    assert table.dtype == np.int64 and len(table) == c_max + 1
    if full is None:
        full = reference_dp(inst, c_max)
    np.testing.assert_array_equal(table[c_min:], full[c_min:])
    assert (table[:c_min] == -1).all()


def test_dp_matches_reference_on_random_stubs():
    rng = np.random.default_rng(11)
    for trial in range(400):
        n = int(rng.integers(1, 16))
        weights = rng.integers(1, 80, n).tolist()
        # every fourth trial draws profits near 2**30, so totals pass 2**31
        high = 2**30 if trial % 4 == 0 else 1000
        profits = rng.integers(1, high, n).tolist()
        inst = stub_instance(list(zip(profits, weights)))
        total = sum(weights)
        # c_max = 0, below some single weights, inside, at and above the total
        for c_max in {0, min(weights), max(weights) - 1, total // 2, total,
                      total + int(rng.integers(1, 50))}:
            assert_matches_reference(inst, c_max)


def test_dp_int64_path_when_profit_total_passes_int32():
    inst = stub_instance([(2**31 - 1, 3), (2**31 - 1, 4), (5, 2)])
    table = dp_optimal_profits(inst, 9)
    assert table.dtype == np.int64
    assert table[9] == 2 * (2**31 - 1) + 5
    assert_matches_reference(inst, 9)


def test_dp_skips_items_that_cannot_raise_any_entry():
    # too heavy for c_max, zero profit, negative profit
    inst = stub_instance([(100, 50), (3, 2), (0, 1), (-6, 2), (4, 3)])
    assert_matches_reference(inst, 10)
    assert dp_optimal_profits(inst, 10)[10] == 7


@pytest.mark.parametrize("kind", ["uncorrelated", "bsc"])
def test_dp_matches_reference_n1000(kind):
    inst = generate_instance(kind, 1000, 25, seed=4)
    assert_matches_reference(inst, inst.total_expected_weight())


def test_dp_window_matches_the_full_table():
    rng = np.random.default_rng(23)
    for trial in range(120):
        kind = ("uncorrelated", "bsc")[trial % 2]
        inst = generate_instance(kind, int(rng.integers(1, 201)), 25, seed=trial)
        total = inst.total_expected_weight()
        c_max = int(rng.integers(0, total + 200))  # at times above the total
        full = reference_dp(inst, c_max)
        for c_min in (0, int(rng.integers(0, c_max + 1)), c_max,
                      max(0, c_max - int(rng.integers(0, 3000)))):
            assert_matches_reference(inst, c_max, c_min, full)


def ascending_weight_cells(inst, c_max, c_min):
    """Entries the updates touch with items in ascending weight, cut at
    w and at c_min - (weight of the items after), as written item by item."""
    weights = sorted(w for w, p in zip(inst.weights.tolist(),
                                       inst.profits.tolist())
                     if w <= c_max and p > 0)
    after, reach, cells = sum(weights), 0, 0
    for w in weights:
        after -= w
        top = min(c_max, reach + w)
        cells += top - min(max(w, c_min - after), top + 1) + 1
        reach = top
    return cells


def planned_cells(inst, c_max, c_min):
    """Entries the updates of the plan the DP runs touch."""
    keep = (inst.weights <= c_max) & (inst.profits > 0)
    _, lo, top = oracle._plan(inst.weights[keep], inst.profits[keep], c_max, c_min)
    return int((top - lo + 1).sum())


def efficiency_order(weights, profits):
    """Falling p/w, ties lighter first, compared as exact fractions."""
    return np.array(sorted(range(len(weights)), key=lambda i: (
        -Fraction(int(profits[i]), int(weights[i])), int(weights[i]))), np.int64)


def near_tie_pairs(rng, n):
    """Items in threes: (p, w), a Farey neighbour (p2, w2) with
    p2 * w - p * w2 = 1, so p2/w2 - p/w = 1/(w * w2), and (2p, 2w), a tie."""
    pairs = []
    while len(pairs) < n:
        w = int(rng.integers(2, 60))
        p = int(rng.integers(1, 200))
        if math.gcd(p, w) != 1:
            continue
        w2 = -pow(p, -1, w) % w + w * int(rng.integers(0, 3))
        pairs += [(p, w), ((1 + p * w2) // w, w2), (2 * p, 2 * w)]
    return pairs[:n]


def random_pairs(rng, trial, n):
    shape = trial % 6
    if shape == 0:
        return near_tie_pairs(rng, n)
    weights = rng.integers(1, 80, n)
    if shape == 1:  # totals pass 2**31, the int64 accumulators
        profits = rng.integers(2**29, 2**30, n)
    elif shape == 2:  # the edges' int64 products could overflow: edge 0
        profits = rng.integers(2**49, 2**50, n)
    elif shape == 3:  # every efficiency ties, or nearly
        profits = weights + int(rng.integers(0, 3))
    elif shape == 4:
        profits = rng.integers(1, 1000, n)
    else:  # the edges' products mostly between 2**52 and 2**63: no LP edge
        profits = rng.integers(2**36 - 2**32, 2**36 + 2**32, n)
    return list(zip(profits.tolist(), weights.tolist()))


def test_dp_window_matches_reference_on_random_stubs():
    rng = np.random.default_rng(31)
    for trial in range(180):
        inst = stub_instance(random_pairs(rng, trial, int(rng.integers(1, 201))))
        total = int(inst.weights.sum())
        # inside, at the total and above it (lambda = 0 when all items fit)
        for c_max in (int(rng.integers(0, total + 1)), total,
                      total + int(rng.integers(1, 50))):
            full = reference_dp(inst, c_max)
            for c_min in (int(rng.integers(0, c_max + 1)), c_max,
                          max(0, c_max - int(rng.integers(0, 40)))):
                assert_matches_reference(inst, c_max, c_min, full)
            keep = inst.weights <= c_max
            if trial % 6 == 0 and keep.any():
                # near ties and ties: the float sort orders them exactly
                w, p = inst.weights[keep], inst.profits[keep]
                order, _, _ = oracle._plan(w, p, c_max, 0)
                np.testing.assert_array_equal(order, efficiency_order(w, p))


def test_dp_window_of_a_wide_instance():
    # the window wide's schedules reach: falling efficiency with the LP edge
    # touches under a tenth of the cells ascending weight does
    for delta in (25, 50):
        for seed in (1, 2, 3):
            inst = generate_instance("uncorrelated", 1000, delta, seed=seed)
            c0 = inst.total_expected_weight() // 2
            low, high = c0 - 5000, c0 + 5000
            assert_matches_reference(inst, high, low,
                                     dp_optimal_profits(inst, high))
            assert (planned_cells(inst, high, low)
                    < ascending_weight_cells(inst, high, low) / 10)


def test_dp_window_of_a_desk_instance():
    # n = 100 at W/2 +- 5,000: the window spans several break pieces
    for delta in (25, 50):
        for seed in (1, 2, 3):
            inst = generate_instance("uncorrelated", 100, delta, seed=seed)
            c0 = inst.total_expected_weight() // 2
            low, high = c0 - 5000, c0 + 5000
            assert_matches_reference(inst, high, low)


@pytest.mark.parametrize("n", [1, 2, 12, 100])
def test_subset_sums_of_bsc_instances_match_the_reference(n):
    for seed in range(5):
        inst = generate_instance("bsc", n, 25, seed=seed)
        assert np.array_equal(inst.profits, inst.weights)  # c = 100
        total = inst.total_expected_weight()
        for c_max, c_min in ((total, 0), (total, 1), (total // 2, total // 3),
                             (total // 2, total // 2), (total + 30, total - 5),
                             (int(inst.weights.min()) - 1, 0)):
            assert_matches_reference(inst, c_max, c_min)


def test_subset_sums_of_profit_equal_weight_stubs_match_the_reference():
    inst = stub_instance([(w, w) for w in (7, 3, 12, 5, 5, 40)])
    for c_max, c_min in ((30, 0),    # 40 is heavier than c_max
                         (21, 21),   # c_min = c_max
                         (25, 25),
                         (80, 10),   # above the total, 72
                         (2, 0),     # below the lightest item
                         (2, 2), (0, 0)):
        assert_matches_reference(inst, c_max, c_min)


def test_one_profit_above_its_weight_takes_the_general_path(monkeypatch):
    pairs = [(w, w) for w in (7, 3, 12, 5, 5, 40)]
    pairs[2] = (13, 12)
    inst = stub_instance(pairs)
    planned, plan = [], oracle._plan
    monkeypatch.setattr(oracle, "_plan",
                        lambda *args: planned.append(args) or plan(*args))
    # every window keeps the item of profit 13 and weight 12
    for c_max, c_min in ((30, 0), (21, 21), (80, 10), (12, 0)):
        assert_matches_reference(inst, c_max, c_min)
    assert len(planned) == 4


def test_profit_equal_weight_is_what_skips_the_profit_dp(monkeypatch):
    def plan(*args):
        raise AssertionError("the general profit DP ran")
    monkeypatch.setattr(oracle, "_plan", plan)
    inst = generate_instance("bsc", 100, 25, seed=1)  # c = 100
    assert_matches_reference(inst, inst.total_expected_weight(), 1)
    uncorrelated = generate_instance("uncorrelated", 100, 25, seed=1)
    # below the lightest item no item is kept: no profits equal no weights
    assert_matches_reference(uncorrelated, int(uncorrelated.weights.min()) - 1, 1)
    for other in (uncorrelated,
                  generate_instance("bsc", 100, 25, c_constant=50, seed=1)):
        with pytest.raises(AssertionError):
            dp_optimal_profits(other, other.total_expected_weight(), 1)


def optimal_subsets(weights, profits, c_max, c_min):
    """Bit rows of every subset that is optimal at some capacity in
    [c_min, c_max]: it fits c_max, and no subset beats it at
    max(its weight, c_min)."""
    n = len(weights)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    weight, profit = bits @ weights, bits @ profits
    best = reference_dp(stub_instance(list(zip(profits, weights))), c_max)
    fits = weight <= c_max
    at = np.maximum(weight[fits], c_min)
    return bits[fits][profit[fits] == best[at]]


def test_lp_edges_hold_for_every_optimum_and_are_reached():
    # the edges, checked directly: every optimum's weight over the first i
    # items in falling efficiency is at least edge i. Each kind of edge is
    # met exactly where it is the item's own (above the edge before it), in
    # windows of one break piece and of several, so an edge one too high, a
    # head edge at b_hi's lambda or a tail edge from c_max fails here
    rng = np.random.default_rng(5)
    met = {(k, several): 0 for k in ("head", "tail", "last")
           for several in (False, True)}
    for trial in range(3000):
        n = int(rng.integers(2, 11))
        w = rng.integers(1, 16, n)
        p = rng.integers(1, 40, n)
        c_max = int(rng.integers(1, w.sum() + 3))
        # about two windows in three span several break pieces
        c_min = int(rng.integers(0, c_max + 1))
        keep = w <= c_max
        w, p = w[keep], p[keep]
        order = efficiency_order(w, p)
        w, p = w[order], p[order]
        edge = oracle._lp_edges(w, p, c_max, c_min)
        # the kind of each edge, from lambda = p_b / w_b as a fraction at
        # b_lo and b_hi, the first items that do not fit c_min and c_max
        b_lo, b_hi = np.searchsorted(np.cumsum(w), (c_min, c_max), "right")
        lam_lo, lam_hi = (Fraction(int(p[b]), int(w[b])) if b < len(w) else 0
                          for b in (b_lo, b_hi))
        r_lo = [pj - lam_lo * wj for pj, wj in zip(p.tolist(), w.tolist())]
        r_hi = [pj - lam_hi * wj for pj, wj in zip(p.tolist(), w.tolist())]
        kind = ["head" if rj > 0 else None for rj in r_lo]
        if lam_hi:
            kind[-1] = "last"
            for i in range(len(w) - 2, -1, -1):
                if r_hi[i + 1] >= 0:
                    break
                kind[i] = "tail"
        prefix = np.cumsum(optimal_subsets(w, p, c_max, c_min) * w, axis=1)
        assert (prefix >= edge).all()
        for i, k in enumerate(kind):
            if k is not None and (i == 0 or edge[i] > edge[i - 1]):
                met[k, b_lo < b_hi] += int((prefix[:, i] == edge[i]).any())
    assert all(met.values()), met


def test_dp_rejects_a_bad_window():
    inst = generate_instance("uncorrelated", 3, 25, seed=1)
    with pytest.raises(ValueError):
        dp_optimal_profits(inst, 10, -1)
    with pytest.raises(ValueError):
        dp_optimal_profits(inst, 10, 11)


def test_dp_zero_capacity():
    inst = generate_instance("uncorrelated", 10, 25, seed=1)
    assert dp_optimal_profits(inst, 0)[0] == 0


def test_dp_rejects_negative_capacity():
    inst = generate_instance("uncorrelated", 3, 25, seed=1)
    with pytest.raises(ValueError):
        dp_optimal_profits(inst, -1)


def test_brute_force_single_item():
    inst = stub_instance([(5, 10)])
    assert brute_force_optimum(inst, 10)[0] == 5
    profit, bits = brute_force_optimum(inst, 9)
    assert profit == 0 and not bits.any()


def test_brute_force_rejects_large_n():
    inst = generate_instance("uncorrelated", 21, 25, seed=1)
    with pytest.raises(ValueError):
        brute_force_optimum(inst, 1000)
    with pytest.raises(ValueError):
        brute_force_chance_optimum(inst, 1000, ChanceParams(0.01, 25, CHEBYSHEV))


def test_brute_force_tie_breaks_lexicographically():
    # two identical items: {1,0} and {0,1} tie; bit 0 set is lexicographically larger
    inst = stub_instance([(5, 10), (5, 10)])
    profit, bits = brute_force_optimum(inst, 10)
    assert profit == 5
    assert bits.tolist() == [0, 1]
    # n = 15: the tie {0} lies in the first enumeration chunk of 2**14 subsets
    # and the smaller {14} in the second, whose equal profit must still count
    inst = stub_instance([(5, 10)] + [(1, 11)] * 13 + [(5, 10)])
    profit, bits = brute_force_optimum(inst, 10)
    assert profit == 5
    assert bits.tolist() == [0] * 14 + [1]


def test_chance_optimum_capacity_threshold():
    # single item, E(w)=100: Chebyshev bound sits at ~243.614, so C=244
    # admits the item and C=243 does not
    inst = stub_instance([(5, 100)], delta=25)
    params = ChanceParams(0.01, 25, CHEBYSHEV)
    profit, bits = brute_force_chance_optimum(inst, 244, params)
    assert (profit, bits.tolist()) == (5, [1])
    profit, bits = brute_force_chance_optimum(inst, 243, params)
    assert (profit, bits.tolist()) == (0, [0])


def test_chance_optimum_tightening_alpha_never_helps():
    inst = generate_instance("uncorrelated", 12, 50, seed=3)
    cap = int(0.6 * inst.total_expected_weight())
    for kind in (CHEBYSHEV, CHERNOFF):
        last = None
        for alpha in (0.5, 0.1, 0.01, 0.001, 0.0001):
            profit, _ = brute_force_chance_optimum(
                inst, cap, ChanceParams(alpha, 50, kind))
            if last is not None:
                assert profit <= last
            last = profit


def test_chance_optimum_below_deterministic():
    rng = np.random.default_rng(5)
    for trial in range(8):
        inst = generate_instance("uncorrelated", 10, 25, seed=100 + trial)
        cap = int(rng.integers(500, inst.total_expected_weight()))
        det = brute_force_optimum(inst, cap)[0]
        for kind in (CHEBYSHEV, CHERNOFF):
            chance_p, bits = brute_force_chance_optimum(
                inst, cap, ChanceParams(0.01, 25, kind))
            assert chance_p <= det
            # the winning subset actually satisfies the surrogate constraint
            k = int(bits.sum())
            ew = int(inst.weights[bits.astype(bool)].sum())
            bound = tail_bound(ChanceParams(0.01, 25, kind), inst.n)
            assert bound.tail(ew, k, cap) <= 0.01


def test_chance_optimum_is_best_where_ea_violation_is_zero():
    """The oracle and the (1+1)-EA it grades agree on feasibility: its
    profit is the best over the subsets whose lexicographic violation term
    is 0, at and near every boundary the enumeration meets."""
    for n, seed in ((6, 1), (10, 2), (12, 3)):
        inst = generate_instance("uncorrelated", n, 25, seed=seed)
        masks = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        subsets = list(zip((masks @ inst.profits).tolist(),
                           (masks @ inst.weights).tolist(),
                           masks.sum(axis=1).tolist()))
        total = inst.total_expected_weight()
        for kind in (CHEBYSHEV, CHERNOFF):
            for alpha in (0.5, 0.01, 1e-4):
                params = ChanceParams(alpha, 25, kind)
                ctx = _RunContext(inst, params)
                for cap in (total // 4, total // 2, 3 * total // 4):
                    best = max(p for p, w, k in subsets
                               if ctx.lex_violation(w, k, cap) == 0)
                    assert brute_force_chance_optimum(inst, cap, params)[0] == best


def test_chance_optimum_relaxes_toward_deterministic():
    # alpha -> 1 admits everything with E(W) strictly below C
    inst = generate_instance("uncorrelated", 10, 25, seed=11)
    cap = int(0.7 * inst.total_expected_weight())
    params = ChanceParams(1 - 1e-9, 25, CHEBYSHEV)
    relaxed, _ = brute_force_chance_optimum(inst, cap, params)
    det = brute_force_optimum(inst, cap - 1)[0]  # E(W) <= cap - 1 < cap
    assert relaxed >= det
