"""Exact deterministic baselines: DP over a window of capacities and
brute-force optima for small instances (deterministic and chance-constrained)."""

from __future__ import annotations

import numpy as np

from . import chance
from .chance import ChanceParams

_BRUTE_FORCE_MAX_N = 20
_ENUM_CHUNK = 1 << 14


def dp_optimal_profits(instance, c_max: int, c_min: int = 0) -> np.ndarray:
    """0/1 knapsack DP over expected weights: entry c is the best profit
    achievable with total expected weight <= c, for every c in c_min..c_max.
    Entries below c_min are -1, which no optimum can be. Returns int64.

    The table does not depend on item order, so items are visited in
    ascending expected weight, which keeps every prefix weight sum as small
    as possible. After each item, every entry above ``reach`` (the prefix
    weight sum, capped at c_max) equals the prefix profit sum, because the
    whole prefix fits there; so an item of weight w only updates entries
    w..min(c_max, reach + w), and the entries above ``reach`` are written
    once, just before they enter that range or at the end. No later item
    reads an entry below c_min - S, S the weight of the items after this
    one, so the update also starts no lower than that. Items that cannot
    raise any entry (weight above c_max, profit <= 0) are skipped. The
    accumulators are int32 when the total profit of the items kept is below
    2**31, and int64 otherwise."""
    if not 0 <= c_min <= c_max:
        raise ValueError(f"need 0 <= c_min <= c_max, got {c_min}, {c_max}")
    weights = instance.weight_array()
    profits = instance.profit_array()
    keep = (weights <= c_max) & (profits > 0)
    order = np.argsort(weights[keep])
    weights = weights[keep][order]
    after = (weights.sum() - np.cumsum(weights)).tolist()
    weights = weights.tolist()
    profits = profits[keep][order].tolist()
    dtype = np.int32 if sum(profits) < 2**31 else np.int64
    dp = np.empty(c_max + 1, dtype)
    dp[0] = 0
    scratch = np.empty(c_max + 1, dtype)  # dp[c - w] + p for the current item
    reach = profit_sum = 0
    for w, p, s in zip(weights, profits, after):
        top = min(c_max, reach + w)
        dp[reach + 1:top + 1] = profit_sum
        lo = min(max(w, c_min - s), top + 1)
        span = top - lo + 1
        # the sum goes to scratch first, so each item is used at most once
        np.add(dp[lo - w:top - w + 1], p, out=scratch[:span])
        np.maximum(dp[lo:top + 1], scratch[:span], out=dp[lo:top + 1])
        reach, profit_sum = top, profit_sum + p
    dp[reach + 1:] = profit_sum
    dp[:c_min] = -1
    return dp.astype(np.int64, copy=False)


def _enumerate_subsets(instance):
    """Yield (bits_matrix, profits, weights, counts, lex_keys) in chunks over
    all 2^n subsets. lex_keys order bit-vectors lexicographically (bit 0 most
    significant)."""
    n = instance.n
    profits = instance.profit_array()
    weights = instance.weight_array()
    shifts = np.arange(n, dtype=np.uint32)
    lex_weights = 1 << (n - 1 - shifts).astype(np.int64)
    total = 1 << n
    for start in range(0, total, _ENUM_CHUNK):
        masks = np.arange(start, min(start + _ENUM_CHUNK, total), dtype=np.uint32)
        bits = ((masks[:, None] >> shifts) & 1).astype(np.int64)
        yield (bits, bits @ profits, bits @ weights, bits.sum(axis=1),
               bits @ lex_weights)


def _check_brute_force_n(instance):
    if instance.n > _BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"brute force capped at n <= {_BRUTE_FORCE_MAX_N}, got {instance.n}")


def _best_subset(instance, feasible_of_chunk):
    """Exhaustive max-profit subset under a per-chunk feasibility predicate;
    ties go to the lexicographically smallest bit-vector."""
    best_profit = -1
    best_key = None
    best_bits = None
    for bits, profs, ews, counts, keys in _enumerate_subsets(instance):
        feas = feasible_of_chunk(profs, ews, counts)
        if not feas.any():
            continue
        profs = np.where(feas, profs, -1)
        top = profs.max()
        if top < best_profit:
            continue
        cand = np.flatnonzero(profs == top)
        j = cand[np.argmin(keys[cand])]
        if top > best_profit or keys[j] < best_key:
            best_profit = int(top)
            best_key = int(keys[j])
            best_bits = bits[j].astype(np.uint8)
    if best_bits is None:  # no feasible subset at all (empty set infeasible)
        return 0, np.zeros(instance.n, np.uint8)
    return best_profit, best_bits


def brute_force_optimum(instance, capacity: float):
    """Exact deterministic optimum by enumeration (n <= 20)."""
    _check_brute_force_n(instance)
    return _best_subset(instance, lambda p, w, k: w <= capacity)


def brute_force_chance_optimum(instance, capacity: float, params: ChanceParams):
    """Exact optimum subject to the surrogate chance constraint
    tail(x, capacity) <= alpha of the configured bound family: the scalar
    predicate under which the (1+1)-EA's violation term is 0."""
    _check_brute_force_n(instance)
    tail, alpha = chance.tail_bound(params, instance.n).tail, params.alpha
    return _best_subset(instance, lambda p, w, k: np.array(
        [tail(wi, ki, capacity) <= alpha for wi, ki in zip(w.tolist(), k.tolist())]))
