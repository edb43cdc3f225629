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

    Items that cannot raise any entry (weight above c_max, profit <= 0) are
    skipped. Item i, of weight w and profit p, then sets
    dp[c] = max(dp[c], dp[c - w] + p) for c in lo_i..top_i, where top_i is
    the prefix weight sum capped at c_max: every entry above it equals the
    prefix profit sum, because the whole prefix fits there, so those entries
    are written once, just before they enter the range or at the end. lo_i
    is at least w, and at least c_min - S, S the weight of the items after
    i, since no later item reads lower. Entries left below lo_i go stale,
    but every entry only ever holds an achievable profit. An optimum y* at
    any c' in [c_min, c_max] is found at c' if its path d_i = c' - (weight
    of y* after item i) is at least lo_i at every item i it holds (above
    top_i every entry is exact anyway). d_i >= w and d_i >= c_min - S
    always hold, so every entry from c_min to c_max is exact.

    In falling efficiency (ties: lighter first), weak LP duality gives a
    further edge, below which c_i, the weight of y* among the first i
    items, never falls, and so neither does d_i >= c_i. Let P_i be the
    weight of the first i items, b the first item that does not fit c',
    lambda = p_b / w_b (p_b = 0, w_b = 1 when all fit), r_j = p_j - lambda w_j
    and UB = lambda c' + sum max(0, r_j). Every y of weight w(y) <= c' has
    profit
        UB - lambda (c' - w(y)) - sum_{r_j > 0} r_j (1 - y_j)
           - sum_{r_j < 0} |r_j| y_j,
    and y* has at least LB, the profit of the first b - 1 items, so the
    three loss terms sum to at most UB - LB = lambda (c' - P_(b-1)). The
    break items of the window run from b_lo to b_hi, those of c_min and
    c_max, and b breaks every c' up to top_b = min(c_max, P_b - 1), so the
    loss is at most gap, the largest ceil(p_b (top_b - P_(b-1)) / w_b).
    Floor each quotient below. While r_i > 0 at b_lo's lambda, the largest,
    item i is the least efficient of the first i at every c', and the
    second term alone gives c_i >= P_i - G w_i / (p_i w_b - p_b w_i), with
    b = b_lo and G = gap w_b; a smaller lambda only raises this bound. Once
    b_hi < n and r_j < 0 for every j > i at b_hi's lambda, the smallest,
    item i + 1 is the most efficient after i at every c', and the first and
    third terms give s (c' - c_i) <= lambda (c' - P_(b-1)) with
    s = lambda - p_(i+1) / w_(i+1) <= lambda. So c_i is at least
    c' - lambda (c' - P_(b-1)) / s, which falls as c' rises in b's piece
    (lambda / s >= 1), so is least at top_b, at least t - gap / s, where
    t = min(c_max, P_(b_lo) - 1) is the lowest piece top and s is least at
    b_hi's lambda: c_i >= t - G w_(i+1) / (p_b w_(i+1) - p_(i+1) w_b), with
    b = b_hi, and c_i >= t - G / p_b for the last item. Since c_i never
    falls as i grows, each edge is the largest of those up to item i.
    The edges are exact int64 integers. Items go in falling efficiency,
    and each lo_i is raised to edge i, except where the edges' products
    could overflow int64, where every edge is 0.
    The accumulators are int32 when the total profit of the items kept is
    below 2**31, and int64 otherwise.

    Where every item kept has profit equal to weight (bsc instances at
    c = 100), a subset's profit is its weight, so the best profit at c is
    the heaviest subset that fits: the largest subset sum <= c. Those sums
    are the set bits of one Python int, shifted and or-ed once per item;
    entry c is c itself where c is reachable, and the largest reachable sum
    below c elsewhere."""
    if not 0 <= c_min <= c_max:
        raise ValueError(f"need 0 <= c_min <= c_max, got {c_min}, {c_max}")
    weights, profits = instance.weights, instance.profits
    keep = (weights <= c_max) & (profits > 0)
    weights, profits = weights[keep], profits[keep]
    if np.array_equal(profits, weights):
        return _subset_sums(weights.tolist(), c_max, c_min)
    order, los, tops = _plan(weights, profits, c_max, c_min)
    weights = weights[order].tolist()
    profits = profits[order].tolist()
    dtype = np.int32 if sum(profits) < 2**31 else np.int64
    dp = np.empty(c_max + 1, dtype)
    dp[0] = 0
    # dp[c - w] + p for the current item, as wide as the widest update
    scratch = np.empty(int((tops - los).max(initial=-1)) + 1, dtype)
    reach = profit_sum = 0
    for w, p, lo, top in zip(weights, profits, los.tolist(), tops.tolist()):
        dp[reach + 1:top + 1] = profit_sum
        span = top - lo + 1
        # the sum goes to scratch first, so each item is used at most once
        np.add(dp[lo - w:top - w + 1], p, out=scratch[:span])
        np.maximum(dp[lo:top + 1], scratch[:span], out=dp[lo:top + 1])
        reach, profit_sum = top, profit_sum + p
    dp[reach + 1:] = profit_sum
    dp[:c_min] = -1
    return dp.astype(np.int64, copy=False)


def _subset_sums(weights, c_max, c_min):
    """``dp_optimal_profits`` where profit equals weight: entry c is the
    largest sum <= c of a subset of ``weights``."""
    mask = (1 << (c_max + 1)) - 1
    reach = 1  # bit s set: some subset weighs exactly s
    for w in weights:
        reach |= (reach << w) & mask
    bits = np.unpackbits(np.frombuffer(reach.to_bytes(c_max // 8 + 1, "little"),
                                       np.uint8), count=c_max + 1, bitorder="little")
    table = np.arange(c_max + 1, dtype=np.int64)
    # an unreachable c takes the sum just below its run of unreachable ones
    # (0 is always reachable)
    gaps = np.flatnonzero(bits == 0)
    first = np.flatnonzero(np.diff(gaps, prepend=-1) > 1)
    table[gaps] = np.repeat(gaps[first] - 1, np.diff(first, append=len(gaps)))
    table[:c_min] = -1
    return table


def _plan(weights, profits, c_max, c_min):
    """(order, lo, top) of ``dp_optimal_profits``: items in falling
    efficiency (ties: lighter first), and the first and last entry each
    item updates, lo raised to the item's LP edge."""
    order = np.lexsort((weights, -(profits / weights)))
    w, p = weights[order], profits[order]
    prefix = np.cumsum(w)
    top = np.minimum(prefix, c_max)
    lo = np.maximum(w, prefix - (prefix[-1] - c_min))
    big, heavy = int(p.max()), int(w.max())
    # below 2**52 the edges fit int64, and distinct p/w stay distinct floats
    if (big * c_max + int(p.sum()) * heavy) * heavy < 2**52:
        lo = np.maximum(lo, _lp_edges(w, p, c_max, c_min))
    return order, np.minimum(lo, top + 1), top


def _lp_edges(w, p, c_max, c_min):
    """The LP edge of each item, for items in falling efficiency: over the
    first i items, no optimum for a capacity in [c_min, c_max] weighs less
    than edge i."""
    n = len(w)
    prefix = np.cumsum(w)
    b_lo, b_hi = np.searchsorted(prefix, (c_min, c_max), "right").tolist()
    # each break piece's gap at its top, ceil(p_b (top_b - P_(b-1)) / w_b)
    piece = slice(b_lo, b_hi + 1)
    below = (prefix - w)[piece] - np.minimum(c_max, prefix[piece] - 1)
    gap = int((-(p[piece] * below // w[piece])).max(initial=0))
    edge = np.zeros_like(w)
    p_b, w_b = (p[b_lo], w[b_lo]) if b_lo < n else (0, 1)
    d = p * w_b - p_b * w  # r_j * w_b at b_lo's lambda
    head = np.count_nonzero(d > 0)
    edge[:head] = prefix[:head] - gap * w_b * w[:head] // d[:head]
    if b_hi < n:  # item b_hi has r = 0, so these items follow the head
        p_b, w_b = p[b_hi], w[b_hi]
        d = p * w_b - p_b * w  # r_j * w_b at b_hi's lambda
        last = n - 1 - np.count_nonzero(d < 0)
        # the last item's bound is that of an item of weight 1 and profit 0
        edge[last:] = min(c_max, prefix[b_lo] - 1) - (
            gap * w_b * np.append(w[last + 1:], 1)
            // -np.append(d[last + 1:], -p_b))
    return np.maximum.accumulate(edge)


def _enumerate_subsets(instance):
    """Yield (bits_matrix, profits, weights, counts, lex_keys) in chunks over
    all 2^n subsets. lex_keys order bit-vectors lexicographically (bit 0 most
    significant)."""
    n = instance.n
    profits, weights = instance.profits, instance.weights
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
