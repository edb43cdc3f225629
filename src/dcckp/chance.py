"""Tail-bound surrogates for the chance constraint Pr[W(x) >= C] <= alpha.

Exact evaluation of the violation probability is intractable, so everything
here works with two analytic upper bounds (one-sided Chebyshev and Chernoff)
specialized to independent uniform item weights w_i in
[E(w_i) - delta, E(w_i) + delta]:

* the violation probability of a solution at a given capacity, and
* the inverse view: the smallest capacity at which a solution still passes
  the chance constraint.

A seeded Monte-Carlo estimator of the true violation probability is provided
as the empirical ground truth for both.

Conventions shared by all operations: an empty solution is deterministic
(violation 0 for C > 0, else 1; capacity bound equal to its expected weight),
and any capacity at or below the expected weight reports violation 1.0 since
the one-sided inequalities only bound the regime above the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CHEBYSHEV = "chebyshev"
CHERNOFF = "chernoff"
BOUND_KINDS = (CHEBYSHEV, CHERNOFF)


@dataclass(frozen=True)
class ChanceParams:
    alpha: float
    delta: int
    bound_kind: str

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.bound_kind not in BOUND_KINDS:
            raise ValueError(f"bound_kind must be one of {BOUND_KINDS}")


def chebyshev_violation_prob(expected_weight: float, count: int, delta: float,
                             capacity: float) -> float:
    """Chebyshev upper bound on Pr[W(x) >= capacity]."""
    if count == 0:
        return 0.0 if capacity > 0 else 1.0
    if capacity <= expected_weight:
        return 1.0
    gap = capacity - expected_weight
    v = delta * delta * count
    return v / (v + 3.0 * gap * gap)


def chernoff_violation_prob(expected_weight: float, count: int, delta: float,
                            capacity: float) -> float:
    """Chernoff upper bound on Pr[W(x) >= capacity]."""
    if count == 0:
        return 0.0 if capacity > 0 else 1.0
    if capacity <= expected_weight:
        return 1.0
    gap = capacity - expected_weight
    return math.exp(-3.0 * gap * gap / (4.0 * delta * (3.0 * delta * count + gap)))


def chebyshev_capacity_bound(expected_weight: float, count: int, delta: float,
                             alpha: float) -> float:
    """Smallest capacity with Chebyshev violation <= alpha (exact inverse)."""
    if count == 0:
        return float(expected_weight)
    return expected_weight + delta * math.sqrt(3.0 * alpha * (1.0 - alpha) * count) / (3.0 * alpha)


def chernoff_capacity_bound(expected_weight: float, count: int, delta: float,
                            alpha: float) -> float:
    """Chernoff-family capacity bound at level alpha:
    E + 0.66*delta*(u + sqrt(u^2 + 9*u*k)) with u = -ln(alpha).

    0.66 is the paper's constant. The exact inverse of
    :func:`chernoff_violation_prob` has 2/3 in its place, so this margin is
    exactly 0.99 times the margin at which the closed form equals alpha, and
    the closed form evaluated at this capacity reads slightly above alpha.
    Nothing here proves that the smaller margin still bounds the true
    violation probability; the evidence is the Monte-Carlo check of
    acceptance criterion 2.
    """
    if count == 0:
        return float(expected_weight)
    log_a = math.log(alpha)
    margin = -0.66 * delta * (log_a - math.sqrt(log_a * log_a - 9.0 * log_a * count))
    return expected_weight + margin


def violation_prob(expected_weight: float, count: int, delta: float,
                   capacity: float, bound_kind: str) -> float:
    if bound_kind == CHEBYSHEV:
        return chebyshev_violation_prob(expected_weight, count, delta, capacity)
    if bound_kind == CHERNOFF:
        return chernoff_violation_prob(expected_weight, count, delta, capacity)
    raise ValueError(f"unknown bound kind {bound_kind!r}")


def chernoff_capacity_alpha(expected_weight: float, count: int, delta: float,
                            capacity: float) -> float:
    """Exact inverse of :func:`chernoff_capacity_bound`: the smallest alpha
    whose certified capacity equals ``capacity``.

    Solving capacity = E + 0.66*delta*(u + sqrt(u^2 + 9*u*k)) for u = -ln(alpha)
    gives u = B^2 / (2B + 9k) with B = (capacity - E) / (0.66*delta). Because
    of the 0.66 it reads below :func:`chernoff_violation_prob` at every
    capacity above the mean. That it bounds the true violation probability
    is not proven; it rests on the same Monte-Carlo evidence as
    :func:`chernoff_capacity_bound` (acceptance criterion 2).
    """
    if count == 0:
        return 0.0 if capacity > 0 else 1.0
    if capacity <= expected_weight:
        return 1.0
    b = (capacity - expected_weight) / (0.66 * delta)
    return math.exp(-b * b / (2.0 * b + 9.0 * count))


def certified_violation_prob(expected_weight: float, count: int, delta: float,
                             capacity: float, bound_kind: str) -> float:
    """Tightest violation probability the bound family certifies at this
    capacity: equivalently, the alpha level at which the family's capacity
    bound equals ``capacity``.

    For Chebyshev this is the closed form itself (its capacity bound inverts
    exactly); for Chernoff it is the capacity-bound inverse, strictly below
    the closed form. Feasibility accounting built on this value agrees with
    ``capacity_bound(x) <= C`` for both families.
    """
    if bound_kind == CHEBYSHEV:
        return chebyshev_violation_prob(expected_weight, count, delta, capacity)
    if bound_kind == CHERNOFF:
        return chernoff_capacity_alpha(expected_weight, count, delta, capacity)
    raise ValueError(f"unknown bound kind {bound_kind!r}")


def capacity_bound(agg, params: ChanceParams) -> float:
    """Dispatch the capacity bound for a solution's aggregates."""
    if params.bound_kind == CHEBYSHEV:
        return chebyshev_capacity_bound(agg.expected_weight_sum, agg.count,
                                        params.delta, params.alpha)
    return chernoff_capacity_bound(agg.expected_weight_sum, agg.count,
                                   params.delta, params.alpha)


def capacity_bound_array(expected_weight, count, delta: float, alpha: float,
                         bound_kind: str) -> np.ndarray:
    """Vectorized capacity bound with the same conventions as the scalar
    operations (empty solutions map to their expected weight)."""
    ew = np.asarray(expected_weight, np.float64)
    k = np.asarray(count, np.float64)
    safe_k = np.where(k > 0, k, 1.0)
    if bound_kind == CHEBYSHEV:
        margin = delta * np.sqrt(3.0 * alpha * (1.0 - alpha) * safe_k) / (3.0 * alpha)
    elif bound_kind == CHERNOFF:
        log_a = math.log(alpha)
        margin = -0.66 * delta * (log_a - np.sqrt(log_a * log_a - 9.0 * log_a * safe_k))
    else:
        raise ValueError(f"unknown bound kind {bound_kind!r}")
    return np.where(k > 0, ew + margin, ew)


def violation_prob_array(expected_weight, count, delta: float, capacity,
                         bound_kind: str) -> np.ndarray:
    """Vectorized violation probability with the same conventions as the
    scalar operations (used by exhaustive oracles and population solvers)."""
    ew = np.asarray(expected_weight, np.float64)
    k = np.asarray(count, np.float64)
    cap = np.asarray(capacity, np.float64)
    gap = cap - ew
    above = gap > 0.0
    safe_gap = np.where(above & (k > 0), gap, 1.0)  # k == 0 rows are overwritten below
    if bound_kind == CHEBYSHEV:
        v = delta * delta * k
        body = v / (v + 3.0 * safe_gap * safe_gap)
    elif bound_kind == CHERNOFF:
        body = np.exp(-3.0 * safe_gap * safe_gap
                      / (4.0 * delta * (3.0 * delta * k + safe_gap)))
    else:
        raise ValueError(f"unknown bound kind {bound_kind!r}")
    out = np.where(above, body, 1.0)
    return np.where(k == 0, np.where(cap > 0, 0.0, 1.0), out)


def monte_carlo_violation(instance, bits, capacity: float, samples: int,
                          seed: int, _chunk_values: int = 4_000_000) -> float:
    """Estimate the true Pr[W(x) >= capacity] by sampling realized weights.

    Draws ``samples`` independent realizations of the selected items' weights
    from the continuous uniform [E(w_i) - delta, E(w_i) + delta] and returns
    the hit fraction. Deterministic for a fixed seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    mask = np.asarray(bits, bool)
    k = int(mask.sum())
    if k == 0:
        return 1.0 if capacity <= 0 else 0.0
    delta = instance.delta
    ew_sum = int(instance.weight_array()[mask].sum())
    # sum of k uniforms on [0,1), rescaled: W = (ew_sum - k*delta) + 2*delta*U
    low_corner = ew_sum - k * delta
    rng = np.random.default_rng(seed)
    rows = max(1, _chunk_values // k)
    buf = np.empty((rows, k))
    hits = 0
    done = 0
    while done < samples:
        m = min(rows, samples - done)
        block = buf[:m]
        rng.random(out=block)
        totals = low_corner + 2.0 * delta * block.sum(axis=1)
        hits += int(np.count_nonzero(totals >= capacity))
        done += m
    return hits / samples
