"""Tail-bound surrogates for the chance constraint Pr[W(x) >= C] <= alpha.

The paper treats the exact violation probability as intractable, so everything
here works with two analytic upper bounds (one-sided Chebyshev and Chernoff)
specialized to independent uniform item weights w_i in
[E(w_i) - delta, E(w_i) + delta]. ``tail_bound(params, n)`` builds one
``TailBound`` per run; it gives the violation probability of a solution at a
given capacity and the inverse view, the smallest capacity at which a
solution still passes the chance constraint.

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
_CHUNK_VALUES = 4_000_000  # uniforms per draw block of monte_carlo_violation


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


class TailBound:
    """One bound family at fixed (delta, alpha), for solutions of at most n
    items; built once per run.

    For fixed (delta, alpha) the smallest capacity at which a solution of
    expected weight w and k items passes is C*(x) = w + margin[k], where the
    margin depends on k alone. The family computes ``margin[0..n]`` once and
    offers three views of the constraint:

    * ``cstar``: w + margin[k], the capacity the family certifies at alpha
      (the POSDC windows, NSGA-II's second objective and its feasibility);
    * ``tail``: the closed-form upper bound on Pr[W(x) >= C], scalar only,
      so the (1+1)-EA's lexicographic fitness and the exhaustive oracle
      that grades it decide by the same floats (also the demos; NSGA-II no
      longer uses it);
    * ``certified``: the alpha level at which C* equals C, so that
      ``certified(w, k, C) <= alpha`` exactly when ``cstar(w, k) <= C``
      (scoring). For Chebyshev it is ``tail`` itself.

    ``cstar_array`` is the numpy form of ``cstar`` for NSGA-II's
    populations. A family is one subclass: it writes ``_margin(k)`` for a
    float array of counts and ``_tail(gap, k)`` for gap > 0 and k >= 1, and
    the base class adds the conventions for empty solutions and capacities
    at or below the mean.
    """

    def __init__(self, params: ChanceParams, n: int):
        self.alpha = params.alpha
        self.delta = float(params.delta)
        margins = self._margin(np.arange(n + 1, dtype=np.float64))
        margins[0] = 0.0  # an empty solution weighs exactly its expectation
        self.margins = margins
        self.margin = margins.tolist()

    def cstar(self, w, k) -> float:
        return w + self.margin[k]

    def cstar_array(self, w, k) -> np.ndarray:
        return w + self.margins[k]

    def tail(self, w, k, capacity) -> float:
        if k == 0:
            return 0.0 if capacity > 0 else 1.0
        if capacity <= w:
            return 1.0
        return self._tail(capacity - w, k)

    certified = tail


class ChebyshevBound(TailBound):
    """One-sided Chebyshev: Pr[W >= E + g] <= v / (v + g^2), with
    v = k * delta^2 / 3 the variance of k uniform weights. The margin is the
    exact inverse of the tail at alpha."""

    def _margin(self, k):
        alpha = self.alpha
        return self.delta * np.sqrt(3.0 * alpha * (1.0 - alpha) * k) / (3.0 * alpha)

    def _tail(self, gap, k):
        v = self.delta * self.delta * k
        return v / (v + 3.0 * gap * gap)


class ChernoffBound(TailBound):
    """Chernoff: the tail is exp(-3 g^2 / (4 delta (3 delta k + g))), and the
    margin is 0.66 * delta * (u + sqrt(u^2 + 9 u k)) with u = -ln(alpha).

    0.66 is the paper's constant. The exact inverse of the tail has 2/3 in
    its place, so this margin is 0.99 times the margin at which the tail
    equals alpha: near C* the users of ``tail`` (the (1+1)-EA, the oracle)
    reject what those of C* (POSDC, NSGA-II) accept. ``certified`` inverts
    the margin itself: solving
    C = E + 0.66 * delta * (u + sqrt(u^2 + 9 u k)) for u gives
    u = B^2 / (2B + 9k) with B = (C - E) / (0.66 * delta), which reads below
    the tail at every capacity above the mean. That the smaller margin still
    bounds the true violation probability is checked exactly, on the
    Irwin-Hall law of k uniform weights, for k <= 100 by
    ``tests/test_chance.py::test_margins_bound_the_exact_violation``.
    """

    constant = 0.66  # the paper's; see above

    def _margin(self, k):
        log_a = math.log(self.alpha)
        return -self.constant * self.delta * (
            log_a - np.sqrt(log_a * log_a - 9.0 * log_a * k))

    def _tail(self, gap, k):
        delta = self.delta
        return math.exp(-3.0 * gap * gap / (4.0 * delta * (3.0 * delta * k + gap)))

    def certified(self, w, k, capacity) -> float:
        if k == 0 or capacity <= w:
            return self.tail(w, k, capacity)  # the shared conventions
        b = (capacity - w) / (self.constant * self.delta)
        return math.exp(-b * b / (2.0 * b + 9.0 * k))


_FAMILIES = {CHEBYSHEV: ChebyshevBound, CHERNOFF: ChernoffBound}


def tail_bound(params: ChanceParams, n: int) -> TailBound:
    """The bound family of ``params`` for solutions of at most ``n`` items."""
    return _FAMILIES[params.bound_kind](params, n)


def monte_carlo_violation(instance, bits, capacity, samples: int,
                          seed: int) -> float | list[float]:
    """Estimate the true Pr[W(x) >= capacity] by sampling realized weights.

    Draws ``samples`` independent realizations of the selected items' weights
    from the continuous uniform [E(w_i) - delta, E(w_i) + delta] and returns
    the hit fraction. Deterministic for a fixed seed. ``capacity`` may be a
    sequence: one set of draws then gives a list of hit fractions, each equal
    to what a scalar call with the same seed returns.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    caps = np.asarray(capacity, np.float64).reshape(-1)
    mask = np.asarray(bits, bool)
    k = int(mask.sum())  # k = 0 draws nothing: every realization is W = 0
    delta = instance.delta
    ew_sum = int(instance.weights[mask].sum())
    # sum of k uniforms on [0,1), rescaled: W = (ew_sum - k*delta) + 2*delta*U
    low_corner = ew_sum - k * delta
    rng = np.random.default_rng(seed)
    rows = max(1, _CHUNK_VALUES // max(k, 1))
    buf = np.empty((rows, k))
    hits = np.zeros(caps.size, np.int64)
    done = 0
    while done < samples:
        m = min(rows, samples - done)
        block = buf[:m]
        rng.random(out=block)
        totals = low_corner + 2.0 * delta * block.sum(axis=1)
        hits += np.count_nonzero(totals[:, None] >= caps, axis=0)
        done += m
    return (hits / samples).tolist() if np.ndim(capacity) else float(hits[0] / samples)
