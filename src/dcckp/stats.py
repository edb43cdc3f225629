"""Kruskal-Wallis omnibus test and Dunn/Bonferroni pairwise labels.

Labels follow the +/-/* convention: for an ordered pair (A, B), '+' means A
is significantly better (lower offline error), '-' significantly worse, '*'
no significant difference.

Numpy and ``math`` only: midranks come from ``np.unique``, the Kruskal-Wallis
p-value is the closed-form chi-square survival at integer df (a finite sum,
plus ``erfc`` for odd df), and Dunn's two-sided p-value is erfc(|z|/sqrt 2).
"""

from __future__ import annotations

import math

import numpy as np

BETTER, WORSE, SAME = "+", "-", "*"


def _as_groups(groups):
    arrs = [np.asarray(g, np.float64) for g in groups]
    if len(arrs) < 2:
        raise ValueError("need at least two groups")
    for i, a in enumerate(arrs):
        if a.size == 0:
            raise ValueError(f"group {i} is empty")
    return arrs


def _pooled_ranks(arrs):
    """Pooled size, each group's midranks in the pooled sample, tie counts."""
    pooled = np.concatenate(arrs)
    _, inverse, tie_counts = np.unique(pooled, return_inverse=True, return_counts=True)
    # midranks: a tie block of c values ending at rank r shares r - (c - 1) / 2
    ranks = (np.cumsum(tie_counts) - (tie_counts - 1) / 2.0)[inverse]
    return pooled.size, np.split(ranks, np.cumsum([a.size for a in arrs])[:-1]), tie_counts


def _chi2_sf(x: float, df: int) -> float:
    """Pr[chi-square(df) >= x] for integer df >= 1, in closed form: with
    s = x/2, e^-s s^a / Gamma(a + 1) summed over a = df/2 - 1, df/2 - 2,
    ... >= 0, plus erfc(sqrt(s)) when df is odd."""
    s, a = x / 2.0, df % 2 / 2.0
    total = math.erfc(math.sqrt(s)) if df % 2 else 0.0
    term = math.exp(-s) * s ** a / math.gamma(a + 1.0)
    while a <= df / 2.0 - 1.0:
        total += term
        a += 1.0
        term *= s / a
    return total


def kruskal_wallis(groups) -> tuple[float, float]:
    """H statistic (tie-corrected) and chi-square upper-tail p-value.

    All values identical across groups is degenerate: returns (0.0, 1.0).
    """
    arrs = _as_groups(groups)
    n_total, group_ranks, tie_counts = _pooled_ranks(arrs)
    if tie_counts.size == 1:
        return 0.0, 1.0
    # sum of n_i (mean rank_i - (N + 1) / 2)^2: never negative, and exactly
    # 0 for equal mean ranks, where the expanded form cancels to about -1e-14
    h = 0.0
    for r in group_ranks:
        gap = r.sum() - r.size * (n_total + 1) / 2.0
        h += gap * gap / r.size
    tie_correction = 1.0 - (tie_counts ** 3 - tie_counts).sum() / (n_total ** 3 - n_total)
    h = float(12.0 / (n_total * (n_total + 1)) * h / tie_correction)
    return h, _chi2_sf(h, len(arrs) - 1)


def dunn_z(groups) -> np.ndarray:
    """Dunn's pairwise z statistics on the pooled ranks (z[i, j] > 0 means
    group i has the larger mean rank)."""
    arrs = _as_groups(groups)
    n_total, group_ranks, tie_counts = _pooled_ranks(arrs)
    sizes = np.array([a.size for a in arrs], np.float64)
    mean_ranks = [r.mean() for r in group_ranks]
    tie_term = (tie_counts ** 3 - tie_counts).sum() / (12.0 * (n_total - 1))
    var_base = n_total * (n_total + 1) / 12.0 - tie_term
    k = len(arrs)
    z = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            se = np.sqrt(var_base * (1.0 / sizes[i] + 1.0 / sizes[j]))
            z[i, j] = 0.0 if se == 0.0 else (mean_ranks[i] - mean_ranks[j]) / se
    return z


def pairwise_labels(named_groups, family_alpha: float = 0.05) -> dict:
    """Bonferroni-corrected Dunn labels for every ordered pair of groups.

    ``named_groups`` maps group name -> samples (lower values are better).
    Returns {(a, b): '+' | '-' | '*'} over all ordered pairs, '*' on the
    diagonal; the matrix is antisymmetric in '+'/'-'. ``family_alpha`` must
    lie in (0, 1).
    """
    if not 0.0 < family_alpha < 1.0:
        raise ValueError(f"family_alpha must lie in (0, 1), got {family_alpha}")
    names = list(named_groups)
    if len(names) < 2:
        raise ValueError("need at least two named groups")
    z = dunn_z([named_groups[name] for name in names])
    n_pairs = len(names) * (len(names) - 1) // 2
    threshold = family_alpha / n_pairs
    labels = {}
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if i == j:
                labels[(a, b)] = SAME
                continue
            p_two = math.erfc(abs(z[i, j]) / math.sqrt(2.0))
            if p_two >= threshold:
                labels[(a, b)] = SAME
            else:
                # lower mean rank = lower offline error = better
                labels[(a, b)] = BETTER if z[i, j] < 0 else WORSE
    return labels


def format_stat_column(labels: dict, names, me: str) -> str:
    """Render one group's comparison column, e.g. ``2(+) 3(*) 4(-)``.

    Group numbers are 1-based positions in ``names``.
    """
    parts = []
    for j, other in enumerate(names, start=1):
        if other == me:
            continue
        parts.append(f"{j}({labels[(me, other)]})")
    return " ".join(parts)
