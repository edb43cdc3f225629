"""Kruskal-Wallis omnibus test and Dunn/Bonferroni pairwise labels.

Labels follow the +/-/* convention: for an ordered pair (A, B), '+' means A
is significantly better (lower offline error), '-' significantly worse, '*'
no significant difference.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincc, ndtr
from scipy.stats import rankdata

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
    pooled = np.concatenate(arrs)
    ranks = rankdata(pooled)  # midranks for ties
    _, tie_counts = np.unique(pooled, return_counts=True)
    return pooled, ranks, tie_counts


def kruskal_wallis(groups) -> tuple[float, float]:
    """H statistic (tie-corrected) and chi-square upper-tail p-value.

    All values identical across groups is degenerate: returns (0.0, 1.0).
    """
    arrs = _as_groups(groups)
    pooled, ranks, tie_counts = _pooled_ranks(arrs)
    n_total = pooled.size
    if tie_counts.size == 1:
        return 0.0, 1.0
    h = 0.0
    offset = 0
    for a in arrs:
        r_sum = ranks[offset:offset + a.size].sum()
        h += r_sum * r_sum / a.size
        offset += a.size
    h = 12.0 / (n_total * (n_total + 1)) * h - 3.0 * (n_total + 1)
    tie_correction = 1.0 - (tie_counts ** 3 - tie_counts).sum() / (n_total ** 3 - n_total)
    h /= tie_correction
    df = len(arrs) - 1
    p = float(gammaincc(df / 2.0, h / 2.0))
    return float(h), p


def dunn_z(groups) -> np.ndarray:
    """Dunn's pairwise z statistics on the pooled ranks (z[i, j] > 0 means
    group i has the larger mean rank)."""
    arrs = _as_groups(groups)
    pooled, ranks, tie_counts = _pooled_ranks(arrs)
    n_total = pooled.size
    sizes = np.array([a.size for a in arrs], np.float64)
    mean_ranks = np.empty(len(arrs))
    offset = 0
    for i, a in enumerate(arrs):
        mean_ranks[i] = ranks[offset:offset + a.size].mean()
        offset += a.size
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
            p_two = 2.0 * (1.0 - float(ndtr(abs(z[i, j]))))
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
