"""Statistics tests. scipy is the reference here only: the library itself
computes midranks and p-values with numpy and ``math``."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import chi2, rankdata
from scipy.stats import kruskal as scipy_kruskal

from dcckp import stats
from dcckp.stats import (
    BETTER,
    SAME,
    WORSE,
    _chi2_sf,
    _pooled_ranks,
    dunn_z,
    format_stat_column,
    kruskal_wallis,
    pairwise_labels,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def tie_heavy_groups(rng, n_groups):
    return [rng.integers(0, int(rng.integers(2, 12)), size=int(rng.integers(1, 15))).tolist()
            for _ in range(n_groups)]


def reference_pairwise_labels(named_groups, family_alpha=0.05):
    """The scipy-based labels the library used before its closed forms:
    ``rankdata`` midranks, Dunn's z, and p = 2 (1 - ndtr(|z|))."""
    names = list(named_groups)
    arrs = [np.asarray(named_groups[name], np.float64) for name in names]
    pooled = np.concatenate(arrs)
    ranks = rankdata(pooled)
    _, tie_counts = np.unique(pooled, return_counts=True)
    n_total = pooled.size
    sizes = np.array([a.size for a in arrs], np.float64)
    bounds = np.cumsum([0] + [a.size for a in arrs])
    mean_ranks = [ranks[lo:hi].mean() for lo, hi in zip(bounds[:-1], bounds[1:])]
    var_base = (n_total * (n_total + 1) / 12.0
                - (tie_counts ** 3 - tie_counts).sum() / (12.0 * (n_total - 1)))
    threshold = family_alpha / (len(names) * (len(names) - 1) // 2)
    labels = {}
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            se = np.sqrt(var_base * (1.0 / sizes[i] + 1.0 / sizes[j]))
            z = 0.0 if i == j or se == 0.0 else (mean_ranks[i] - mean_ranks[j]) / se
            p_two = 2.0 * (1.0 - float(ndtr(abs(z))))
            labels[(a, b)] = SAME if i == j or p_two >= threshold else (
                BETTER if z < 0 else WORSE)
    return labels


EQUAL_RANKS_11 = [3.2, 1.5, 3.8, 3.5, 3.8, 2.4, 1.8, 1.4, 3.5, 3.3, 4.7]
EQUAL_RANKS_22 = [0.1, 0.31, 0.84, 0.67, 0.02, 0.45, 0.41, 0.49, 0.21, 0.59, 0.07,
                  0.28, 0.37, 0.94, 0.08, 0.75, 0.19, 0.57, 0.39, 0.46, 0.75, 0.4]


@pytest.mark.parametrize("groups", [
    [EQUAL_RANKS_11] * 6,
    [np.random.default_rng(seed).permutation(EQUAL_RANKS_11).tolist() for seed in range(6)],
    [EQUAL_RANKS_22] * 3,
], ids=["six-copies", "six-shuffled-copies", "three-copies"])
def test_equal_mean_ranks_give_zero_h(groups):
    """Groups with equal mean ranks have H exactly 0 and p exactly 1; the
    expanded form of H cancels to about -3e-14 here, which raised (odd df)
    or gave p > 1 (even df)."""
    assert kruskal_wallis(groups) == (0.0, 1.0)


def test_matches_scipy_with_ties():
    rng = np.random.default_rng(3)
    for _ in range(20):
        groups = [rng.integers(0, 12, size=int(rng.integers(3, 15))).tolist()
                  for _ in range(int(rng.integers(2, 5)))]
        pooled = {v for g in groups for v in g}
        if len(pooled) == 1:
            continue
        h, p = kruskal_wallis(groups)
        ref_h, ref_p = scipy_kruskal(*groups)
        assert h == pytest.approx(ref_h, rel=1e-10)
        assert p == pytest.approx(ref_p, abs=1e-8)


def test_midranks_equal_scipy_rankdata():
    rng = np.random.default_rng(8)
    for _ in range(200):
        arrs = [np.asarray(g, np.float64)
                for g in tie_heavy_groups(rng, int(rng.integers(2, 7)))]
        n_total, group_ranks, _ = _pooled_ranks(arrs)
        ranks = np.concatenate(group_ranks)
        assert n_total == ranks.size
        assert np.array_equal(ranks, rankdata(np.concatenate(arrs)))


@pytest.mark.parametrize("df", range(1, 13))
def test_chi2_sf_matches_scipy(df):
    xs = np.linspace(0.0, 200.0, 2001)
    ours = np.array([_chi2_sf(float(x), df) for x in xs])
    np.testing.assert_allclose(ours, chi2.sf(xs, df), rtol=1e-12, atol=0.0)


def test_labels_equal_scipy_reference_on_tie_heavy_groups():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(300):
        groups = tie_heavy_groups(rng, int(rng.integers(2, 7)))
        if len({v for g in groups for v in g}) == 1:
            continue
        named = {f"g{i}": g for i, g in enumerate(groups)}
        for family_alpha in (0.001, 0.01, 0.05, 0.2, 0.5):
            assert pairwise_labels(named, family_alpha) == \
                reference_pairwise_labels(named, family_alpha)
            checked += 1
    assert checked > 1000


def test_import_loads_no_scipy():
    # scipy is a test dependency only; importing it costs about 1 s and 70 MB
    code = ("import dcckp, dcckp.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"


def test_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        kruskal_wallis([[1, 2, 3]])
    with pytest.raises(ValueError):
        kruskal_wallis([[1, 2], []])
    with pytest.raises(ValueError):
        pairwise_labels({"a": [1, 2]})


def test_dunn_z_hand_computed_two_groups():
    # mean ranks 15.5 and 45.5; variance term N(N+1)/12 = 305, no ties
    groups = [list(range(1, 31)), list(range(101, 131))]
    z = dunn_z(groups)
    se = math.sqrt(305.0 * (2 / 30))
    assert z[0, 1] == pytest.approx((15.5 - 45.5) / se, rel=1e-12)
    assert z[1, 0] == pytest.approx(-z[0, 1], rel=1e-12)


def test_pair_on_the_bonferroni_threshold_is_labelled_same():
    # two groups make one pair, so the threshold is family_alpha itself
    named = {"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]}
    p = math.erfc(abs(dunn_z(list(named.values()))[0, 1]) / math.sqrt(2))
    assert p == pytest.approx(0.0495, abs=1e-4)
    assert pairwise_labels(named, family_alpha=p)[("a", "b")] == SAME
    labels = pairwise_labels(named, family_alpha=math.nextafter(p, 1))
    assert (labels[("a", "b")], labels[("b", "a")]) == (BETTER, WORSE)


@pytest.mark.parametrize("family_alpha", [5.0, 1.0, 0.0, -1.0, math.nan])
def test_pairwise_labels_rejects_family_alpha_outside_unit_interval(family_alpha):
    named = {"a": [1.0, 2.0, 3.0], "b": [10.0, 11.0, 12.0]}
    with pytest.raises(ValueError, match="family_alpha"):
        pairwise_labels(named, family_alpha=family_alpha)
    assert pairwise_labels(named, family_alpha=0.999)[("a", "b")] == BETTER


def test_format_stat_column():
    names = ["alg1", "alg2", "alg3"]
    labels = {("alg2", "alg1"): BETTER, ("alg2", "alg3"): SAME,
              ("alg2", "alg2"): SAME}
    assert format_stat_column(labels, names, "alg2") == "1(+) 3(*)"


def test_testable_needs_two_groups_of_two_samples():
    assert stats.testable({"a": [1.0, 2.0], "b": [3.0, 4.0]})
    assert not stats.testable({"a": [1.0, 2.0], "b": [3.0]})  # one run in a cell
    assert not stats.testable({"a": [1.0, 2.0]})  # one cell
    assert not stats.testable({"a": [1.0], "b": [2.0]})
