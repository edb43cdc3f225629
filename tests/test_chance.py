import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dcckp import chance
from dcckp.chance import (
    CHEBYSHEV,
    CHERNOFF,
    ChanceParams,
    ChebyshevBound,
    ChernoffBound,
    monte_carlo_violation,
    tail_bound,
)
from dcckp.model import generate_instance

# closed-form values recomputed independently (margin terms expanded by hand)
CHEBY_BOUND_100_1_25_001 = 100 + 25 * math.sqrt(3 * 0.01 * 0.99) / 0.03       # 243.6140662
CHEBY_BOUND_500_4_25_05 = 500 + 25 * math.sqrt(3 * 0.5 * 0.5 * 4) / 1.5       # 528.8675135
CHERN_BOUND_100_1_25_001 = 100 + 16.5 * (4.605170185988091 + math.sqrt(
    4.605170185988091 ** 2 + 9 * 4.605170185988091))                           # 306.5899990


def bound(kind, delta=25, alpha=0.01, n=200):
    return tail_bound(ChanceParams(alpha, delta, kind), n)


def test_chebyshev_violation_examples():
    cheby = bound(CHEBYSHEV)
    assert cheby.tail(100, 1, 100) == 1.0   # at the mean
    assert cheby.tail(100, 1, 50) == 1.0    # below the mean
    assert bound(CHEBYSHEV, delta=50).tail(400, 4, 500) == pytest.approx(0.25, abs=0)


def test_chernoff_violation_examples():
    chern = bound(CHERNOFF)
    assert chern.tail(100, 1, 100) == 1.0
    assert chern.tail(0, 0, 10) == 0.0
    # exponent written out: -3 * g^2 / (4*25*(75 + g)) at g = 206.58999899
    g = CHERN_BOUND_100_1_25_001 - 100
    expected = math.exp(-3 * g * g / (100 * (75 + g)))
    got = chern.tail(100, 1, CHERN_BOUND_100_1_25_001)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.0105992, rel=1e-5)


def test_empty_solution_conventions():
    for kind in (CHEBYSHEV, CHERNOFF):
        b = bound(kind)
        for view in (b.tail, b.certified):
            assert view(0, 0, 10) == 0.0
            assert view(0, 0, 1) == 0.0  # the least capacity above 0
            assert view(0, 0, 0) == 1.0
        assert b.margin[0] == 0.0
        assert b.cstar(0, 0) == 0.0


def test_capacity_bound_examples():
    assert bound(CHEBYSHEV).cstar(100, 1) == pytest.approx(
        CHEBY_BOUND_100_1_25_001, rel=1e-12)
    assert bound(CHEBYSHEV).cstar(100, 1) == pytest.approx(243.614066, abs=1e-5)
    assert bound(CHEBYSHEV, alpha=0.5).cstar(500, 4) == pytest.approx(
        CHEBY_BOUND_500_4_25_05, rel=1e-12)
    assert bound(CHERNOFF).cstar(100, 1) == pytest.approx(
        CHERN_BOUND_100_1_25_001, rel=1e-12)
    assert bound(CHERNOFF).cstar(100, 1) == pytest.approx(306.589999, abs=1e-5)
    # margin is linear in delta
    assert bound(CHERNOFF, delta=50).cstar(100, 1) == pytest.approx(
        100 + 2 * (CHERN_BOUND_100_1_25_001 - 100), rel=1e-12)


def test_capacity_bound_dispatch():
    cheby = tail_bound(ChanceParams(0.01, 25, CHEBYSHEV), 3)
    chern = tail_bound(ChanceParams(0.01, 25, CHERNOFF), 3)
    assert type(cheby) is ChebyshevBound
    assert type(chern) is ChernoffBound
    # one margin per item count 0..n, shared by every solution of that count
    assert len(cheby.margin) == len(chern.margin) == 4
    assert cheby.cstar(450, 3) == 450 + cheby.margin[3]
    assert chern.cstar(450, 3) == 450 + chern.margin[3]
    assert cheby.cstar(450, 3) == pytest.approx(
        450 + 25 * math.sqrt(3 * 0.01 * 0.99 * 3) / 0.03, rel=1e-12)
    # Chebyshev scores with its closed form; Chernoff with its certificate
    assert cheby.certified(450, 3, 600) == cheby.tail(450, 3, 600)
    assert chern.certified(450, 3, 600) < chern.tail(450, 3, 600)


@given(st.integers(1, 200), st.integers(100, 100_000), st.integers(1, 100),
       st.floats(1e-6, 1 - 1e-6))
def test_chernoff_certificate_round_trip(k, ew, delta, alpha):
    b = bound(CHERNOFF, delta, alpha, k)
    c = b.cstar(ew, k)
    assert b.certified(ew, k, c) == pytest.approx(alpha, rel=1e-9)
    # the closed form is looser than the certificate everywhere above the mean
    assert b.tail(ew, k, c) >= b.certified(ew, k, c) * (1 - 1e-12)


@given(st.integers(1, 150), st.integers(1, 100), st.floats(1e-5, 0.5))
def test_capacity_bounds_monotone(k, delta, alpha):
    ew = 1000
    for kind in (CHEBYSHEV, CHERNOFF):
        b = bound(kind, delta, alpha, k + 1).cstar(ew, k)
        assert b > ew  # strictly above the mean for k >= 1
        # tighter alpha, larger bound
        assert bound(kind, delta, alpha * 0.5, k).cstar(ew, k) > b
        # more items, larger bound
        assert bound(kind, delta, alpha, k + 1).cstar(ew, k + 1) >= b
        # more spread, larger bound
        assert bound(kind, delta + 1, alpha, k).cstar(ew, k) >= b


@given(st.integers(1, 150), st.integers(1, 100),
       st.floats(0.0, 5000.0), st.floats(0.0, 5000.0))
def test_violation_non_increasing_in_capacity(k, delta, gap_a, gap_b):
    ew = 2000
    lo, hi = sorted((gap_a, gap_b))
    for kind in (CHEBYSHEV, CHERNOFF):
        b = bound(kind, delta, 0.01, k)
        for view in (b.tail, b.certified):
            v_lo = view(ew, k, ew + lo)
            v_hi = view(ew, k, ew + hi)
            assert 0.0 <= v_hi <= v_lo <= 1.0


def test_array_versions_match_scalars():
    """``cstar_array`` gives the scalar ``cstar``'s values exactly, over
    every item count."""
    rng = np.random.default_rng(5)
    n = 60
    k = np.arange(n + 1).repeat(20)
    w = np.where(k > 0, rng.integers(100, 60_000, k.size), rng.integers(0, 3, k.size))
    for kind in (CHEBYSHEV, CHERNOFF):
        for delta, alpha in ((1, 0.5), (25, 0.01), (100, 1e-6)):
            b = bound(kind, delta, alpha, n)
            scalar_cstar = [b.cstar(wi, ki) for wi, ki in zip(w.tolist(), k.tolist())]
            assert np.array_equal(b.cstar_array(w, k), scalar_cstar)


def test_chance_params_validation():
    with pytest.raises(ValueError):
        ChanceParams(0.0, 25, CHEBYSHEV)
    with pytest.raises(ValueError):
        ChanceParams(1.0, 25, CHEBYSHEV)
    with pytest.raises(ValueError):
        ChanceParams(0.01, 0, CHEBYSHEV)
    with pytest.raises(ValueError):
        ChanceParams(0.01, 25, "hoeffding")


def test_monte_carlo_empty_and_support_edge():
    inst = generate_instance("uncorrelated", 5, 25, seed=1)
    bits = np.zeros(5, np.uint8)
    assert monte_carlo_violation(inst, bits, 1, 1000, seed=0) == 0.0
    assert monte_carlo_violation(inst, bits, 0, 1000, seed=0) == 1.0
    one = np.zeros(5, np.uint8)
    one[2] = 1
    ew = int(inst.weights[2])
    # upper support boundary: continuous uniform never reaches E + delta
    assert monte_carlo_violation(inst, one, ew + 25, 20_000, seed=0) == 0.0
    assert monte_carlo_violation(inst, one, ew - 25, 20_000, seed=0) == 1.0


def test_monte_carlo_matches_uniform_cdf():
    # single item: Pr[w >= C] = (E + delta - C) / (2 delta) on the support
    inst = generate_instance("uncorrelated", 5, 25, seed=3)
    one = np.zeros(5, np.uint8)
    one[0] = 1
    ew = int(inst.weights[0])
    samples = 200_000
    for frac, expected in ((0.0, 0.5), (0.5, 0.25), (-0.6, 0.8)):
        cap = ew + frac * 25
        est = monte_carlo_violation(inst, one, cap, samples, seed=11)
        se = math.sqrt(expected * (1 - expected) / samples)
        assert abs(est - expected) < 4 * se


def test_monte_carlo_deterministic():
    inst = generate_instance("uncorrelated", 20, 25, seed=5)
    bits = np.zeros(20, np.uint8)
    bits[:7] = 1
    cap = float(inst.weights[:7].sum())
    a = monte_carlo_violation(inst, bits, cap, 50_000, seed=9)
    b = monte_carlo_violation(inst, bits, cap, 50_000, seed=9)
    assert a == b
    assert 0.3 < a < 0.7  # at the mean of a 7-item sum


def test_monte_carlo_capacity_sequence_matches_scalar_calls(monkeypatch):
    # one set of draws for several capacities, as criterion 2 uses it
    inst = generate_instance("uncorrelated", 30, 25, seed=4)
    monkeypatch.setattr(chance, "_CHUNK_VALUES", 1000)  # several draw blocks
    for k, seed in ((1, 2), (7, 3), (30, 4)):
        bits = np.zeros(30, np.uint8)
        bits[:k] = 1
        ew = int(inst.weights[:k].sum())
        caps = [ew - 40, ew, ew + 10.5, float(ew + 30), ew + 25 * k]
        together = monte_carlo_violation(inst, bits, caps, 30_001, seed=seed)
        assert together == [monte_carlo_violation(inst, bits, c, 30_001, seed=seed)
                            for c in caps]
        assert all(type(v) is float for v in together)
        assert together == monte_carlo_violation(inst, bits, np.array(caps), 30_001,
                                                 seed=seed)
    empty = np.zeros(30, np.uint8)
    assert monte_carlo_violation(inst, empty, (-1, 0, 1), 100, seed=0) == [1.0, 1.0, 0.0]


def test_monte_carlo_chunked_draws_equal_one_block(monkeypatch):
    # blocks of 1000 // 7 = 142 rows: 30,001 samples end on a short block
    inst = generate_instance("uncorrelated", 30, 25, seed=4)
    bits = np.zeros(30, np.uint8)
    bits[:7] = 1
    ew = int(inst.weights[:7].sum())
    caps = [ew - 7 * 25, ew, ew + 30]  # every realization reaches the first
    one_block = monte_carlo_violation(inst, bits, caps, 30_001, seed=3)
    monkeypatch.setattr(chance, "_CHUNK_VALUES", 1000)
    chunked = monte_carlo_violation(inst, bits, caps, 30_001, seed=3)
    assert chunked == one_block
    assert chunked[0] == 1.0


def test_monte_carlo_one_sample_is_a_hit_or_a_miss():
    inst = generate_instance("uncorrelated", 3, 25, seed=1)
    bits = np.ones(3, np.uint8)
    ew = int(inst.weights.sum())
    assert monte_carlo_violation(inst, bits, ew - 75, 1, seed=0) == 1.0
    assert monte_carlo_violation(inst, bits, ew + 75, 1, seed=0) == 0.0
    assert monte_carlo_violation(inst, bits, ew, 1, seed=0) in (0.0, 1.0)


def test_monte_carlo_rejects_zero_samples():
    inst = generate_instance("uncorrelated", 3, 25, seed=1)
    with pytest.raises(ValueError):
        monte_carlo_violation(inst, np.zeros(3, np.uint8), 10, 0, seed=0)


def test_bounds_upper_bound_monte_carlo():
    # analytic bounds must sit above the empirical truth (minus noise)
    rng = np.random.default_rng(21)
    inst = generate_instance("uncorrelated", 40, 50, seed=8)
    weights = inst.weights
    cheby, chern = bound(CHEBYSHEV, 50, n=40), bound(CHERNOFF, 50, n=40)
    for trial in range(5):
        k = int(rng.integers(3, 20))
        idx = rng.choice(40, size=k, replace=False)
        bits = np.zeros(40, np.uint8)
        bits[idx] = 1
        ew = int(weights[idx].sum())
        cap = ew + float(rng.uniform(10, 400))
        truth = monte_carlo_violation(inst, bits, cap, 100_000, seed=trial)
        noise = 3 * math.sqrt(max(truth, 1e-6) / 100_000)
        assert cheby.tail(ew, k, cap) >= truth - noise
        assert chern.tail(ew, k, cap) >= truth - noise
        assert chern.certified(ew, k, cap) >= truth - noise


def exact_survival(k, delta, gap):
    """Pr[W >= w + gap] exactly, as a Fraction, for k items of half-width
    delta and an integer gap. W = (w - k delta) + 2 delta U with
    U ~ Irwin-Hall(k), and by the symmetry of U this is the Irwin-Hall CDF
    at M / (2 delta), M = k delta - gap:
    sum over j < M / (2 delta) of (-1)^j C(k, j) (M - 2 j delta)^k,
    over (2 delta)^k k!."""
    m = k * delta - gap
    num = sum((-1) ** j * math.comb(k, j) * (m - 2 * j * delta) ** k
              for j in range(k + 1) if 2 * j * delta < m)
    return Fraction(num, (2 * delta) ** k * math.factorial(k))


def test_exact_survival_helper():
    assert exact_survival(1, 25, 0) == Fraction(1, 2)
    assert exact_survival(4, 25, 0) == Fraction(1, 2)  # the mean of a symmetric law
    assert exact_survival(3, 25, 75) == 0  # the top of the support
    assert exact_survival(1, 25, 10) == Fraction(15, 50)  # one uniform item
    inst = generate_instance("uncorrelated", 20, 25, seed=5)
    bits = np.zeros(20, np.uint8)
    bits[:6] = 1
    ew = int(inst.weights[:6].sum())
    samples = 200_000
    exact = float(exact_survival(6, 25, 40))
    assert 0.01 < exact < 0.2
    est = monte_carlo_violation(inst, bits, ew + 40, samples, seed=3)
    assert abs(est - exact) < 4 * math.sqrt(exact * (1 - exact) / samples)


@pytest.mark.parametrize("kind", [CHEBYSHEV, CHERNOFF])
def test_margins_bound_the_exact_violation(kind):
    """Proof, not sampling, that both margins are safe: a solution of k
    items and expected weight w is accepted from capacity
    w + ceil(margin[k]) on (capacities and expected weights are integers),
    and there its exact violation probability is at most alpha, for every
    k <= 100 at each delta and alpha below."""
    for delta in (1, 25, 50, 100):
        for alpha in (0.5, 0.1, 0.01, 0.001, 1e-4):
            margin = bound(kind, delta, alpha, n=100).margin
            for k in range(1, 101):
                s = exact_survival(k, delta, math.ceil(margin[k]))
                assert s <= Fraction(alpha), (k, delta, alpha, float(s))


def exact_margin_ceiling(delta, alpha, k):
    """ceil(sqrt(delta^2 (1 - alpha) k / (3 alpha))), the Chebyshev margin
    rounded up, exactly: for an integer m, m >= sqrt(q) iff m^2 >= ceil(q)."""
    q = math.ceil(Fraction(delta * delta) * (1 - alpha) * k / (3 * alpha))
    return math.isqrt(q - 1) + 1


@pytest.mark.parametrize("read_alpha", [lambda a: Fraction(repr(a)), Fraction],
                         ids=["decimal", "binary"])
def test_chebyshev_margin_ceilings_against_exact(read_alpha):
    """The float margin's ceiling is the exact one or one above it, never
    below: where the exact margin is an integer, the float path can land
    one ulp above it and reject a solution on the boundary, but it never
    admits one the exact margin rejects. That happens at 19 of these
    20,000 points, whether alpha is read as a decimal or as its binary
    value."""
    above = []
    for delta in (1, 25, 50, 100):
        for alpha in (0.5, 0.1, 0.01, 0.001, 1e-4):
            margin = bound(CHEBYSHEV, delta, alpha, n=1000).margin
            for k in range(1, 1001):
                gap = math.ceil(margin[k]) - exact_margin_ceiling(
                    delta, read_alpha(alpha), k)
                assert 0 <= gap <= 1, (delta, alpha, k, margin[k])
                if gap:
                    above.append((delta, alpha, k))
    assert len(above) == 19
    assert (1, 0.01, 297) in above
    assert bound(CHEBYSHEV, 1, 0.01, n=297).margin[297] == 99.00000000000001
