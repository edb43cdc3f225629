import functools
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from scipy import stats

from dcckp import metrics, solvers
from dcckp.chance import CHEBYSHEV, CHERNOFF, ChanceParams, tail_bound
from dcckp.dynamics import build_schedule
from dcckp.model import UNCORRELATED, Instance, Item, generate_instance
from dcckp.oracle import brute_force_chance_optimum, dp_optimal_profits
from dcckp.solvers import (
    MUTATION_BLOCK,
    REPAIR_STEP_CAP,
    Nsga2,
    OnePlusOneEA,
    Posdc,
    _Archive,
    _IndexBlocks,
    _flip_positions,
    _gap_flips,
    _make_solver,
    _flipped,
    _replay_flips,
    _RunContext,
    _stream,
    crowding_distances,
    fast_nondominated_sort,
    run_algorithm,
)


def make_ctx(n=12, delta=25, alpha=0.01, kind=CHEBYSHEV, seed=1):
    inst = generate_instance("uncorrelated", n, delta, seed=seed)
    params = ChanceParams(alpha, delta, kind)
    return inst, _RunContext(inst, params)


# -- comparators --------------------------------------------------------------

def ignore(i):
    pass


def FixedFlips(positions, *times):
    """Stands in for a solver's flip stream: every iteration flips the same
    positions, for ``times`` iterations if given."""
    return itertools.repeat(list(positions or ()), *times).__next__


def test_lex_better_or_equal_cases():
    """The acceptance rule of ``_RunContext.lex_run``, shared by the
    (1+1)-EA and POSDC's repair: smaller violation first, then higher
    profit; equality accepted."""
    items = (Item(40, 300), Item(50, 300), Item(10, 300), Item(40, 300))
    inst = Instance(items=items, delta=25, kind=UNCORRELATED, c_constant=100, seed=0)
    ctx = _RunContext(inst, ChanceParams(0.01, 25, CHEBYSHEV))

    def solution(*chosen):
        x = np.zeros(4, np.uint8)
        x[list(chosen)] = 1
        return (bytearray(x), int(x @ inst.profit_array()),
                int(x @ inst.weight_array()), len(chosen))

    def step(incumbent, flips, capacity=2000):
        """The incumbent after one step, and whether the offspring won; a
        rejected offspring yields nothing."""
        before = bytes(incumbent[0])
        source = FixedFlips(flips, 1)
        run = list(ctx.lex_run(source, incumbent, capacity, 7, 8))
        with pytest.raises(StopIteration):
            source()  # one step drew one mutation
        assert bytes(incumbent[0]) == before  # offspring are copies
        if not run:
            return incumbent, False
        [(i, got)] = run
        bits, p, w, k = got
        assert i == 7 and bits is not incumbent[0]
        assert bytes(bits) == bytes(_flipped(incumbent[0], flips))
        x = np.frombuffer(bits, np.uint8)
        assert (p, w, k) == (int(x @ inst.profit_array()),
                             int(x @ inst.weight_array()), int(x.sum()))
        return got, True

    one = solution(0)  # (40, 300, 1), feasible at 2000
    # both feasible: more profit is accepted, equal profit too, less is not
    (bits, p, w, k), kept = step(one, [0, 1])
    assert kept and list(bits) == [0, 1, 0, 0] and (p, w, k) == (50, 300, 1)
    (bits, p, _, _), kept = step(one, [0, 3])
    assert kept and list(bits) == [0, 0, 0, 1] and p == 40
    assert step(one, [0, 2]) == (one, False)
    # a smaller violation wins at lower profit
    two = solution(0, 1)  # (90, 600, 2)
    assert ctx.lex_violation(600, 2, 400) > ctx.lex_violation(300, 1, 400) > 0.0
    (_, p, _, _), kept = step(two, [1], capacity=400)
    assert kept and p == 40
    (_, p, _, _), kept = step(solution(0, 1, 2), [2], capacity=400)
    assert kept and p == 90
    # a larger violation loses at higher profit
    assert step(one, [1], capacity=400) == (one, False)
    assert step(two, [2], capacity=400) == (two, False)
    # equal violations (both above the mean by the same weight): profit decides
    assert ctx.lex_violation(300, 1, 200) > 0.0
    (_, p, _, _), kept = step(one, [0, 1], capacity=200)
    assert kept and p == 50
    assert step(one, [0, 2], capacity=200) == (one, False)
    # an identical offspring changes nothing
    assert step(one, None) == (one, False)


def test_lex_run_rejects_lower_profit_against_a_feasible_incumbent_unevaluated(
        monkeypatch):
    """A feasible incumbent has violation 0, which no offspring undercuts,
    so a lower-profit offspring loses without a bound evaluation; an
    offspring with at least its profit is evaluated."""
    items = (Item(40, 300), Item(50, 300), Item(10, 300))
    inst = Instance(items=items, delta=25, kind=UNCORRELATED, c_constant=100, seed=0)
    ctx = _RunContext(inst, ChanceParams(0.01, 25, CHEBYSHEV))
    calls = []
    lex_violation = _RunContext.lex_violation

    def counted(self, *args):
        calls.append(args)
        return lex_violation(self, *args)

    monkeypatch.setattr(_RunContext, "lex_violation", counted)
    incumbent = (bytearray([1, 0, 0]), 40, 300, 1)
    list(ctx.lex_run(FixedFlips([0, 2]), incumbent, 2000, 0, 5))
    assert calls == [(300, 1, 2000)]  # the incumbent's own, once per call
    list(ctx.lex_run(FixedFlips([0, 1]), incumbent, 2000, 0, 1))
    assert calls[1:] == [(300, 1, 2000), (300, 1, 2000)]


def test_posdc_dominates_cases():
    """Weak dominance on (profit, C*) as the POSDC archive applies it within
    a side: at least the profit and at most the C*; equal points dominate
    each other. A member of the other side dominates nothing."""
    bits = bytearray(3)

    def archive(*points, capacity=100):
        arc = _Archive()
        for p, c in points:
            assert not arc.has_weak_dominator(p, c, capacity)
            arc.insert(bits, p, 0, 0, c, capacity)
        return arc

    assert archive((10, 5)).has_weak_dominator(8, 6, 100)
    assert not archive((10, 5)).has_weak_dominator(12, 4, 100)
    assert archive((10, 5)).has_weak_dominator(10, 5, 100)
    assert not archive((10, 6)).has_weak_dominator(11, 5, 100)
    # an insert drops every member it weakly dominates, and only those
    arc = archive((10, 5), (8, 3), (12, 9))
    assert len(arc.members) == 3 and arc.m == 3
    arc.insert(bits, 11, 0, 0, 4, 100)
    # the new member takes the dominated member's place in C* order
    assert keys(arc.members) == [(8, 3.0), (11, 4.0), (12, 9.0)] and arc.m == 3
    # S- (C* < 6) and S+ are separate sets
    arc = archive((10, 5), (4, 6), capacity=6)
    assert keys(arc.members) == [(10, 5.0), (4, 6.0)] and arc.m == 1
    assert not arc.has_weak_dominator(8, 7, 6)
    assert arc.has_weak_dominator(8, 5.5, 6)
    assert arc.has_weak_dominator(3, 7, 6)
    arc.insert(bits, 12, 0, 0, 6, 6)  # replaces (4, 6) only
    assert keys(arc.members) == [(10, 5.0), (12, 6.0)] and arc.m == 1


# -- mutation -----------------------------------------------------------------

def count_p_value(sample, n, p, top=4):
    """Chi-square p-value of flip counts against Bin(n, p); counts >= top
    share one bin."""
    pmf = stats.binom.pmf(np.arange(top), n, p)
    pmf = np.append(pmf, 1.0 - pmf.sum())
    observed = np.bincount(np.minimum(sample, top), minlength=top + 1)
    return stats.chisquare(observed, pmf * len(sample)).pvalue


@pytest.mark.parametrize("n", [12, 100, 1000])
def test_flip_blocks_match_independent_bit_flips(n):
    """Chi-square tests at p > 0.001 (fixed seed, thresholds fixed up front):
    flip counts follow Bin(n, 1/n), also in the last eighth of each block,
    positions are uniform, and about (1 - 1/n)^n of the iterations flip
    nothing."""
    next_flips = _replay_flips(np.random.default_rng(2024), n)
    blocks = 80
    iters = blocks * MUTATION_BLOCK + MUTATION_BLOCK // 2  # crosses 80 block ends
    counts = np.empty(iters, np.int64)
    positions = []
    for t in range(iters):
        drawn = next_flips()
        counts[t] = len(drawn)
        if drawn:
            assert drawn == sorted(set(drawn)) and 0 <= drawn[0] and drawn[-1] < n
            positions.extend(drawn)

    assert count_p_value(counts, n, 1.0 / n) > 1e-3
    tails = counts[:blocks * MUTATION_BLOCK].reshape(blocks, MUTATION_BLOCK)
    assert count_p_value(tails[:, -MUTATION_BLOCK // 8:].ravel(), n, 1.0 / n) > 1e-3
    assert stats.chisquare(np.bincount(positions, minlength=n)).pvalue > 1e-3
    noop = (1.0 - 1.0 / n) ** n
    assert abs(np.mean(counts == 0) - noop) < 4 * np.sqrt(noop * (1 - noop) / iters)


@pytest.mark.parametrize("n", [1, 12, 100])
def test_flip_blocks_replay_a_per_iteration_draw(n):
    """A block reads the same uniforms as one rng.random(n) per iteration,
    so solver trajectories do not depend on the block size."""
    next_flips = _replay_flips(np.random.default_rng(31), n)
    twin = np.random.default_rng(31)
    for _ in range(3 * MUTATION_BLOCK + 7):
        assert next_flips() == np.flatnonzero(twin.random(n) < 1.0 / n).tolist()


class CountingGenerator:
    """A Generator that counts its draw calls and lists their names, the
    bit generator's ``random_raw`` included."""

    def __init__(self, rng):
        self.rng, self.names = rng, []
        self.bit_generator = self

    calls = property(lambda self: len(self.names))

    def __getattr__(self, name):
        draw = getattr(self.rng.bit_generator if name == "random_raw" else self.rng, name)

        def counted(*args):
            self.names.append(name)
            return draw(*args)

        return counted


@pytest.mark.parametrize("stream", ["items", "replay", "gaps", "words"])
def test_streams_draw_a_block_only_when_the_last_runs_out(stream):
    """A stream draws nothing before its first call, and then one block at
    the first call of every ``MUTATION_BLOCK``, never ahead: so each solver's
    Generator calls keep the order of the iterations they serve."""
    rng = CountingGenerator(np.random.default_rng(9))
    draw = {"items": lambda: _stream(lambda: rng.integers(0, 9, MUTATION_BLOCK).tolist()),
            "replay": lambda: _replay_flips(rng, 12),
            "gaps": lambda: _gap_flips(rng, 12),
            # a bound of 1 accepts every word: one word per draw
            "words": lambda: functools.partial(_IndexBlocks(rng).below, 1)}[stream]()
    assert rng.calls == 0
    for block in range(1, 4):
        draw()
        assert rng.calls == block
        for _ in range(MUTATION_BLOCK - 1):
            draw()
        assert rng.calls == block


def check_flip_positions(rng, rows, n, p, draws):
    """Chi-square tests at p > 0.001 on ``draws`` calls of ``_flip_positions``
    over ``rows`` rows of n cells: flip counts per row follow Bin(n, p) and
    positions within a row are uniform. The positions ascend in range."""
    counts, columns = [], []
    for _ in range(draws):
        positions = _flip_positions(rng, rows * n, p)
        assert np.all(np.diff(positions) > 0)
        assert np.all((positions >= 0) & (positions < rows * n))
        counts.append(np.bincount(positions // n, minlength=rows))
        columns.append(positions % n)
    assert count_p_value(np.concatenate(counts), n, p) > 1e-3
    assert stats.chisquare(np.bincount(np.concatenate(columns), minlength=n)).pvalue > 1e-3


@pytest.mark.parametrize("n", [12, 100, 1000])
def test_flip_positions_match_independent_bit_flips(n):
    """NSGA-II's mutation draw over a population of rows of n cells, each
    cell flipping with probability 1/n (fixed seed, thresholds fixed up
    front)."""
    check_flip_positions(np.random.default_rng(2025), Nsga2.pop_size, n, 1.0 / n, 2000)


def test_flip_positions_draw_further_batches():
    """With one expected flip in 10 cells the first batch of two gaps often
    ends inside the cells; the further batches keep the draw exact."""
    rng = CountingGenerator(np.random.default_rng(6))
    draws = 20000
    check_flip_positions(rng, 1, 10, 0.1, draws)
    assert rng.calls > draws * 1.1


def test_flip_positions_with_certain_flips():
    rng = np.random.default_rng(4)
    for cells in (1, 2, 20, 1000):
        assert _flip_positions(rng, cells, 1.0).tolist() == list(range(cells))


@pytest.mark.parametrize("n", [12, 100, 1000])
def test_gap_flip_blocks_match_independent_bit_flips(n):
    """POSDC's gap-drawn blocks are standard bit mutation (chi-square tests
    at p > 0.001, fixed seed, thresholds fixed up front): each iteration's
    flip count follows Bin(n, 1/n), also in the last eighth of each block,
    and positions are uniform and ascending within an iteration."""
    next_flips = _gap_flips(np.random.default_rng(2026), n)
    blocks = 80
    counts, positions = [], []
    for _ in range(blocks * MUTATION_BLOCK):
        drawn = next_flips()
        assert drawn == sorted(set(drawn)) and all(0 <= x < n for x in drawn)
        counts.append(len(drawn))
        positions += drawn

    counts = np.array(counts)
    assert count_p_value(counts, n, 1.0 / n) > 1e-3
    tails = counts.reshape(blocks, MUTATION_BLOCK)[:, -MUTATION_BLOCK // 8:]
    assert count_p_value(tails.ravel(), n, 1.0 / n) > 1e-3
    assert stats.chisquare(np.bincount(positions, minlength=n)).pvalue > 1e-3


class ScriptedGaps:
    """A Generator whose ``geometric`` returns fixed gaps, then a gap past
    any block."""

    def __init__(self, gaps):
        self.gaps = list(gaps)

    def geometric(self, p, size):
        out = (self.gaps + [10 ** 9] * size)[:size]
        self.gaps = self.gaps[size:]
        return np.array(out, np.int64)


@pytest.mark.parametrize("n", [1, 12, 100])
def test_gap_flip_blocks_place_the_edge_cells(n):
    """A flip in a block's first cell belongs to its first iteration, and
    one in its last cell to its last iteration, at position n - 1."""
    cells = n * MUTATION_BLOCK

    def first_block(gaps):
        next_flips = _gap_flips(ScriptedGaps(gaps), n)
        return [next_flips() for _ in range(MUTATION_BLOCK)]

    assert first_block([1, cells - 1]) == [[0]] + [[]] * (MUTATION_BLOCK - 2) + [[n - 1]]
    assert first_block([cells]) == [[]] * (MUTATION_BLOCK - 1) + [[n - 1]]


def test_posdc_draws_gap_blocks_and_the_ea_replays():
    """POSDC, repair included, mutates from gap-drawn blocks; the (1+1)-EA
    keeps the replay of one rng.random(n) per iteration. Each solver's
    stream reads its Generator after the initial solution, as a twin
    stream on a twin Generator does."""
    _, ctx = make_ctx(n=12)
    iters = 2 * MUTATION_BLOCK + 3

    def drawn(solver, stream):
        twin = np.random.default_rng(0)
        ctx.random_solution(twin)
        next_flips = stream(twin, 12)
        got = [solver.next_flips() for _ in range(iters)]
        return got, [next_flips() for _ in range(iters)]

    got, gaps = drawn(Posdc(ctx, np.random.default_rng(0), 600, eta=500), _gap_flips)
    assert got == gaps
    got, replay = drawn(OnePlusOneEA(ctx, np.random.default_rng(0), 600), _replay_flips)
    assert got == replay
    assert gaps != replay


def test_mutate_applies_the_drawn_flips():
    inst, ctx = make_ctx(n=12)
    rng = np.random.default_rng(3)
    bits, p, w, k = ctx.random_solution(rng)
    next_flips = _replay_flips(np.random.default_rng(8), 12)
    assert isinstance(bits, bytearray) and len(bits) == 12
    for _ in range(600):
        before = bytes(bits)
        drawn = next_flips()  # [] at about a third of the iterations
        np_, nw, nk = ctx.mutate(bits, p, w, k, drawn)
        assert bytes(bits) == before  # the parent is never edited
        nb = _flipped(bits, drawn)
        assert bytes(bits) == before
        expect = np.frombuffer(before, np.uint8).copy()
        expect[drawn] ^= 1
        assert isinstance(nb, bytearray) and bytes(nb) == expect.tobytes()
        assert (np_, nw, nk) == (int(expect @ inst.profit_array()),
                                 int(expect @ inst.weight_array()), int(expect.sum()))
        bits, p, w, k = nb, np_, nw, nk


def test_index_blocks_uniform_below_changing_bounds():
    draws = _IndexBlocks(np.random.default_rng(77))
    for m in (1, 3, 40):
        got = np.array([draws.below(m) for _ in range(2000 * m)])
        assert got.min() >= 0 and got.max() < m
        if m > 1:
            assert stats.chisquare(np.bincount(got, minlength=m)).pvalue > 1e-3
    # a bound just above 2^63 rejects almost half of the words and must
    # still stay in range
    big = (1 << 63) + 1
    assert all(0 <= draws.below(big) < big for _ in range(100))


class WordIndexBlocks:
    """``_IndexBlocks`` as it was written with a separate word fetch: the
    reference ``below`` must replay."""

    def __init__(self, rng):
        self.rng = rng
        self._words = []
        self._next = 0
        self.rejections = 0

    def _word(self):
        i = self._next
        if i == len(self._words):
            self._words = self.rng.integers(
                0, 1 << 64, MUTATION_BLOCK, np.uint64).tolist()
            i = 0
        self._next = i + 1
        return self._words[i]

    def below(self, m):
        prod = self._word() * m
        low = prod & ((1 << 64) - 1)
        if low < m:
            reject = ((1 << 64) - m) % m
            while low < reject:
                self.rejections += 1
                prod = self._word() * m
                low = prod & ((1 << 64) - 1)
        return prod >> 64


def test_index_blocks_replay_a_word_by_word_reference():
    """Same draws and the same words consumed as the word-by-word Lemire
    reference, across block ends and through the rejection path."""
    rng = np.random.default_rng(5)
    draws = _IndexBlocks(rng)
    ref = WordIndexBlocks(np.random.default_rng(5))
    bounds = (1, 2, 3, 20, 1000, (1 << 63) + 1, (1 << 64) - 1, 1 << 63)
    for t in range(5 * MUTATION_BLOCK):
        m = bounds[t % len(bounds)]
        assert draws.below(m) == ref.below(m)
    assert ref.rejections > 100
    assert rng.integers(0, 1 << 62) == ref.rng.integers(0, 1 << 62)
    assert draws.below(7) == ref.below(7)  # mid-block position kept


# -- archive ------------------------------------------------------------------

def dummy_bits(n=6):
    return bytearray(n)


def keys(members):
    """(profit, C*) of each member, in the archive's order."""
    return [(p, c) for _, p, _, _, c in members]


def sides(pos):
    """S- and S+ of POSDC's archive: its members split at ``m``."""
    arc = pos.archive
    return arc.members[:arc.m], arc.members[arc.m:]


def fresh_posdc(capacity=1000, eta=500, alpha=0.5, kind=CHEBYSHEV):
    inst, ctx = make_ctx(n=6, alpha=alpha, kind=kind)
    pos = Posdc(ctx, np.random.default_rng(0), capacity, eta)
    pos.repair = None
    pos.archive = _Archive()
    return pos


def test_archive_strict_dominance_replacement():
    arc = fresh_posdc().archive
    arc.insert(dummy_bits(), 10, 90, 1, 90.0, 1000)
    assert not arc.has_weak_dominator(12, 85.0, 1000)
    arc.insert(dummy_bits(), 12, 85, 1, 85.0, 1000)
    assert keys(arc.members) == [(12, 85.0)] and arc.m == 1


def test_archive_rejects_exact_duplicates():
    arc = fresh_posdc().archive
    arc.insert(dummy_bits(), 10, 90, 1, 90.0, 1000)
    assert arc.has_weak_dominator(10, 90.0, 1000)


def test_archive_keeps_incomparable_members():
    arc = fresh_posdc().archive
    arc.insert(dummy_bits(), 10, 90, 1, 90.0, 1000)
    arc.insert(dummy_bits(), 12, 95, 2, 95.0, 1000)
    arc.insert(dummy_bits(), 8, 80, 1, 80.0, 1000)
    assert len(arc.members) == 3 and arc.m == 3


def test_archive_growth_preserves_members():
    arc = fresh_posdc().archive
    for i in range(200):  # strictly improving profit with worse cstar: all kept
        arc.insert(dummy_bits(), 10 + i, 100, 1, 100.0 + i, 1000)
    assert len(arc.members) == 200 and arc.m == 200
    assert keys(arc.members) == [(10 + i, 100.0 + i) for i in range(200)]


class ReferenceArchive:
    """The numpy archive that the list archive replaced: parallel columns
    grown by doubling, a vectorised dominance scan, and compaction of the
    survivors on insert, in insertion order. Each side of the list archive
    must hold the same members as one of these, in C* order, and designate
    the same one."""

    def __init__(self, n, capacity_hint=4):
        self.bits = np.empty((capacity_hint, n), np.uint8)
        self.p = np.empty(capacity_hint, np.int64)
        self.w = np.empty(capacity_hint, np.int64)
        self.k = np.empty(capacity_hint, np.int64)
        self.cstar = np.empty(capacity_hint, np.float64)
        self.size = 0

    def _ensure_room(self, extra=1):
        cap = len(self.p)
        if self.size + extra <= cap:
            return
        new_cap = cap * 2
        while self.size + extra > new_cap:
            new_cap *= 2
        grown_bits = np.empty((new_cap, self.bits.shape[1]), np.uint8)
        grown_bits[:cap] = self.bits
        self.bits = grown_bits
        for name in ("p", "w", "k", "cstar"):
            old = getattr(self, name)
            new = np.empty(new_cap, old.dtype)
            new[:cap] = old
            setattr(self, name, new)

    def has_weak_dominator(self, p, cstar):
        s = self.size
        return bool(((self.p[:s] >= p) & (self.cstar[:s] <= cstar)).any())

    def insert(self, bits, p, w, k, cstar):
        s = self.size
        if s:
            dominated = (self.p[:s] <= p) & (self.cstar[:s] >= cstar)
            if dominated.any():
                keep = np.flatnonzero(~dominated)
                m = len(keep)
                for name in ("bits", "p", "w", "k", "cstar"):
                    col = getattr(self, name)
                    col[:m] = col[keep]
                self.size = s = m
        self.extend(np.asarray(bits)[None], [p], [w], [k], [cstar])

    def extend(self, bits, p, w, k, cstar):
        m = len(p)
        self._ensure_room(m)
        s = self.size
        self.bits[s:s + m] = bits
        self.p[s:s + m] = p
        self.w[s:s + m] = w
        self.k[s:s + m] = k
        self.cstar[s:s + m] = cstar
        self.size = s + m

    def max_profit_index(self):
        s = self.size
        cand = np.flatnonzero(self.p[:s] == self.p[:s].max())
        return int(cand[np.argmin(self.cstar[cand])])

    def min_cstar_index(self):
        s = self.size
        cand = np.flatnonzero(self.cstar[:s] == self.cstar[:s].min())
        return int(cand[np.argmax(self.p[cand])])

    def rows(self):
        s = self.size
        return self.bits[:s], self.p[:s], self.w[:s], self.k[:s], self.cstar[:s]


def reference_best(minus, plus):
    """Designated row of a pair of reference archives, POSDC's rule."""
    arc, i = ((minus, minus.max_profit_index()) if minus.size
              else (plus, plus.min_cstar_index()))
    return tuple(col[i] for col in arc.rows())


def reference_on_change(minus, plus, capacity, eta, n):
    """POSDC's re-partition on the reference archives: rows S- first, then
    S+, filtered by the new window and side, then by a stable sweep over
    ascending C*; the designated row reseeds when nothing survives."""
    designated = reference_best(minus, plus)
    bits, p, w, k, cstar = (np.concatenate(cols) for cols in
                            zip(minus.rows(), plus.rows()))
    in_window = (cstar >= capacity - eta) & (cstar <= capacity + eta)
    sides = (ReferenceArchive(n), ReferenceArchive(n))
    for side, region in zip(sides, (in_window & (cstar < capacity),
                                    in_window & (cstar >= capacity))):
        idx = np.flatnonzero(region)
        best = -np.inf
        for i in idx[np.argsort(cstar[idx], kind="stable")]:
            if p[i] > best:
                best = p[i]
            else:
                region[i] = False
        idx = np.flatnonzero(region)
        side.extend(bits[idx], p[idx], w[idx], k[idx], cstar[idx])
    if sides[0].size + sides[1].size == 0:
        sides[int(designated[4] >= capacity)].insert(*designated)
    return sides


def assert_same_members(side, ref, designated):
    """The members of one side are the reference's rows stably sorted by C*,
    and the member at ``designated`` (-1 on S-, 0 on S+) is the row the
    reference designates on that side."""
    bits, p, w, k, cstar = ref.rows()
    rows = [(b.tobytes(), *row) for b, row in
            zip(bits, zip(p.tolist(), w.tolist(), k.tolist(), cstar.tolist()))]
    members = [(bytes(b), *row) for b, *row in side]
    order = np.argsort(cstar, kind="stable")
    assert members == [rows[i] for i in order]
    if ref.size:
        i = ref.max_profit_index() if designated == -1 else ref.min_cstar_index()
        assert members[designated] == rows[i]


def test_archive_matches_numpy_reference():
    """Seeded streams of dominance queries, inserts and capacity changes
    leave each side of the list archive with the members of its numpy
    reference, in C* order, and designate the same member."""
    rng = np.random.default_rng(2027)
    eta = 30
    for trial in range(12):
        capacity = 100
        pos = fresh_posdc(capacity=capacity, eta=eta)
        n = pos.ctx.n
        ref_minus, ref_plus = ReferenceArchive(n), ReferenceArchive(n)
        for op in range(500):
            if pos.archive_size() and rng.random() < 0.06:
                shift = int(rng.integers(-20, 21)) if rng.random() < 0.8 else \
                    int(rng.integers(-4 * eta, 4 * eta + 1))
                capacity += shift
                pos.on_change(capacity)
                ref_minus, ref_plus = reference_on_change(
                    ref_minus, ref_plus, capacity, eta, n)
            else:
                # integer C* and profit rising with it plus a little noise:
                # long fronts, and ties in both are common
                c = float(capacity + rng.integers(-eta - 5, eta + 6))
                p = int(c) // 2 + int(rng.integers(0, 6))
                w, k = int(rng.integers(0, 1000)), int(rng.integers(0, n + 1))
                bits = rng.integers(0, 2, n, np.uint8)
                if capacity - eta <= c < capacity:
                    ref = ref_minus
                elif capacity <= c <= capacity + eta:
                    ref = ref_plus
                else:
                    continue
                dominated = ref.has_weak_dominator(p, c)
                assert pos.archive.has_weak_dominator(p, c, capacity) == dominated
                if not dominated:
                    pos.archive.insert(bytearray(bits), p, w, k, c, capacity)
                    ref.insert(bits, p, w, k, c)
            check_sorted_view(pos.archive, capacity)
            minus, plus = sides(pos)
            assert_same_members(minus, ref_minus, -1)
            assert_same_members(plus, ref_plus, 0)
            if pos.archive_size():
                got = pos.best()
                want = reference_best(ref_minus, ref_plus)
                assert bytes(got[0]) == want[0].tobytes()
                assert got[1:] == tuple(x.item() for x in want[1:])


def test_posdc_best_prefers_s_minus_max_profit():
    pos = fresh_posdc(capacity=100)
    pos.archive.insert(dummy_bits(), 5, 90, 1, 90.0, 100)
    pos.archive.insert(dummy_bits(), 7, 95, 1, 95.0, 100)
    pos.archive.insert(dummy_bits(), 20, 101, 2, 101.0, 100)
    assert pos.archive.m == 2
    assert pos.best()[1] == 7


def test_posdc_best_s_plus_min_cstar_when_s_minus_empty():
    pos = fresh_posdc(capacity=100)
    pos.archive.insert(dummy_bits(), 30, 105, 2, 105.0, 100)
    pos.archive.insert(dummy_bits(), 20, 101, 2, 101.0, 100)
    assert pos.archive.m == 0
    bits, p, w, k, cstar = pos.best()
    assert (p, cstar) == (20, 101.0)


def check_sorted_view(arc, capacity):
    """C* rises strictly along the members, the first ``m`` are those below
    the capacity, and profit rises strictly within each side, so the last of
    a side has its most profit and the first its smallest C*; ``_c``/``_p``
    are the members' keys in the same order."""
    points = keys(arc.members)
    assert all(a[1] < b[1] for a, b in zip(points, points[1:]))
    assert arc.m == sum(c < capacity for _, c in points)
    for side in (points[:arc.m], points[arc.m:]):
        assert all(a[0] < b[0] for a, b in zip(side, side[1:]))
    assert arc._c == [c for _, c in points] and arc._p == [p for p, _ in points]


def test_archive_sorted_view_strictly_ascending():
    """After every ``insert`` and ``extend`` of a seeded random stream, with
    many equal profits and equal C* values among the candidates, for a
    capacity below, inside and above the candidates' C*."""
    rng = np.random.default_rng(12)
    for trial in range(30):
        capacity = (0, 20, 61)[trial % 3]
        arc = _Archive()

        def dominates(o, p, c):
            return o[0] >= p and o[1] <= c and (o[1] < capacity) == (c < capacity)

        points = [(int(p), float(c)) for p, c in
                  zip(rng.integers(0, 40, 60), rng.integers(0, 40, 60))]
        front = sorted((c, p) for p, c in set(points)
                       if not any(o != (p, c) and dominates(o, p, c) for o in points))
        half = len(front) // 2
        for batch in (front[:half], front[half:]):  # a bulk build in two parts
            arc.extend([(dummy_bits(), p, 0, 0, c) for c, p in batch], capacity)
            check_sorted_view(arc, capacity)
        assert keys(arc.members) == [(p, c) for c, p in front]
        for p, c in zip(rng.integers(0, 60, 300), rng.integers(0, 60, 300)):
            p, c = int(p), float(c)
            dominated = any(dominates(o, p, c) for o in keys(arc.members))
            assert arc.has_weak_dominator(p, c, capacity) == dominated
            if not dominated:
                arc.insert(dummy_bits(), p, 0, 0, c, capacity)
                check_sorted_view(arc, capacity)


def test_posdc_best_raises_when_empty():
    pos = fresh_posdc()
    with pytest.raises(RuntimeError):
        pos.best()


# -- POSDC dynamics -----------------------------------------------------------

def run_posdc_steps(pos, capacity, steps):
    pos.step(capacity, 0, steps, ignore)


def check_archive_invariants(pos, capacity, allow_out_of_window=0):
    out_of_window = 0
    minus, plus = sides(pos)
    for side, lo, hi in ((minus, capacity - pos.eta, capacity),
                         (plus, capacity, capacity + pos.eta)):
        s = len(side)
        p, c = zip(*keys(side)) if s else ((), ())
        # pairwise weak-dominance check (oracle-style, O(s^2))
        for i in range(s):
            for j in range(s):
                if i != j:
                    assert not (p[i] >= p[j] and c[i] <= c[j])
        if side is minus:
            inside = sum(lo <= x < hi for x in c)
        else:
            inside = sum(lo <= x <= hi for x in c)
        out_of_window += s - inside
    assert out_of_window <= allow_out_of_window
    # one run of ascending C*, split at the capacity by ``m``
    check_sorted_view(pos.archive, capacity)


def test_posdc_archive_invariants_static():
    inst, ctx = make_ctx(n=12, alpha=0.01, kind=CHERNOFF, seed=9)
    capacity = int(0.5 * inst.total_expected_weight())
    pos = Posdc(ctx, np.random.default_rng(5), capacity, eta=500)
    for block in range(40):
        run_posdc_steps(pos, capacity, 50)
        if pos.repair is None:
            check_archive_invariants(pos, capacity)
    # every member's aggregates match its bits
    for bits, p, w, k, c in pos.archive.members:
        x = np.frombuffer(bits, np.uint8)
        assert (p, w, k) == (int(x @ inst.profit_array()),
                             int(x @ inst.weight_array()), int(x.sum()))
        assert c == ctx.bound.cstar(w, k)


def test_posdc_on_change_matches_reclassification_oracle():
    rng = np.random.default_rng(3)
    for trial in range(10):
        inst, ctx = make_ctx(n=12, alpha=0.01, kind=CHEBYSHEV, seed=trial)
        capacity = int(0.55 * inst.total_expected_weight())
        pos = Posdc(ctx, np.random.default_rng(trial), capacity, eta=400)
        run_posdc_steps(pos, capacity, 3000)
        if pos.repair is not None:
            continue
        before = keys(pos.archive.members)
        best_p = pos.best()[1]
        new_c = capacity + int(rng.integers(-400, 401))
        pos.on_change(new_c)

        # oracle: window filter, side split, then non-dominated subset
        survivors = [(p, c) for p, c in before
                     if new_c - 400 <= c <= new_c + 400]
        expect = set()
        for side_members in ([m for m in survivors if m[1] < new_c],
                             [m for m in survivors if m[1] >= new_c]):
            for m in side_members:
                if not any(o != m and o[0] >= m[0] and o[1] <= m[1]
                           for o in side_members):
                    expect.add(m)
        got = set(keys(pos.archive.members))
        if expect:
            assert got == expect
            check_archive_invariants(pos, new_c)
        else:
            # archive reseeds with the previously designated solution
            assert len(got) == 1 and next(iter(got))[0] == best_p


def test_posdc_on_change_identity_keeps_members():
    inst, ctx = make_ctx(n=12, seed=4)
    capacity = int(0.5 * inst.total_expected_weight())
    pos = Posdc(ctx, np.random.default_rng(1), capacity, eta=500)
    run_posdc_steps(pos, capacity, 2000)
    before = (list(pos.archive.members), pos.archive.m)
    pos.on_change(capacity)
    assert (pos.archive.members, pos.archive.m) == before


def test_posdc_shift_by_eta_moves_plus_members_into_minus_interval():
    pos = fresh_posdc(capacity=1000, eta=500)
    pos.archive.insert(dummy_bits(), 10, 1200, 2, 1200.0, 1000)
    pos.archive.insert(dummy_bits(), 20, 1400, 3, 1400.0, 1000)
    assert pos.archive.m == 0
    pos.on_change(1500)
    minus, plus = sides(pos)
    assert keys(minus) == [(10, 1200.0), (20, 1400.0)]
    assert plus == []


def test_posdc_reseeds_out_of_window_survivor():
    pos = fresh_posdc(capacity=1000, eta=100)
    pos.archive.insert(dummy_bits(), 15, 950, 2, 950.0, 1000)
    pos.on_change(3000)  # window [2900, 3100] contains nothing
    assert pos.archive_size() == 1
    minus, _ = sides(pos)  # cstar 950 < 3000 lands on the feasible side
    assert keys(minus) == [(15, 950.0)]
    # invariant allows exactly this one out-of-window survivor
    check_archive_invariants(pos, 3000, allow_out_of_window=1)


def test_posdc_reseeds_out_of_window_survivor_into_s_plus():
    """After a drop that empties the window, the designated member, whose
    C* now lies above C + eta, reseeds S+; the S+ member it was designated
    over is dropped."""
    pos = fresh_posdc(capacity=1000, eta=100)
    pos.archive.insert(dummy_bits(), 15, 950, 2, 950.0, 1000)
    pos.archive.insert(dummy_bits(), 20, 1050, 3, 1050.0, 1000)
    designated = pos.best()
    assert designated[1] == 15 and pos.archive.m == 1
    pos.on_change(500)  # window [400, 600] contains nothing
    assert pos.archive_size() == 1 and pos.archive.m == 0
    _, plus = sides(pos)  # cstar 950 >= 500 lands on the infeasible side
    assert keys(plus) == [(15, 950.0)]
    assert pos.best() == designated
    check_archive_invariants(pos, 500, allow_out_of_window=1)


def test_posdc_in_window_init_skips_repair():
    inst, ctx = make_ctx(n=12, seed=6)
    # a window wide enough to contain any random solution's bound
    capacity = int(0.5 * inst.total_expected_weight())
    eta = inst.total_expected_weight() + 5000
    pos = Posdc(ctx, np.random.default_rng(2), capacity, eta)
    assert pos.repair is None
    assert pos.archive_size() == 1
    assert pos.repair_steps == 0


def test_posdc_repair_reaches_window_and_seeds():
    inst, ctx = make_ctx(n=12, alpha=0.01, seed=8)
    capacity = 600  # far below a random solution's expected weight
    pos = Posdc(ctx, np.random.default_rng(4), capacity, eta=500)
    assert pos.repair is not None
    steps = 0
    while pos.repair is not None and steps < 100_000:
        pos.step(capacity, steps, steps + 1, ignore)
        steps += 1
    assert pos.repair is None, "repair did not terminate"
    assert pos.archive_size() == 1
    assert steps == pos.repair_steps


@pytest.mark.parametrize("kind", [CHEBYSHEV, CHERNOFF])
def test_posdc_seeds_when_the_window_reaches_the_repair_incumbent(kind, monkeypatch):
    """A capacity change whose window holds the repair incumbent's C* seeds
    the archive at the change, without a further repair step, and the next
    step mutates an archive member."""
    inst = generate_instance("uncorrelated", 12, 25, seed=8)
    ctx = _RunContext(inst, ChanceParams(0.01, 25, kind))
    pos = Posdc(ctx, np.random.default_rng(4), 600, eta=500)
    pos.step(600, 0, 3, ignore)
    assert pos.repair is not None and pos.repair_steps == 3
    bits, p, w, k = pos.repair
    incumbent = (bytes(bits), p, w, k, ctx.bound.cstar(w, k))
    capacity = int(incumbent[4])
    pos.on_change(capacity)
    assert pos.repair is None and pos.archive_size() == 1
    member = pos.best()
    assert (bytes(member[0]), *member[1:]) == incumbent
    assert pos.repair_steps == 3
    draws = []
    below = _IndexBlocks.below

    def counted(self, m):
        draws.append(m)
        return below(self, m)

    monkeypatch.setattr(_IndexBlocks, "below", counted)
    pos.step(capacity, 3, 4, ignore)
    assert draws == [1] and pos.repair_steps == 3


def archive_rows(pos):
    return [(bytes(bits), *row) for bits, *row in pos.archive.members], pos.archive.m


@pytest.mark.parametrize("kind", [CHEBYSHEV, CHERNOFF])
def test_posdc_draws_a_parent_only_for_a_step_that_flips(kind, monkeypatch):
    """An archive step whose iteration flips nothing draws no parent and
    leaves the archive and the records as they were; every other step
    draws one parent from the whole archive. A stretch taken in one call
    makes exactly one parent draw per iteration with at least one flip."""
    inst = generate_instance("uncorrelated", 12, 25, seed=6)
    ctx = _RunContext(inst, ChanceParams(0.01, 25, kind))
    capacity = inst.total_expected_weight() // 2
    eta = inst.total_expected_weight() + 5000  # every solution is in window

    def make():
        pos = Posdc(ctx, np.random.default_rng(2), capacity, eta)
        assert pos.repair is None
        return pos

    draws = []
    below = _IndexBlocks.below

    def counted(self, m):
        draws.append(m)
        return below(self, m)

    monkeypatch.setattr(_IndexBlocks, "below", counted)
    single, records, flipping = make(), [], 0
    drawn_flips = []
    next_flips = single.next_flips

    def watched():
        drawn_flips.append(next_flips())
        return drawn_flips[-1]

    single.next_flips = watched
    iters = 3 * MUTATION_BLOCK + 7
    for i in range(iters):
        before, size = archive_rows(single), single.archive_size()
        drawn = len(draws)
        single.step(capacity, i, i + 1, records.append)
        assert len(drawn_flips) == i + 1  # one mutation per step
        if not drawn_flips[-1]:
            assert len(draws) == drawn and archive_rows(single) == before
            assert i not in records
        else:
            flipping += 1
            assert draws[drawn:] == [size]
    assert 0 < flipping < iters and single.archive_size() > 1

    draws.clear()
    whole = make()
    whole.step(capacity, 0, iters, ignore)
    assert len(draws) == flipping
    assert archive_rows(whole) == archive_rows(single)


def test_posdc_repair_cap_raises(monkeypatch):
    monkeypatch.setattr(solvers, "REPAIR_STEP_CAP", 3)
    inst, ctx = make_ctx(n=12, seed=8)
    pos = Posdc(ctx, np.random.default_rng(4), 600, eta=500)
    if pos.repair is None:
        pytest.skip("random init landed in window")
    with pytest.raises(RuntimeError, match="within 3 steps"):
        pos.step(600, 0, 10, ignore)
    assert pos.repair_steps == 4


def test_posdc_eta_validation():
    inst, ctx = make_ctx()
    with pytest.raises(ValueError):
        Posdc(ctx, np.random.default_rng(0), 1000, eta=0)


# -- (1+1)-EA -----------------------------------------------------------------

def test_ea_fitness_never_worsens_on_static_capacity():
    inst, ctx = make_ctx(n=12, alpha=0.01, kind=CHERNOFF, seed=2)
    capacity = int(0.5 * inst.total_expected_weight())
    ea = OnePlusOneEA(ctx, np.random.default_rng(7), capacity)
    def fitness():
        # lexicographic order: smaller violation, then larger profit
        return (ctx.lex_violation(ea.w, ea.k, capacity), -ea.p)

    prev = fitness()
    for i in range(3000):
        ea.step(capacity, i, i + 1, ignore)
        cur = fitness()
        assert cur <= prev
        prev = cur


def test_ea_recovers_feasibility_after_capacity_drop():
    inst, ctx = make_ctx(n=30, alpha=0.01, kind=CHEBYSHEV, seed=3)
    high = int(0.8 * inst.total_expected_weight())
    low = int(0.3 * inst.total_expected_weight())
    ea = OnePlusOneEA(ctx, np.random.default_rng(9), high)
    ea.step(high, 0, 4000, ignore)
    assert ctx.bound.tail(ea.w, ea.k, high) <= 0.01
    ea.on_change(low)
    ea.step(low, 4000, 10_000, ignore)
    assert ctx.bound.tail(ea.w, ea.k, low) <= 0.01


# -- NSGA-II ------------------------------------------------------------------

def pairwise_fronts_oracle(profits, bounds):
    n = len(profits)
    dominated_by = [set() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if (profits[j] >= profits[i] and bounds[j] <= bounds[i]
                    and (profits[j] > profits[i] or bounds[j] < bounds[i])):
                dominated_by[i].add(j)
    fronts = []
    remaining = set(range(n))
    while remaining:
        front = {i for i in remaining if not (dominated_by[i] & remaining)}
        fronts.append(sorted(front))
        remaining -= front
    return fronts


def test_fast_nondominated_sort_three_point_example():
    fronts = fast_nondominated_sort([10, 12, 8], [5, 4, 6])
    assert [sorted(f.tolist()) for f in fronts] == [[1], [0], [2]]


def tie_heavy_sets(count=3000):
    """Random (profits, bounds) sets with exact duplicates and equal float
    bounds, of 0 to 40 points."""
    rng = np.random.default_rng(13)
    for _ in range(count):
        m = int(rng.integers(0, 41))
        spread = int(rng.choice([3, 15, 1000]))
        profits = rng.integers(0, spread, m)
        bounds = rng.integers(0, spread, m) / 3.0
        if m > 1:
            dup = rng.integers(0, m, m // 3)
            src = rng.integers(0, m, m // 3)
            profits[dup], bounds[dup] = profits[src], bounds[src]
        yield profits, bounds


def test_fast_nondominated_sort_matches_pairwise_oracle():
    """Each front as an ordered array: ascending index is the order in which
    crowding's stable sort breaks ties. The sets are tie-heavy, with exact
    duplicates and equal float bounds."""
    for profits, bounds in tie_heavy_sets():
        got = [f.tolist() for f in fast_nondominated_sort(profits, bounds)]
        assert got == pairwise_fronts_oracle(profits.tolist(), bounds.tolist())


def reference_crowding(profits, cap_bounds) -> np.ndarray:
    """Crowding distance with one stable sort per objective (the
    implementation NSGA-II used before the one-sort form)."""
    m = len(profits)
    d = np.zeros(m)
    if m <= 2:
        d[:] = np.inf
        return d
    for obj in (np.asarray(profits, np.float64), np.asarray(cap_bounds, np.float64)):
        order = np.argsort(obj, kind="stable")
        d[order[0]] = d[order[-1]] = np.inf
        spread = obj[order[-1]] - obj[order[0]]
        if spread > 0:
            d[order[1:-1]] += (obj[order[2:]] - obj[order[:-2]]) / spread
    return d


def test_crowding_matches_two_sort_reference():
    """Bit for bit on every front of the tie-heavy sets, with the front's
    members listed as NSGA-II lists them: ascending index, integer profits
    and float bounds as Python lists."""
    for profits, bounds in tie_heavy_sets():
        for front in fast_nondominated_sort(profits, bounds):
            got = crowding_distances(profits[front].tolist(), bounds[front].tolist())
            want = reference_crowding(profits[front], bounds[front])
            assert np.asarray(got, np.float64).tobytes() == want.tobytes()


def test_crowding_boundaries_infinite():
    d = crowding_distances([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0])
    assert d[0] == np.inf and d[3] == np.inf
    assert np.isfinite(d[1]) and np.isfinite(d[2])
    assert crowding_distances([5], [1.0]) == [np.inf]
    assert crowding_distances([5, 6], [0.5, 1.0]) == [np.inf, np.inf]


def test_nsga2_identical_population_single_front():
    inst, ctx = make_ctx(n=10, seed=5)
    capacity = int(0.5 * inst.total_expected_weight())
    alg = Nsga2(ctx, np.random.default_rng(3), capacity)
    alg.bits[:] = alg.bits[0]
    alg._evaluate_population()
    fronts = fast_nondominated_sort(alg.p, alg.cstar)
    assert len(fronts) == 1 and len(fronts[0]) == 20
    alg.generation(capacity)
    assert len(alg.bits) == 20


def test_nsga2_population_size_and_rank0_invariants():
    inst, ctx = make_ctx(n=15, alpha=0.01, kind=CHERNOFF, seed=12)
    capacity = int(0.5 * inst.total_expected_weight())
    alg = Nsga2(ctx, np.random.default_rng(8), capacity)
    for _ in range(60):
        alg.generation(capacity)
        assert len(alg.bits) == 20 and len(alg.p) == 20
        front0 = fast_nondominated_sort(alg.p, alg.cstar)[0]
        p, c = alg.p[front0], alg.cstar[front0]
        for i in range(len(front0)):
            for j in range(len(front0)):
                if i != j:
                    assert not (p[i] >= p[j] and c[i] <= c[j]
                                and (p[i] > p[j] or c[i] < c[j]))


@pytest.mark.parametrize("kind", [CHEBYSHEV, CHERNOFF])
def test_nsga2_best_feasible_tracks_highest_profit(kind):
    inst, ctx = make_ctx(n=15, alpha=0.01, kind=kind, seed=12)
    capacity = int(0.6 * inst.total_expected_weight())
    alg = Nsga2(ctx, np.random.default_rng(2), capacity)
    for _ in range(100):
        alg.generation(capacity)
    assert alg.best_feasible is not None
    p, w, k, bits = alg.best_feasible
    assert ctx.bound.cstar(w, k) <= capacity
    assert (p, w, k) == (int(bits @ inst.profit_array()),
                         int(bits @ inst.weight_array()), int(bits.sum()))
    # the tracked solution has at least the profit of every feasible member
    feas = alg.cstar <= capacity
    if feas.any():
        assert p >= alg.p[feas].max()


@pytest.mark.parametrize("kind", [CHEBYSHEV, CHERNOFF])
def test_nsga2_on_change_resets_best(kind):
    """After a capacity change the tracked solution is the population's first
    row of the highest profit among those with C* <= C, even when the old
    one had more profit."""
    inst, ctx = make_ctx(n=15, alpha=0.01, kind=kind, seed=12)
    capacity = int(0.6 * inst.total_expected_weight())
    alg = Nsga2(ctx, np.random.default_rng(2), capacity)
    for _ in range(20):
        alg.generation(capacity)
    before = alg.best_feasible[0]
    tight = int(np.ceil(np.median(alg.cstar)))
    alg.on_change(tight)
    feas = np.flatnonzero(alg.cstar <= tight)
    j = feas[np.argmax(alg.p[feas])]
    p, w, k, bits = alg.best_feasible
    assert (p, w, k) == (alg.p[j], alg.w[j], alg.k[j])
    assert np.array_equal(bits, alg.bits[j]) and bits is not alg.bits[j]
    assert ctx.bound.cstar(w, k) <= tight and p <= before


def nsga2_with_rows(ctx, rows):
    """An ``Nsga2`` whose population has the given (p, w, k, cstar) rows, one
    item set each (the bits mark the row, nothing more)."""
    alg = Nsga2(ctx, np.random.default_rng(0), 1)
    alg.bits = np.eye(len(rows), ctx.n, dtype=np.uint8)
    alg.pwk = np.array([row[:3] for row in rows], np.int64)
    alg.cstar = np.array([row[3] for row in rows], np.float64)
    return alg


def test_nsga2_cstar_equal_to_capacity_is_feasible():
    """C* <= C decides feasibility: a row whose C* equals the capacity counts,
    and among the feasible rows of the highest profit the first is taken."""
    _, ctx = make_ctx(n=12)
    alg = nsga2_with_rows(ctx, [(5, 50, 2, 90.0), (9, 60, 3, 100.0),
                                (9, 61, 3, 99.5), (12, 70, 4, 100.5)])
    alg.on_change(100)
    assert alg.best_feasible[:3] == (9, 60, 3)
    assert np.array_equal(alg.best_feasible[3], alg.bits[1])
    # only a strictly higher feasible profit replaces the tracked solution
    ps = alg.p.tolist()
    assert not alg._consider(alg.bits, alg.pwk, ps, alg.cstar.tolist(), 100)
    assert alg._consider(alg.bits, alg.pwk, ps, (alg.cstar - 0.5).tolist(), 100)
    assert alg.best_feasible[:3] == (12, 70, 4)
    alg.on_change(99)
    assert alg.best_feasible[:3] == (5, 50, 2)


@pytest.mark.parametrize("kind", [CHEBYSHEV, CHERNOFF])
def test_nsga2_fallback_designates_smallest_cstar(kind):
    """With no row C* <= C, the designated row has the smallest C*, and a tie
    goes to the higher profit."""
    _, ctx = make_ctx(n=12, kind=kind)
    alg = nsga2_with_rows(ctx, [(7, 80, 2, 120.0), (4, 70, 1, 110.0),
                                (6, 75, 1, 110.0), (9, 90, 3, 130.0)])
    alg.on_change(100)
    assert alg.best_feasible is None
    assert alg.designated_eval(100) == (6, ctx.bound.certified(75, 1, 100))


@pytest.mark.parametrize("kind", [CHEBYSHEV, CHERNOFF])
def test_nsga2_records_only_when_the_best_feasible_changes(kind):
    """A generation records when it replaces the tracked best feasible
    solution, or while there is none (the fallback designation follows the
    population); a stretch that never replaces it records nothing beyond the
    driver's stretch-start record."""
    inst, ctx = make_ctx(n=12, kind=kind, seed=5)
    rows = []
    alg = Nsga2(ctx, np.random.default_rng(3), 1)
    alg.step(1, 0, 100, rows.append)  # nothing is feasible below one unit
    assert alg.best_feasible is None and rows == list(range(0, 100, 20))

    capacity = 10 * inst.total_expected_weight()  # every subset is feasible
    alg.on_change(capacity)
    profits = [alg.best_feasible[0]]
    alg.step(capacity, 100, 4100, lambda i: profits.append(alg.best_feasible[0]))
    # one record per replacement, each by a higher profit, up to all items
    assert len(profits) > 1 and profits == sorted(set(profits))
    assert profits[-1] == int(inst.profit_array().sum())
    best = alg.best_feasible
    rows.clear()
    alg.step(capacity, 4100, 4300, rows.append)
    assert alg.generations == 215 and alg.best_feasible is best and rows == []


def draw_from(alg, rng):
    """Let an ``Nsga2`` that has not yet taken a generation draw its blocks
    from ``rng``."""
    alg._draws = _stream(functools.partial(alg._draw_block, rng, alg.ctx))


def test_nsga2_is_freed_without_the_cycle_collector():
    """A finished NSGA-II holds no reference cycle (its draw stream does not
    hold it), so its arrays are freed when the run drops it, not when the
    collector next runs."""
    _, ctx = make_ctx(n=12)
    gc.disable()
    try:
        alg = Nsga2(ctx, np.random.default_rng(6), 10 ** 9)
        alg.generation(10 ** 9)
        freed = weakref.ref(alg)
        del alg
        assert freed() is None
    finally:
        gc.enable()


class ScriptedTournaments:
    """A Generator whose tournaments always pick individual 0 then 1, so
    every pair is (population row 0, row 1), and which keeps each
    ``random`` draw (a block's crossover decisions)."""

    def __init__(self, rng):
        self.rng = rng
        self.bit_generator = rng.bit_generator
        self.uniforms = []

    def integers(self, low, high, size):
        # a block's tournament ints, two per tournament: (0, 0), (1, 1), ...
        return np.resize([0, 0, 1, 1], size)

    def random(self, size):
        self.uniforms.append(self.rng.random(size))
        return self.uniforms[-1]


@pytest.mark.parametrize("n", [100, 1000])
def test_nsga2_crossover_mask_is_fair_at_every_position(n, monkeypatch):
    """Pairs of an all-zero and an all-one parent, with mutation switched
    off: the first child of a crossing pair is its mask. Each of the n
    positions, those of the partial last word included, is set in about half
    of the masks (every |z| < 5, and a chi-square over all positions at
    p > 0.001, fixed seed); a pair that does not cross is left unchanged."""
    _, ctx = make_ctx(n=n)
    live = Nsga2(ctx, np.random.default_rng(3), 10 ** 9)
    pop = live.pop_size
    scripted = ScriptedTournaments(np.random.default_rng(41))
    draw_from(live, scripted)
    monkeypatch.setattr(solvers, "_flip_positions", lambda *args: np.empty(0, np.int64))
    children, evaluate = [], live._evaluate
    live._evaluate = lambda bits: (children.append(bits.copy()), evaluate(bits))[1]
    parents = np.zeros((pop, n), np.uint8)
    parents[1] = 1
    for _ in range(400):
        live.bits = parents.copy()
        live.generation(10 ** 9)
    pairs = np.array(children).reshape(-1, 2, n)
    # the decisions of the generations taken, in order, from whole blocks
    crossed = np.concatenate(scripted.uniforms).ravel()[:len(pairs)] < live.crossover_rate
    assert (pairs[~crossed] == parents[:2]).all() and 0 < (~crossed).sum()
    masks = pairs[crossed]
    assert (masks[:, 1] == 1 - masks[:, 0]).all()
    trials = len(masks)
    z = (masks[:, 0].sum(axis=0) - trials / 2) / np.sqrt(trials / 4)
    assert np.abs(z).max() < 5
    assert stats.chi2.sf(np.sum(z ** 2), n) > 1e-3


GENS_PER_BLOCK = MUTATION_BLOCK // Nsga2.pop_size


def nsga2_block_items(n, seed, blocks, rng=None):
    """The stream items of the first ``blocks`` blocks of an NSGA-II on n
    items, drawn from ``rng`` in place of its own Generator if given."""
    _, ctx = make_ctx(n=n)
    alg = Nsga2(ctx, np.random.default_rng(seed), 10 ** 9)
    if rng is not None:
        draw_from(alg, rng)
    return [alg._draws() for _ in range(blocks * GENS_PER_BLOCK)]


def test_nsga2_draws_one_block_of_each_kind_per_block():
    """A block is one call of each kind (more gap batches only when the
    first ends inside the cells), drawn at the first generation of each
    block and never ahead; a generation draws nothing of its own."""
    _, ctx = make_ctx(n=12)
    alg = Nsga2(ctx, np.random.default_rng(6), 10 ** 9)
    rng = CountingGenerator(np.random.default_rng(6))
    draw_from(alg, rng)
    for block in range(3):
        alg.generation(10 ** 9)
        kinds = [name for i, name in enumerate(rng.names) if i == 0 or rng.names[i - 1] != name]
        assert kinds == ["integers", "random", "random_raw", "geometric"]
        rng.names.clear()
        for _ in range(GENS_PER_BLOCK - 1):
            alg.generation(10 ** 9)
        assert rng.names == []
    assert alg.generations == 3 * GENS_PER_BLOCK


def test_nsga2_block_tournament_ints_are_uniform():
    """Each generation takes pop_size pairs, whose ints are uniform over
    the population's rows (chi-square at p > 0.001, fixed seed)."""
    items = nsga2_block_items(12, 2027, 200)
    ints = np.array([pairs for pairs, _, _ in items])
    assert ints.shape == (200 * GENS_PER_BLOCK, Nsga2.pop_size, 2)
    counts = np.bincount(ints.ravel())
    assert len(counts) == Nsga2.pop_size
    assert stats.chisquare(counts).pvalue > 1e-3


@pytest.mark.parametrize("n", [100, 1000])
def test_nsga2_block_masks_cross_at_the_rate_and_are_fair(n):
    """A pair crosses, its mask not all zero, at the crossover rate
    (binomial |z| < 5; a crossing mask is all zero with probability 2^-n),
    and each position of a crossing mask, those of the partial last word
    included, is set in about half of them (every |z| < 5, and a chi-square
    over all positions at p > 0.001, fixed seed)."""
    items = nsga2_block_items(n, 2028, 100)
    masks = np.concatenate([mix for _, mix, _ in items])
    assert masks.shape == (100 * GENS_PER_BLOCK * Nsga2.pop_size // 2, n) and masks.max() == 1
    crossed = masks.any(axis=1)
    trials, rate = len(masks), Nsga2.crossover_rate
    assert abs(crossed.sum() - trials * rate) < 5 * np.sqrt(trials * rate * (1 - rate))
    crossing = masks[crossed]
    z = (crossing.sum(axis=0) - len(crossing) / 2) / np.sqrt(len(crossing) / 4)
    assert np.abs(z).max() < 5
    assert stats.chi2.sf(np.sum(z ** 2), n) > 1e-3


@pytest.mark.parametrize("n", [12, 100])
def test_nsga2_block_flips_match_independent_bit_flips(n):
    """Each generation's flips are ascending positions in its pop * n cells;
    each row's flip count follows Bin(n, 1/n), also in the last generation
    of each block, and the flips are uniform over a generation's cells
    (chi-square tests at p > 0.001, fixed seed)."""
    pop, blocks = Nsga2.pop_size, 600
    items = nsga2_block_items(n, 2029, blocks)
    counts, cells = [], []
    for _, _, flips in items:
        assert np.all(np.diff(flips) > 0) and np.all((flips >= 0) & (flips < pop * n))
        counts.append(np.bincount(flips // n, minlength=pop))
        cells.append(flips)
    counts = np.array(counts)
    assert count_p_value(counts.ravel(), n, 1.0 / n) > 1e-3
    last = counts.reshape(blocks, GENS_PER_BLOCK, pop)[:, -1]
    assert count_p_value(last.ravel(), n, 1.0 / n) > 1e-3
    assert stats.chisquare(np.bincount(np.concatenate(cells), minlength=pop * n)).pvalue > 1e-3


class ScriptedGapGenerator(ScriptedGaps):
    """A Generator whose ``geometric`` returns fixed gaps (``ScriptedGaps``)
    and whose other draws come from ``rng``."""

    def __init__(self, rng, gaps):
        super().__init__(gaps)
        self.integers, self.random = rng.integers, rng.random
        self.bit_generator = rng.bit_generator


@pytest.mark.parametrize("n", [1, 12, 100])
def test_nsga2_block_flips_place_the_edge_cells(n):
    """Cells 0 and pop * n - 1 of every generation of a block can flip, and
    each flip lands in its own generation at a cut between two."""
    cells = Nsga2.pop_size * n

    def first_block(positions):
        ends = np.array(positions) + 1
        gaps = np.diff(ends, prepend=0).tolist()
        items = nsga2_block_items(n, 5, 1, ScriptedGapGenerator(np.random.default_rng(5), gaps))
        return [flips.tolist() for _, _, flips in items]

    edges = [g * cells + edge for g in range(GENS_PER_BLOCK) for edge in (0, cells - 1)]
    assert first_block(edges) == [sorted({0, cells - 1})] * GENS_PER_BLOCK
    assert first_block(edges[1::2]) == [[cells - 1]] * GENS_PER_BLOCK
    assert first_block(edges[::2]) == [[0]] * GENS_PER_BLOCK


def matrix_fronts(profits, cap_bounds):
    """Fronts by peeling a pairwise dominance matrix (the sort NSGA-II used
    before the sweep)."""
    p = np.asarray(profits, np.float64)
    c = np.asarray(cap_bounds, np.float64)
    ge = p[:, None] >= p[None, :]
    le = c[:, None] <= c[None, :]
    strict = (p[:, None] > p[None, :]) | (c[:, None] < c[None, :])
    dom = ge & le & strict  # dom[i, j]: i dominates j
    counts = dom.sum(axis=0).astype(np.int64)
    fronts = []
    current = np.flatnonzero(counts == 0)
    while current.size:
        fronts.append(current)
        counts = counts - dom[current].sum(axis=0)
        counts[current] = -1
        current = np.flatnonzero(counts == 0)
    return fronts


class ReferenceNsga2(Nsga2):
    """NSGA-II with every generation done in full: the parents are sorted
    again for the tournaments, the draws of a block are taken one word and
    one gap at a time, crossover picks bits with ``np.where``, evaluation is
    an integer matmul, and crowding sorts each objective on its own.
    ``Nsga2`` must follow it bit for bit."""

    def _evaluate(self, bits):
        b = bits.astype(np.int64)
        w = b @ self.ctx.weights
        k = b.sum(axis=1)
        return b @ self.ctx.profits, w, k, self.ctx.bound.cstar_array(w, k)

    def _evaluate_population(self):
        p, w, k, self.cstar = self._evaluate(self.bits)
        self.pwk = np.column_stack([p, w, k])

    def _consider(self, bits, pwk, ps, cs, capacity):
        p, feas = np.array(ps), np.array(cs) <= capacity
        if not feas.any():
            return
        idx = np.flatnonzero(feas)
        j = idx[np.argmax(p[idx])]
        if self.best_feasible is None or p[j] > self.best_feasible[0]:
            self.best_feasible = (*(int(v) for v in pwk[j]), bits[j].copy())

    def _ranks_and_crowding(self, p, cstar):
        fronts = matrix_fronts(p, cstar)
        ranks = np.empty(len(p), np.int64)
        crowd = np.empty(len(p), np.float64)
        for depth, front in enumerate(fronts):
            ranks[front] = depth
            crowd[front] = reference_crowding(p[front], cstar[front])
        return ranks, crowd

    @classmethod
    def _draw_block(cls, rng, ctx):
        """The block ``Nsga2`` draws, in its order: the tournament ints of
        every generation, then the crossover decisions, then the raw 64-bit
        words, one at a time, a pair's mask bit j from bit j % 64 of its
        word j // 64, then the geometric gaps between flips, one at a time,
        over the block's cells, generation by generation and row by row, in
        batches of twice the expected flip count until a position passes the
        last cell. One (tournament pairs, masks, flips) item per generation."""
        pop, n = cls.pop_size, ctx.n
        gens = MUTATION_BLOCK // pop
        cand = rng.integers(0, pop, size=(gens, pop, 2))
        do_cross = rng.random((gens, pop // 2)) < cls.crossover_rate
        mix = np.zeros((gens, pop // 2, n), bool)
        for g in range(gens):
            for pair in range(pop // 2):
                words = [rng.bit_generator.random_raw() for _ in range(-(-n // 64))]
                for j in range(n):
                    mix[g, pair, j] = do_cross[g, pair] and (words[j // 64] >> (j % 64)) & 1
        cells, inv_n = gens * pop * n, ctx.inv_n
        flips = np.zeros(cells, np.uint8)
        position = -1
        while position < cells:
            for _ in range(2 * math.ceil(cells * inv_n)):
                position += rng.geometric(inv_n)
                if position < cells:
                    flips[position] = 1
        return list(zip(cand, mix, flips.reshape(gens, pop, n)))

    def generation(self, capacity: int):
        pop = self.pop_size
        ranks, crowd = self._ranks_and_crowding(self.p, self.cstar)
        cand, mix, flips = self._draws()

        # binary tournaments on (rank, crowding)
        a, b = cand[:, 0], cand[:, 1]
        a_wins = (ranks[a] < ranks[b]) | ((ranks[a] == ranks[b]) & (crowd[a] >= crowd[b]))
        pool = self.bits[np.where(a_wins, a, b)]

        # uniform crossover on consecutive pairs, bits picked by the mask
        p1, p2 = pool[0::2], pool[1::2]
        children = np.empty_like(pool)
        children[0::2] = np.where(mix, p2, p1)
        children[1::2] = np.where(mix, p1, p2)

        # 1/n mutation
        children ^= flips

        cp, cw, ck, c_cstar = self._evaluate(children)
        self._consider(children, np.column_stack([cp, cw, ck]), cp.tolist(),
                       c_cstar.tolist(), capacity)

        # elitist survival over parents + children
        all_bits = np.concatenate([self.bits, children])
        all_p = np.concatenate([self.p, cp])
        all_w = np.concatenate([self.w, cw])
        all_k = np.concatenate([self.k, ck])
        all_c = np.concatenate([self.cstar, c_cstar])
        fronts = matrix_fronts(all_p, all_c)
        chosen = []
        for front in fronts:
            if len(chosen) + len(front) <= pop:
                chosen.extend(front.tolist())
                if len(chosen) == pop:
                    break
            else:
                cd = reference_crowding(all_p[front], all_c[front])
                order = np.argsort(-cd, kind="stable")
                chosen.extend(front[order[: pop - len(chosen)]].tolist())
                break
        chosen = np.asarray(chosen)
        self.bits = all_bits[chosen]
        self.pwk = np.column_stack([all_p[chosen], all_w[chosen], all_k[chosen]])
        self.cstar = all_c[chosen]
        self.generations += 1


# uncorrelated cases keep their bare ids; bsc is churn's kind, whose parents
# and children nearly always form one front of 37 to 40 points, exact
# duplicates included, so crowding ties and the chosen order are exercised
REFERENCE_CASES = [
    pytest.param(family, n, kind, id=f"{prefix}{n}-{kind}")
    for family, prefix in (("uncorrelated", ""), ("bsc", "bsc-"))
    for kind in (CHEBYSHEV, CHERNOFF) for n in (1, 2, 12, 100, 1000)]


@pytest.mark.parametrize("family, n, kind", REFERENCE_CASES)
def test_nsga2_follows_reference_generation(family, n, kind):
    """Same seed, same population, best feasible solution and kept ranks as
    a full re-sort, generation by generation, with capacity changes between
    some generations."""
    inst = generate_instance(family, n, 25, seed=n)
    ctx = _RunContext(inst, ChanceParams(0.01, 25, kind))
    total = inst.total_expected_weight()
    capacity = total // 2
    live = Nsga2(ctx, np.random.default_rng(7), capacity)
    ref = ReferenceNsga2(ctx, np.random.default_rng(7), capacity)
    moves = np.random.default_rng(n)
    for g in range(151):
        if g:
            if g % 10 == 0:
                capacity = int(moves.integers(1, total + 1))
                live.on_change(capacity)
                ref.on_change(capacity)
            live.generation(capacity)
            ref.generation(capacity)
        for name in ("bits", "p", "w", "k", "cstar"):
            np.testing.assert_array_equal(getattr(live, name), getattr(ref, name),
                                          strict=True)
        if ref.best_feasible is None:
            assert live.best_feasible is None
        else:
            assert live.best_feasible[:3] == ref.best_feasible[:3]
            assert np.array_equal(live.best_feasible[3], ref.best_feasible[3])
        ranks, crowd = ref._ranks_and_crowding(live.p, live.cstar)
        assert np.array_equal(live.ranks, ranks)
        assert np.array_equal(live.crowd, crowd)


# -- runner -------------------------------------------------------------------

def static_schedule(inst, capacity, total, warmup=0, tau=1000):
    return build_schedule(capacity, tau, 1, warmup, total, capacity, capacity, seed=0)


def test_run_algorithm_reproducible():
    inst = generate_instance("uncorrelated", 12, 25, seed=4)
    dp = dp_optimal_profits(inst, inst.total_expected_weight())
    sched = build_schedule(3000, 200, 300, 500, 4000, 1,
                           inst.total_expected_weight(), seed=2)
    params = ChanceParams(0.01, 25, CHERNOFF)
    for algo in ("ea11", "posdc", "nsga2"):
        a = run_algorithm(algo, inst, sched, params, dp, seed=5)
        b = run_algorithm(algo, inst, sched, params, dp, seed=5)
        assert np.array_equal(a.per_iteration_phi, b.per_iteration_phi)
        c = run_algorithm(algo, inst, sched, params, dp, seed=6)
        assert not np.array_equal(a.per_iteration_phi, c.per_iteration_phi)


def test_run_algorithm_evaluation_accounting():
    inst = generate_instance("uncorrelated", 12, 25, seed=4)
    dp = dp_optimal_profits(inst, inst.total_expected_weight())
    sched = static_schedule(inst, 3000, total=103, warmup=3)
    params = ChanceParams(0.01, 25, CHEBYSHEV)
    assert run_algorithm("ea11", inst, sched, params, dp, 1).evaluations == 103
    assert run_algorithm("posdc", inst, sched, params, dp, 1).evaluations == 103
    assert run_algorithm("nsga2", inst, sched, params, dp, 1).evaluations == 120


def test_run_algorithm_rejects_bad_config():
    inst = generate_instance("uncorrelated", 12, 25, seed=4)
    dp = dp_optimal_profits(inst, inst.total_expected_weight())
    sched = static_schedule(inst, 3000, total=100, warmup=100)
    params = ChanceParams(0.01, 25, CHEBYSHEV)
    with pytest.raises(ValueError):  # zero post-warmup iterations
        run_algorithm("ea11", inst, sched, params, dp, 1)
    sched = static_schedule(inst, 3000, total=100, warmup=0)
    with pytest.raises(ValueError):  # delta mismatch
        run_algorithm("ea11", inst, sched, ChanceParams(0.01, 50, CHEBYSHEV), dp, 1)
    with pytest.raises(ValueError):  # unknown algorithm
        run_algorithm("sa", inst, sched, params, dp, 1)
    with pytest.raises(ValueError):  # dp table too short
        run_algorithm("ea11", inst, sched, params, dp[:100], 1)


def test_run_record_phi_consistent_with_trace():
    inst = generate_instance("uncorrelated", 12, 25, seed=4)
    dp = dp_optimal_profits(inst, inst.total_expected_weight())
    sched = build_schedule(3000, 100, 400, 200, 3000, 1,
                           inst.total_expected_weight(), seed=7)
    params = ChanceParams(0.01, 25, CHERNOFF)
    for algo in ("ea11", "posdc", "nsga2"):
        rec = run_algorithm(algo, inst, sched, params, dp, seed=3)
        for j in range(0, len(rec.per_iteration_phi), 37):
            cap = int(rec.capacity_trace[j])
            p_star = int(dp[cap])
            viol = float(rec.violation_trace[j])
            p_x = int(rec.best_profit_trace[j])
            expected = (p_star - p_x) if viol <= 0.01 else (1 + viol) * p_star
            assert rec.per_iteration_phi[j] == pytest.approx(expected, rel=1e-12)
            assert cap == sched.capacity_at(j + sched.warmup)
        assert rec.total_offline_error == pytest.approx(
            float(rec.per_iteration_phi.mean()), rel=1e-12)
        assert rec.change_count == sched.change_count


def reference_series(algo, inst, sched, params, dp, seed):
    """Dense (phi, capacity, profit, violation) per post-warmup iteration,
    from a driver that re-evaluates the designated solution on every
    iteration."""
    rng = np.random.default_rng(seed)
    ctx = _RunContext(inst, params)
    solver = _make_solver(algo, ctx, rng, sched.c0, sched.r)
    rows = []
    caps = sched.capacities()
    changes = set(sched.change_iters.tolist())
    capacity = sched.c0
    pending = False
    for i in range(sched.total_iters):
        if algo != "nsga2":
            if i in changes:
                capacity = int(caps[i])
                solver.on_change(capacity)
            solver.step(capacity, i, i + 1, ignore)
        elif i % Nsga2.pop_size == 0:
            if pending:
                solver.on_change(capacity)
                pending = False
            if i in changes:
                capacity = int(caps[i])
                solver.on_change(capacity)
            solver.generation(capacity)
        elif i in changes:  # mid-generation: the population reacts next time
            capacity = int(caps[i])
            pending = True
        if i >= sched.warmup:
            p_x, viol = solver.designated_eval(capacity)
            p_star = int(dp[capacity])
            rows.append((metrics.offline_error(p_star, p_x, viol, params.alpha),
                         capacity, p_x, viol))
    return [np.array(col) for col in zip(*rows)]


# (tau, warmup, total) under both bound families, Chernoff unsuffixed.
# tau=37 is not a multiple of 20, so NSGA-II sees mid-generation changes;
# tau=7 puts several changes inside one generation, warmup 0 puts a change
# on iteration 0, and 2963 iterations end in a truncated generation
@pytest.mark.parametrize("algo, tau, warmup, total, kind", [
    *(pytest.param(algo, 37, 5, 2965, kind, id=algo + suffix)
      for kind, suffix in ((CHERNOFF, ""), (CHEBYSHEV, "-chebyshev"))
      for algo in ("ea11", "posdc", "nsga2")),
    *(pytest.param(algo, 7, 0, 2963, kind, id=f"{algo}-tau7-warmup0{suffix}")
      for kind, suffix in ((CHERNOFF, ""), (CHEBYSHEV, "-chebyshev"))
      for algo in ("ea11", "posdc", "nsga2"))])
def test_recorder_misses_no_change(algo, tau, warmup, total, kind, monkeypatch):
    """Offline error scored only at records equals scoring every iteration,
    whether every step is recorded or only the stretch starts and the steps
    that may change the designated solution."""
    inst = generate_instance("uncorrelated", 12, 25, seed=4)
    dp = dp_optimal_profits(inst, inst.total_expected_weight())
    # c0 sits far below a random solution, so POSDC starts by repairing
    sched = build_schedule(600, tau, 2000, warmup, total, 1,
                           inst.total_expected_weight(), seed=7)
    params = ChanceParams(0.01, 25, kind)
    seed = 4
    if algo == "posdc":  # the repair phase outlasts the warm-up
        pos = Posdc(_RunContext(inst, params), np.random.default_rng(seed), 600,
                    sched.r)
        pos.step(600, 0, sched.warmup, ignore)
        assert pos.repair is not None

    normal = run_algorithm(algo, inst, sched, params, dp, seed=seed)
    cls = {"ea11": OnePlusOneEA, "posdc": Posdc, "nsga2": Nsga2}[algo]
    segment_step = cls.step

    def every_step(self, capacity, first, end, record):
        for i in range(first, end, self.stride):
            segment_step(self, capacity, i, i + 1, record)
            record(i)

    monkeypatch.setattr(cls, "step", every_step)
    marked = run_algorithm(algo, inst, sched, params, dp, seed=seed)
    monkeypatch.undo()
    reference = reference_series(algo, inst, sched, params, dp, seed)

    for rec in (marked, normal):
        got = (rec.per_iteration_phi, rec.capacity_trace, rec.best_profit_trace,
               rec.violation_trace)
        for a, b in zip(got, reference, strict=True):
            assert np.array_equal(a, b)
        assert rec.feasible_fraction == float((rec.violation_trace <= 0.01).mean())
        assert rec.feasible_fraction == float((reference[3] <= 0.01).mean())
        assert rec.total_offline_error == float(reference[0].mean())
    assert len(normal.intervals.starts) < len(reference[0]) // 4


def solver_state(solver, rng):
    """Everything a step may change: the state of the Generator ``rng``
    the solver was built on, and the draws the solver's streams hold from
    it, read as the next ``MUTATION_BLOCK + 1`` flip lists and parent
    draws (which advances both sides alike)."""
    state = rng.bit_generator.state
    if isinstance(solver, Nsga2):
        best = solver.best_feasible
        return (solver.bits.tobytes(), solver.p.tolist(), solver.w.tolist(),
                solver.k.tolist(), solver.cstar.tolist(), list(solver.ranks),
                list(solver.crowd), solver.generations,
                best and (*best[:3], best[3].tobytes()), state)
    flips = [solver.next_flips() for _ in range(MUTATION_BLOCK + 1)]
    if isinstance(solver, OnePlusOneEA):
        return bytes(solver.bits), solver.p, solver.w, solver.k, flips, state
    parents = [solver.parents.below(1 << 62) for _ in range(MUTATION_BLOCK + 1)]
    repair = solver.repair and (bytes(solver.repair[0]), *solver.repair[1:])
    arc = solver.archive
    archive = ([(bytes(b), *row) for b, *row in arc.members], arc._c, arc._p, arc.m)
    return repair, solver.repair_steps, archive, flips, parents, state


def take_segment(solver, capacity, first, end, per_step):
    """Every step starting in [first, end) in one call, or in one call per
    step; returns the recorded (iteration, designated evaluation) rows, the
    designated evaluation after every step (per-step calls only) and the
    message of a RuntimeError, if one ended the segment."""
    rows, dense = [], []

    def record(i):
        rows.append((i, solver.designated_eval(capacity)))

    try:
        if per_step:
            for i in range(first, end, solver.stride):
                solver.step(capacity, i, i + 1, record)
                dense.append((i, solver.designated_eval(capacity)))
        else:
            solver.step(capacity, first, end, record)
    except RuntimeError as exc:
        return rows, dense, str(exc)
    return rows, dense, None


@pytest.mark.parametrize("kind", [CHEBYSHEV, CHERNOFF])
@pytest.mark.parametrize("algo", ["ea11", "posdc", "nsga2"])
@pytest.mark.parametrize("case", ["repair-ends-mid-segment", "in-window-before-step",
                                  "repair-cap"])
def test_segment_step_equals_single_steps(case, algo, kind, monkeypatch):
    """One ``step(capacity, first, end, record)`` call leaves the solver,
    its Generator and the recorded rows as one call per step does, and the
    designated evaluation from before the segment, updated by those rows,
    equals a fresh evaluation after every step: every step that changed it
    is recorded. POSDC starts repairing (c0 = 600 sits far below a random
    solution): its repair ends inside a segment, or the next segment's
    capacity puts the repair incumbent in the window, which seeds the
    archive at the change, or the repair cap stops a segment with the same
    error after as many steps."""
    inst = generate_instance("uncorrelated", 12, 25, seed=8)
    ctx = _RunContext(inst, ChanceParams(0.01, 25, kind))
    total = inst.total_expected_weight()
    cap = 20 if case == "repair-cap" else REPAIR_STEP_CAP
    monkeypatch.setattr(solvers, "REPAIR_STEP_CAP", cap)

    whole_rng, single_rng = np.random.default_rng(4), np.random.default_rng(4)
    whole = _make_solver(algo, ctx, whole_rng, 600, 500)
    single = _make_solver(algo, ctx, single_rng, 600, 500)
    stride = whole.stride
    plan = [(600, 0, 3), (600, 3, 1500), (total // 2, 1500, 2500),
            (total // 4, 2500, 2501), (total // 3, 2501, 4000)]
    for n_seg, (capacity, start, end) in enumerate(plan):
        first = start + -start % stride
        if first >= end:
            continue
        if n_seg == 1 and algo == "posdc":
            assert whole.repair is not None
            if case == "in-window-before-step":
                capacity = int(ctx.bound.cstar(*whole.repair[2:]))
        if n_seg:
            whole.on_change(capacity)
            single.on_change(capacity)
        before = whole.designated_eval(capacity)
        assert single.designated_eval(capacity) == before
        rows, _, error = take_segment(whole, capacity, first, end, per_step=False)
        single_rows, dense, single_error = take_segment(
            single, capacity, first, end, per_step=True)
        assert error == single_error
        assert solver_state(whole, whole_rng) == solver_state(single, single_rng)
        assert rows == single_rows
        steps = [i for i, _ in dense]
        assert steps[0] == first and steps == list(range(first, steps[-1] + 1, stride))
        got = dict(rows)
        assert len(got) == len(rows) and list(got) == sorted(got)
        assert set(got) <= set(steps)
        scored = previous = before
        for i, value in dense:
            scored = got.get(i, scored)
            assert scored == value, (n_seg, i)
            assert value == previous or i in got, (n_seg, i)
            previous = value
        if algo == "posdc" and n_seg == 1:
            if case == "repair-cap":
                assert error is not None and whole.repair_steps == cap + 1
                assert steps[-1] == cap - 1
                return
            assert whole.repair is None
            if case == "repair-ends-mid-segment":
                assert 4 <= whole.repair_steps < end - 1
            else:  # seeded at the capacity change, before any step
                assert whole.repair_steps == 3
        assert error is None
    assert algo != "posdc" or whole.archive_size() > 1


def cstar_side_optimum(inst, capacity, params):
    """Max profit over subsets with capacity bound strictly below C (the
    admission rule of the POSDC feasible-side archive)."""
    n = inst.n
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(np.int64)
    w = bits @ inst.weight_array()
    k = bits.sum(axis=1)
    p = bits @ inst.profit_array()
    cstar = tail_bound(params, n).cstar_array(w, k)
    feas = cstar < capacity
    return int(p[feas].max()) if feas.any() else 0


def test_static_recovery_smoke():
    # one seed per combination here; the acceptance suite runs 100
    for kind in (CHEBYSHEV, CHERNOFF):
        inst = generate_instance("uncorrelated", 12, 25, seed=31)
        dp = dp_optimal_profits(inst, inst.total_expected_weight())
        capacity = int(0.55 * inst.total_expected_weight())
        sched = static_schedule(inst, capacity, total=10_000, warmup=0)
        params = ChanceParams(0.01, 25, kind)
        oracle_p, _ = brute_force_chance_optimum(inst, capacity, params)

        rec = run_algorithm("ea11", inst, sched, params, dp, seed=2)
        assert rec.best_profit_trace[-1] == oracle_p

        rec = run_algorithm("posdc", inst, sched, params, dp, seed=2)
        assert rec.best_profit_trace[-1] == cstar_side_optimum(inst, capacity, params)
