import functools
import gc
import math
import weakref
from operator import itemgetter

import numpy as np
import pytest
from scipy import stats

from dcckp import metrics, solvers
from dcckp.chance import CHEBYSHEV, CHERNOFF, ChanceParams
from dcckp.dynamics import build_schedule
from dcckp.model import UNCORRELATED, Instance, generate_instance
from dcckp.oracle import dp_optimal_profits
from dcckp.solvers import (
    MUTATION_BLOCK,
    REPAIR_STEP_CAP,
    Nsga2,
    OnePlusOneEA,
    Posdc,
    _Archive,
    _flip_positions,
    _gap_flips,
    _make_solver,
    _flipped,
    _RunContext,
    _stream,
    _words,
    crowding_distances,
    fast_nondominated_sort,
    run_algorithm,
)
from test_acceptance import replay_flips


def make_ctx(n=12, delta=25, alpha=0.01, kind=CHEBYSHEV, seed=1):
    inst = generate_instance("uncorrelated", n, delta, seed=seed)
    params = ChanceParams(alpha, delta, kind)
    return inst, _RunContext(inst, params)


# -- comparators --------------------------------------------------------------

def ignore(i):
    pass


def read_flips(flips):
    """The next iteration's ascending flip positions of the flip stream
    ``flips`` (``[]`` when nothing flips), read one iteration at a time:
    draws a block only when its first iteration is due."""
    flips.room()
    at = flips.at
    flips.at = at + 1
    return flips.positions[flips.starts[at]:flips.starts[at + 1]]


def scripted_flips(n, *iterations):
    """A flip stream on n bits whose first block's iterations flip the
    positions ``iterations`` lists, and later ones nothing, from scripted
    gaps (``ScriptedGaps``)."""
    hits = [j * n + x for j, positions in enumerate(iterations) for x in positions]
    return _gap_flips(ScriptedGaps(np.diff(hits, prepend=-1).tolist()), n)


def test_lex_better_or_equal_cases():
    """The acceptance rule of ``_RunContext.lex_run``, shared by the
    (1+1)-EA and POSDC's repair: smaller violation first, then higher
    profit; equality accepted."""
    inst = Instance(profits=[40, 50, 10, 40], weights=[300] * 4, delta=25,
                    kind=UNCORRELATED, c_constant=100, seed=0)
    ctx = _RunContext(inst, ChanceParams(0.01, 25, CHEBYSHEV))

    def solution(*chosen):
        x = np.zeros(4, np.uint8)
        x[list(chosen)] = 1
        return (bytearray(x), int(x @ inst.profits),
                int(x @ inst.weights), len(chosen))

    def step(incumbent, flips, capacity=2000):
        """The incumbent after one step, and whether the offspring won; a
        rejected offspring yields nothing."""
        before = bytes(incumbent[0])
        source = scripted_flips(4, flips or [])
        run = list(ctx.lex_run(source, incumbent, capacity, 7, 8))
        assert source.at == 1  # one step drew one mutation
        assert bytes(incumbent[0]) == before  # offspring are copies
        if not run:
            return incumbent, False
        [(i, got)] = run
        bits, p, w, k = got
        assert i == 7 and bits is not incumbent[0]
        assert bytes(bits) == bytes(_flipped(incumbent[0], flips))
        x = np.frombuffer(bits, np.uint8)
        assert (p, w, k) == (int(x @ inst.profits),
                             int(x @ inst.weights), int(x.sum()))
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
    inst = Instance(profits=[40, 50, 10], weights=[300] * 3, delta=25,
                    kind=UNCORRELATED, c_constant=100, seed=0)
    ctx = _RunContext(inst, ChanceParams(0.01, 25, CHEBYSHEV))
    calls = []
    lex_violation = _RunContext.lex_violation

    def counted(self, *args):
        calls.append(args)
        return lex_violation(self, *args)

    monkeypatch.setattr(_RunContext, "lex_violation", counted)
    incumbent = (bytearray([1, 0, 0]), 40, 300, 1)
    list(ctx.lex_run(scripted_flips(3, *[[0, 2]] * 5), incumbent, 2000, 0, 5))
    assert calls == [(300, 1, 2000)]  # the incumbent's own, once per call
    list(ctx.lex_run(scripted_flips(3, [0, 1]), incumbent, 2000, 0, 1))
    assert calls[1:] == [(300, 1, 2000), (300, 1, 2000)]


def test_lex_run_resumes_after_the_step_it_stopped_at():
    """``lex_run`` over a stretch from block iteration 250 into the next
    block, from an overweight incumbent. A caller that stops after the first
    kept step leaves the stream just past it, with no block drawn early; run
    to the end, it keeps the offspring that steps reading one iteration at a
    time keep, and has drawn two blocks from its Generator."""
    inst, ctx = make_ctx(n=12, seed=5)
    capacity = inst.total_expected_weight() // 3
    incumbent = (bytearray([1] * 12), int(inst.profits.sum()), int(inst.weights.sum()), 12)
    first, end = 250, MUTATION_BLOCK + 20

    def stream():
        """A replayed flip stream read up to block iteration ``first``, and
        its twin Generator, drawn as far."""
        rng = CountingGenerator(np.random.default_rng(17))
        flips, twin = replay_flips(rng, 12), np.random.default_rng(17)
        for _ in range(first):
            read_flips(flips)
        twin.random(12 * first)
        return flips, rng, twin

    def per_iteration(twin):
        return np.flatnonzero(twin.random(12) < 1.0 / 12).tolist()

    flips, rng, twin = stream()
    i, _ = next(ctx.lex_run(flips, incumbent, capacity, first, end))
    assert first <= i < MUTATION_BLOCK and flips.at == i + 1 and rng.calls == 1
    twin.random(12 * (i + 1 - first))
    for j in range(i + 1, end):
        assert read_flips(flips) == per_iteration(twin)
        assert rng.calls == 1 + (j >= MUTATION_BLOCK)

    flips, rng, twin = stream()
    got = [(i, bytes(bits), p, w, k)
           for i, (bits, p, w, k) in ctx.lex_run(flips, incumbent, capacity, first, end)]
    want, (bits, p, w, k) = [], incumbent
    for i in range(first, end):
        positions = per_iteration(twin)
        if positions:
            cp, cw, ck = ctx.mutate(bits, p, w, k, positions)
            if (ctx.lex_violation(cw, ck, capacity), -cp) <= (ctx.lex_violation(w, k, capacity), -p):
                bits, p, w, k = _flipped(bits, positions), cp, cw, ck
                want.append((i, bytes(bits), p, w, k))
    assert got == want and got[0][0] < MUTATION_BLOCK <= got[-1][0]
    assert flips.at == end - MUTATION_BLOCK and rng.calls == 2
    twin.random(12 * (2 * MUTATION_BLOCK - end))  # the rest of the second block
    assert rng.rng.bit_generator.state == twin.bit_generator.state


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


# the replay stream (the (1+1)-EA's before gaps, on which criterion 4's EA bar
# is audited) keeps its bare ids; gaps is every solver's stream
FLIP_STREAM_CASES = [
    pytest.param(stream, seed, n, id=f"{prefix}{n}")
    for stream, seed, prefix in ((replay_flips, 2024, ""), (_gap_flips, 2026, "gaps-"))
    for n in (12, 100, 1000)]


@pytest.mark.parametrize("stream, seed, n", FLIP_STREAM_CASES)
def test_flip_blocks_match_independent_bit_flips(stream, seed, n):
    """Both flip streams are standard bit mutation. Chi-square tests at
    p > 0.001 (fixed seed, thresholds fixed up front): flip counts follow
    Bin(n, 1/n), also in the last eighth of each block, positions are
    uniform and ascend within an iteration, and about (1 - 1/n)^n of the
    iterations flip nothing."""
    next_flips = functools.partial(read_flips, stream(np.random.default_rng(seed), n))
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
    """A replay block reads the same uniforms as one rng.random(n) per
    iteration, so the audited replay runs do not depend on the block size."""
    next_flips = functools.partial(read_flips, replay_flips(np.random.default_rng(31), n))
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
            "replay": lambda: functools.partial(read_flips, replay_flips(rng, 12)),
            "gaps": lambda: functools.partial(read_flips, _gap_flips(rng, 12)),
            "words": lambda: _words(rng)}[stream]()
    assert rng.calls == 0
    for block in range(1, 4):
        draw()
        assert rng.calls == block
        for _ in range(MUTATION_BLOCK - 1):
            draw()
        assert rng.calls == block


def test_flip_positions_draw_further_batches():
    """With one expected flip in 10 cells the first batch of two gaps often
    ends inside the cells; the further batches keep the draw exact:
    chi-square tests at p > 0.001 (fixed seed, thresholds fixed up front)
    find the flip counts Bin(10, 0.1) and the positions uniform. The
    positions ascend in range."""
    rng = CountingGenerator(np.random.default_rng(6))
    draws = 20000
    counts, cells = [], []
    for _ in range(draws):
        positions = _flip_positions(rng, 10, 0.1)
        assert np.all(np.diff(positions) > 0)
        assert np.all((positions >= 0) & (positions < 10))
        counts.append(len(positions))
        cells.append(positions)
    assert count_p_value(np.array(counts), 10, 0.1) > 1e-3
    assert stats.chisquare(np.bincount(np.concatenate(cells), minlength=10)).pvalue > 1e-3
    assert rng.calls > draws * 1.1


def test_flip_positions_with_certain_flips():
    rng = np.random.default_rng(4)
    for cells in (1, 2, 20, 1000):
        assert _flip_positions(rng, cells, 1.0).tolist() == list(range(cells))


class ScriptedGaps:
    """A Generator whose ``geometric`` returns fixed gaps, then a gap past
    any block."""

    def __init__(self, gaps):
        self.gaps = list(gaps)

    def geometric(self, p, size):
        out = (self.gaps + [10 ** 9] * size)[:size]
        self.gaps = self.gaps[size:]
        return np.array(out, np.int64)


def test_flip_positions_draw_again_when_a_batch_ends_on_the_last_cell():
    """A batch of gaps that ends exactly on the last cell keeps that flip,
    at ``cells - 1``, and is followed by a second ``geometric`` batch, whose
    positions all lie past the cells. The flips would be the same without
    the second batch, but the Generator's state would not: changing this
    moves runs.csv wherever a batch ends on a block's last cell."""
    scripted = ScriptedGaps([4, 6, 1, 1])  # a batch is 2 * ceil(10 * 0.1) gaps
    rng = CountingGenerator(scripted)
    assert _flip_positions(rng, 10, 0.1).tolist() == [3, 9]
    assert rng.names == ["geometric", "geometric"] and scripted.gaps == []


@pytest.mark.parametrize("n", [1, 12, 100])
def test_gap_flip_blocks_place_the_edge_cells(n):
    """A flip in a block's first cell belongs to its first iteration, and
    one in its last cell to its last iteration, at position n - 1."""
    cells = n * MUTATION_BLOCK

    def first_block(gaps):
        next_flips = functools.partial(read_flips, _gap_flips(ScriptedGaps(gaps), n))
        return [next_flips() for _ in range(MUTATION_BLOCK)]

    assert first_block([1, cells - 1]) == [[0]] + [[]] * (MUTATION_BLOCK - 2) + [[n - 1]]
    assert first_block([cells]) == [[]] * (MUTATION_BLOCK - 1) + [[n - 1]]


def test_each_solver_stream_equals_gap_flips_on_a_twin_generator():
    """The (1+1)-EA and POSDC, repair included, mutate from gap-drawn
    blocks. Each solver's stream reads its Generator after the initial
    solution, as ``_gap_flips`` on a twin Generator does."""
    _, ctx = make_ctx(n=12)
    iters = 2 * MUTATION_BLOCK + 3
    for solver in (OnePlusOneEA(ctx, np.random.default_rng(0), 600),
                   Posdc(ctx, np.random.default_rng(0), 600, eta=500)):
        twin = np.random.default_rng(0)
        ctx.random_solution(twin)
        next_flips = functools.partial(read_flips, _gap_flips(twin, 12))
        assert ([read_flips(solver.flips) for _ in range(iters)]
                == [next_flips() for _ in range(iters)])


def test_mutate_applies_the_drawn_flips():
    inst, ctx = make_ctx(n=12)
    rng = np.random.default_rng(3)
    bits, p, w, k = ctx.random_solution(rng)
    next_flips = functools.partial(read_flips, _gap_flips(np.random.default_rng(8), 12))
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
        assert (np_, nw, nk) == (int(expect @ inst.profits),
                                 int(expect @ inst.weights), int(expect.sum()))
        bits, p, w, k = nb, np_, nw, nk


def lemire_below(next_word, m):
    """Uniform integer in [0, m) from the words of ``next_word()`` by
    Lemire's multiply-and-reject method: the parent draw of
    ``ReferencePosdc``, which ``Posdc.step`` makes inline."""
    while True:
        prod = next_word() * m
        low = prod & ((1 << 64) - 1)
        # the threshold ((2^64 - m) mod m) is below m, so it is needed
        # only when low is
        if low >= m or low >= ((1 << 64) - m) % m:
            return prod >> 64


def test_lemire_below_is_uniform_below_changing_bounds():
    """``lemire_below`` on one word stream with the bound changing between
    draws: uniform (chi-square at p > 0.001, fixed seed) and in range.
    Bounds near 2^64 reject often, which archive sizes almost never do: one
    just above 2^63 rejects almost half of the words."""
    next_word = _words(np.random.default_rng(77))
    for m in (1, 3, 40):
        got = np.array([lemire_below(next_word, m) for _ in range(2000 * m)])
        assert got.min() >= 0 and got.max() < m
        if m > 1:
            assert stats.chisquare(np.bincount(got, minlength=m)).pvalue > 1e-3
    for big in ((1 << 63) + 1, 1 << 63, (1 << 64) - 1):
        assert all(0 <= lemire_below(next_word, big) < big for _ in range(100))


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


class ReferencePosdc:
    """POSDC as the paper states it (Assimi et al., 2020), in plain Python.
    S- and S+ are unordered lists of (bits, p, w, k, cstar) members, S- of
    C* in [C - eta, C) and S+ in [C, C + eta]. A point joins its side
    unless a member of it weakly dominates the point (at least the profit,
    at most the C*, found by a scan), and drops the members it weakly
    dominates. Until its C* lies in [C - eta, C + eta], the initial
    solution is repaired by lexicographic (1+1) steps, every iteration
    counted, and then seeds its side. A capacity change inserts the members
    in the new window afresh; when there are none, the designated member
    reseeds the archive. The designated member is S-'s most profitable,
    else S+'s smallest C*, and a parent is drawn by ``lemire_below`` over
    the members in ascending C*. An iteration that flips nothing is
    skipped. It reads the flip and word streams of a live ``Posdc`` built
    on its Generator, which also gives its initial solution."""

    def __init__(self, ctx, rng, capacity, eta):
        live = Posdc(ctx, rng, capacity, eta)
        self.ctx, self.eta = ctx, eta
        self.items = np.column_stack([ctx.profits, ctx.weights, np.ones(ctx.n, np.int64)])
        self.flips, self.next_word = live.flips, live.next_word
        bits, p, w, k = live.repair or live.archive.members[0][:4]
        self.repair, self.repair_steps = (bytes(bits), p, w, k), 0
        self.minus, self.plus = [], []
        self.seed(capacity)

    def in_window(self, cstar, capacity):
        return capacity - self.eta <= cstar <= capacity + self.eta

    def side(self, cstar, capacity):
        return self.minus if cstar < capacity else self.plus

    def dominated(self, p, cstar, capacity):
        return any(q >= p and c <= cstar for _, q, _, _, c in self.side(cstar, capacity))

    def insert(self, member, capacity):
        """Add a member that no member of its side weakly dominates."""
        side = self.side(member[4], capacity)
        side[:] = [o for o in side if not (o[1] <= member[1] and o[4] >= member[4])]
        side.append(member)

    def best(self):
        if self.minus:
            return max(self.minus, key=itemgetter(1))
        return min(self.plus, key=itemgetter(4))

    def rows(self):
        """The members in ascending C*, and the size of S-."""
        return sorted(self.minus + self.plus, key=itemgetter(4)), len(self.minus)

    def seed(self, capacity):
        """End the repair when its incumbent lies in the window."""
        bits, p, w, k = self.repair
        cstar = self.ctx.bound.cstar(w, k)
        if self.in_window(cstar, capacity):
            self.insert((bits, p, w, k, cstar), capacity)
            self.repair = None

    def on_change(self, capacity):
        if self.repair is not None:
            self.seed(capacity)
            return
        best = self.best()
        kept = [m for m in self.minus + self.plus if self.in_window(m[4], capacity)]
        self.minus, self.plus = [], []
        for member in kept:
            if not self.dominated(member[1], member[4], capacity):
                self.insert(member, capacity)
        if not kept:
            self.insert(best, capacity)

    def offspring(self, parent, positions):
        """The bits of ``parent`` with ``positions`` flipped, and their
        profit, weight and item count."""
        child = bytearray(parent[0])
        for i in positions:
            child[i] ^= 1
        return (bytes(child), *(np.frombuffer(child, np.uint8) @ self.items).tolist())

    def fitness(self, solution, capacity):
        _, p, w, k = solution
        return self.ctx.lex_violation(w, k, capacity), -p

    def step(self, capacity, first, end, record):
        for i in range(first, end):
            positions = read_flips(self.flips)
            if self.repair is not None:
                self.repair_steps += 1
                if positions:
                    child = self.offspring(self.repair, positions)
                    if self.fitness(child, capacity) <= self.fitness(self.repair, capacity):
                        self.repair = child
                        self.seed(capacity)
                        record(i)
            elif positions:
                members = self.rows()[0]
                parent = members[lemire_below(self.next_word, len(members))]
                child = self.offspring(parent, positions)
                member = (*child, self.ctx.bound.cstar(*child[2:]))
                if (self.in_window(member[4], capacity)
                        and not self.dominated(member[1], member[4], capacity)):
                    self.insert(member, capacity)
                    if self.best() is member:
                        record(i)


def test_archive_matches_the_reference_posdc_archive():
    """Seeded streams of dominance queries, inserts and capacity changes
    leave the list archive with the members of ``ReferencePosdc``'s plain
    sides, in C* order, split at the same ``m``, and designate the same
    member. The points' C* are integers near the window, so they land on
    C and on both edges of the window."""
    rng = np.random.default_rng(2027)
    eta = 30
    for trial in range(12):
        capacity = 100
        pos = fresh_posdc(capacity=capacity, eta=eta)
        n = pos.ctx.n
        ref = ReferencePosdc(pos.ctx, np.random.default_rng(0), capacity, eta)
        ref.repair, ref.minus, ref.plus = None, [], []
        for op in range(500):
            if pos.archive_size() and rng.random() < 0.06:
                shift = int(rng.integers(-20, 21)) if rng.random() < 0.8 else \
                    int(rng.integers(-4 * eta, 4 * eta + 1))
                capacity += shift
                pos.on_change(capacity)
                ref.on_change(capacity)
            else:
                # integer C* and profit rising with it plus a little noise:
                # long fronts, and ties in both are common
                c = float(capacity + rng.integers(-eta - 5, eta + 6))
                p = int(c) // 2 + int(rng.integers(0, 6))
                w, k = int(rng.integers(0, 1000)), int(rng.integers(0, n + 1))
                bits = rng.integers(0, 2, n, np.uint8).tobytes()
                if not ref.in_window(c, capacity):
                    continue
                dominated = ref.dominated(p, c, capacity)
                assert pos.archive.has_weak_dominator(p, c, capacity) == dominated
                if not dominated:
                    pos.archive.insert(bytearray(bits), p, w, k, c, capacity)
                    ref.insert((bits, p, w, k, c), capacity)
            check_sorted_view(pos.archive, capacity)
            assert archive_rows(pos) == ref.rows()
            if pos.archive_size():
                assert designated(pos) == ref.best()


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


def test_posdc_best_raises_when_empty():
    pos = fresh_posdc()
    with pytest.raises(RuntimeError):
        pos.best()


# -- POSDC dynamics -----------------------------------------------------------

def check_archive_invariants(pos, capacity, allow_out_of_window):
    """``check_sorted_view``, whose strictly rising C* and profit within a
    side leave no member weakly dominating another, and at most
    ``allow_out_of_window`` members outside [C - eta, C + eta]."""
    check_sorted_view(pos.archive, capacity)
    outside = sum(abs(c - capacity) > pos.eta for _, c in keys(pos.archive.members))
    assert outside <= allow_out_of_window


def test_posdc_on_change_identity_keeps_members():
    inst, ctx = make_ctx(n=12, seed=4)
    capacity = int(0.5 * inst.total_expected_weight())
    pos = Posdc(ctx, np.random.default_rng(1), capacity, eta=500)
    pos.step(capacity, 0, 2000, ignore)
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
def test_posdc_seeds_when_the_window_reaches_the_repair_incumbent(kind):
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
    draws = count_parent_draws(pos)
    pos.step(capacity, 3, 4, ignore)
    assert draws == [1] and pos.repair_steps == 3


def count_parent_draws(pos, draws=None):
    """The archive size at each parent draw of ``pos`` from now on: each
    word it reads, as a bound below 2^64 minus a few thousand rejects a
    word with a chance below 2^-50."""
    draws = [] if draws is None else draws
    next_word = pos.next_word

    def counted():
        draws.append(pos.archive_size())
        return next_word()

    pos.next_word = counted
    return draws


def last_flips(flips):
    """The flip positions of the iteration a flip stream read last."""
    return flips.positions[flips.starts[flips.at - 1]:flips.starts[flips.at]]


def archive_rows(pos):
    return [(bytes(bits), *row) for bits, *row in pos.archive.members], pos.archive.m


def designated(pos):
    """The repair incumbent of ``pos``, else its designated member, with
    its bits as bytes."""
    bits, *row = pos.repair or pos.best()
    return (bytes(bits), *row)


@pytest.mark.parametrize("kind", [CHEBYSHEV, CHERNOFF])
def test_posdc_draws_a_parent_only_for_a_step_that_flips(kind):
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

    single, records, flipping = make(), [], 0
    draws = count_parent_draws(single)
    iters = 3 * MUTATION_BLOCK + 7
    for i in range(iters):
        before, size = archive_rows(single), single.archive_size()
        drawn = len(draws)
        single.step(capacity, i, i + 1, records.append)
        assert single.flips.at == i % MUTATION_BLOCK + 1  # one mutation per step
        if not last_flips(single.flips):
            assert len(draws) == drawn and archive_rows(single) == before
            assert i not in records
        else:
            flipping += 1
            assert draws[drawn:] == [size]
    assert 0 < flipping < iters and single.archive_size() > 1

    draws.clear()
    whole = make()
    count_parent_draws(whole, draws)
    whole.step(capacity, 0, iters, ignore)
    assert len(draws) == flipping
    assert archive_rows(whole) == archive_rows(single)


@pytest.mark.parametrize("share", [0.0, 0.3, 0.5, 1.0])
def test_posdc_step_records_exactly_when_the_designated_member_changes(share):
    """An archive step records iff its insert replaced the designated member
    (S-'s last, else S+'s first); share 0 keeps S- empty throughout and
    share 1 keeps S+ nearly empty."""
    inst = generate_instance("uncorrelated", 12, 25, seed=6)
    ctx = _RunContext(inst, ChanceParams(0.01, 25, CHERNOFF))
    total = inst.total_expected_weight()
    capacity = max(1, int(share * total))
    pos = Posdc(ctx, np.random.default_rng(3), capacity, eta=2 * total + 5000)
    assert pos.repair is None
    records, changed = [], 0
    for i in range(2000):
        before = pos.best()
        pos.step(capacity, i, i + 1, records.append)
        assert (records[-1:] == [i]) == (pos.best() is not before)
        changed += pos.best() is not before
    assert 0 < changed < 2000 and pos.archive_size() > 1


def test_posdc_repair_cap_raises(monkeypatch):
    monkeypatch.setattr(solvers, "REPAIR_STEP_CAP", 3)
    inst, ctx = make_ctx(n=12, seed=8)
    pos = Posdc(ctx, np.random.default_rng(4), 600, eta=500)
    if pos.repair is None:
        pytest.skip("random init landed in window")
    with pytest.raises(RuntimeError, match="within 3 steps"):
        pos.step(600, 0, 10, ignore)
    assert pos.repair_steps == 4


def few_profit_instance(n):
    """The uncorrelated instance of seed ``n`` with its profits mapped into
    {1, 2, 3}, so that offspring often tie their parent's profit."""
    inst = generate_instance("uncorrelated", n, 25, seed=n)
    return Instance(profits=inst.profits % 3 + 1, weights=inst.weights,
                    delta=25, kind=UNCORRELATED, c_constant=100, seed=n)


def ceil_margins(ctx):
    """Round ``ctx``'s margins up to integers, so that integer C* values land
    on C and on POSDC's window edges."""
    ctx.bound.margins = np.ceil(ctx.bound.margins)
    ctx.bound.margin = ctx.bound.margins.tolist()


def stretch_plan(inst, tau, total, eta, seed):
    """(capacity, first, end) of each stretch of ``tau`` iterations of a
    schedule whose capacity starts at W / 2 and moves by up to 4 eta at each
    change, kept in [1, W] (W the total expected weight)."""
    rng = np.random.default_rng(seed)
    top = inst.total_expected_weight()
    capacity, plan = top // 2, []
    for first in range(0, total, tau):
        plan.append((capacity, first, min(first + tau, total)))
        capacity = int(np.clip(capacity + rng.integers(-4 * eta, 4 * eta + 1), 1, top))
    return plan


# (family, n, kind, tau, eta, ceiling, words) of the whole-run cases: float
# margins over the EA's shapes on both families, the parent words scripted
# at tau 25 and the Generator's at tau 1000; then ceiling margins, whose
# integer C* lands on C and on the window's edges, in windows of eta 8 and 40
POSDC_CASES = [
    *((family, n, kind, tau, None, False, "scripted" if tau == 25 else "generator")
      for family in ("uncorrelated", "bsc") for n in (1, 2, 12, 100, 1000)
      for kind in (CHEBYSHEV, CHERNOFF) for tau in (25, 1000)),
    *((family, n, kind, 25, eta, True, "generator")
      for family in ("uncorrelated", "bsc") for n in (12, 100, 1000)
      for kind in (CHEBYSHEV, CHERNOFF) for eta in (8, 40))]


def posdc_case_id(case):
    family, n, kind, tau, eta, ceiling, words = case
    return f"{family}-{n}-{kind}-tau{tau}-{f'ceil-eta{eta}' if ceiling else 'float'}-{words}"


def posdc_solver(cls, case):
    """A ``cls``, ``Posdc`` or ``ReferencePosdc``, of a whole-run case, with
    its Generator and stretch plan: alpha 0.01 at tau 25, 1e-4 at tau 1000,
    and eta W / 20 unless the case gives it. Scripted words are 0 a quarter
    of the time, which a bound that is not a power of two rejects."""
    family, n, kind, tau, eta, ceiling, words = case
    inst = generate_instance(family, n, 25, seed=n)
    ctx = _RunContext(inst, ChanceParams(0.01 if tau == 25 else 1e-4, 25, kind))
    if ceiling:
        ceil_margins(ctx)
    eta = eta or max(1, inst.total_expected_weight() // 20)
    plan = stretch_plan(inst, tau, 2000 if tau == 25 else 3000, eta, seed=n + tau)
    rng = np.random.default_rng(n)
    solver = cls(ctx, rng, plan[0][0], eta)
    if words == "scripted":
        script = np.random.default_rng(99).integers(0, 1 << 64, 10_000, np.uint64)
        script[np.random.default_rng(98).random(script.size) < 0.25] = 0
        solver.next_word = iter(script.tolist()).__next__
    return solver, rng, plan


@pytest.mark.parametrize("case", POSDC_CASES, ids=posdc_case_id)
def test_posdc_matches_the_reference_posdc(case):
    """``Posdc`` stepped beside ``ReferencePosdc`` on twin Generators
    through a schedule whose capacity moves by up to 4 eta: after every
    stretch both hold the same members in the same order, split at the same
    ``m``, the same designated member or repair incumbent and repair step
    count, made the same record calls and leave their Generators in the
    same state."""
    live, live_rng, plan = posdc_solver(Posdc, case)
    ref, ref_rng, _ = posdc_solver(ReferencePosdc, case)
    assert_posdc_matches_reference(live, live_rng, ref, ref_rng, plan)


def test_posdc_repair_seeds_on_the_window_upper_edge():
    """A whole run in which the repair incumbent reaches C* = C + eta, the
    window's upper edge, which seeds the archive: profits in {1, 2, 3},
    Chebyshev at alpha 1e-4 with ceiling margins, tau 30, eta 30, and a
    capacity that moves by up to 4 at each change."""
    inst = few_profit_instance(100)
    plan = stretch_plan(inst, 30, 3000, 1, seed=1162)  # its eta 1: steps of up to 4

    def solver(cls):
        ctx = _RunContext(inst, ChanceParams(1e-4, 25, CHEBYSHEV))
        ceil_margins(ctx)
        rng = np.random.default_rng(1162)
        return cls(ctx, rng, plan[0][0], 30), rng

    assert_posdc_matches_reference(*solver(Posdc), *solver(ReferencePosdc), plan)


def assert_posdc_matches_reference(live, live_rng, ref, ref_rng, plan):
    """Steps ``live`` beside ``ref`` through ``plan``, asserting after
    every stretch what ``test_posdc_matches_the_reference_posdc`` states."""
    for n_seg, (capacity, first, end) in enumerate(plan):
        if n_seg:
            live.on_change(capacity)
            ref.on_change(capacity)
        got, want = [], []
        live.step(capacity, first, end, got.append)
        ref.step(capacity, first, end, want.append)
        assert got == want
        assert archive_rows(live) == ref.rows()
        assert designated(live) == (ref.repair or ref.best())
        assert live.repair_steps == ref.repair_steps
        assert live_rng.bit_generator.state == ref_rng.bit_generator.state


def test_posdc_reference_cases_reach_every_branch():
    """Over the cases of ``test_posdc_matches_the_reference_posdc``, POSDC's
    repair seeds the archive inside a stretch and at a capacity change, the
    designated member reseeds an archive that a change emptied, a stretch
    ends with S- empty, a parent draw rejects a word, and a stretch ends
    with a member whose C* equals C."""
    seen = dict.fromkeys(["seeded in a stretch", "seeded at a change", "reseeded",
                          "S- empty", "word rejected", "C* equals C"], 0)
    for case in POSDC_CASES:
        pos, _, plan = posdc_solver(Posdc, case)
        next_word = pos.next_word

        def word():
            value, size = next_word(), pos.archive_size()
            seen["word rejected"] += (value * size) & ((1 << 64) - 1) < ((1 << 64) - size) % size
            return value

        pos.next_word = word
        for n_seg, (capacity, first, end) in enumerate(plan):
            if n_seg:
                repairing, before = pos.repair is not None, keys(pos.archive.members)
                pos.on_change(capacity)
                seen["seeded at a change"] += repairing and pos.repair is None
                seen["reseeded"] += not repairing and all(
                    abs(c - capacity) > pos.eta for _, c in before)
            repairing = pos.repair is not None
            pos.step(capacity, first, end, ignore)
            seen["seeded in a stretch"] += repairing and pos.repair is None
            if pos.repair is None:
                seen["S- empty"] += pos.archive.m == 0
                seen["C* equals C"] += capacity in pos.archive._c
    assert all(seen.values()), seen


def test_posdc_eta_validation():
    inst, ctx = make_ctx()
    with pytest.raises(ValueError):
        Posdc(ctx, np.random.default_rng(0), 1000, eta=0)


# -- (1+1)-EA -----------------------------------------------------------------

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


class ReferenceEA:
    """The (1+1)-EA as the paper states it (Assimi et al., 2020): a step
    that flips something builds its offspring's bits, scores offspring and
    incumbent with the full lexicographic fitness (violation, then profit)
    and keeps the offspring when it is at least as good, with no
    feasible-incumbent shortcut. It reads the flip stream of a live
    ``OnePlusOneEA`` built on its Generator, which also gives its initial
    solution."""

    def __init__(self, ctx, rng, capacity):
        live = OnePlusOneEA(ctx, rng, capacity)
        self.ctx, self.flips = ctx, live.flips
        self.bits, self.p, self.w, self.k = bytes(live.bits), live.p, live.w, live.k

    def fitness(self, p, w, k, capacity):
        return self.ctx.lex_violation(w, k, capacity), -p

    def step(self, capacity, first, end, record):
        for i in range(first, end):
            positions = read_flips(self.flips)
            if not positions:
                continue
            child = np.frombuffer(self.bits, np.uint8).copy()
            child[positions] ^= 1
            p, w, k = (int(child @ self.ctx.profits), int(child @ self.ctx.weights),
                       int(child.sum()))
            if self.fitness(p, w, k, capacity) <= self.fitness(self.p, self.w, self.k, capacity):
                self.bits, self.p, self.w, self.k = child.tobytes(), p, w, k
                record(i)


def ea_schedule_case(n, kind, tau, few_profits=False):
    """A ``_RunContext`` and a stretch plan: alpha 0.01 at tau 25 (churn's),
    1e-4 at tau 1000 (desk's and wide's). With ``few_profits`` the profits
    are mapped into {1, 2, 3}, so offspring often tie their parent's."""
    inst = few_profit_instance(n) if few_profits else generate_instance(
        "uncorrelated", n, 25, seed=n)
    ctx = _RunContext(inst, ChanceParams(0.01 if tau == 25 else 1e-4, 25, kind))
    eta = max(1, inst.total_expected_weight() // 20)
    return ctx, stretch_plan(inst, tau, 2000 if tau == 25 else 8000, eta, seed=n + tau)


# (n, kind, tau, few_profits) of the whole-run EA cases; the generated
# profits keep the ids "n-kind-tau", and the few-profit cases add a suffix
EA_CASES = [
    pytest.param(n, kind, tau, few,
                 id=f"{n}-{kind}-{tau}" + ("-profits-1-3" if few else ""))
    for few in (False, True) for n in (1, 2, 12, 100, 1000)
    for kind in (CHEBYSHEV, CHERNOFF) for tau in (25, 1000)]


@pytest.mark.parametrize("n, kind, tau, few_profits", EA_CASES)
def test_ea_matches_the_reference_ea(n, kind, tau, few_profits):
    """``OnePlusOneEA`` stepped beside ``ReferenceEA`` on twin Generators
    through a schedule whose capacity moves by up to 4 eta: after every
    stretch both hold the same incumbent, made the same record calls and
    leave their Generators in the same state."""
    ctx, plan = ea_schedule_case(n, kind, tau, few_profits)
    live_rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
    live = OnePlusOneEA(ctx, live_rng, plan[0][0])
    ref = ReferenceEA(ctx, ref_rng, plan[0][0])
    kept = 0
    for capacity, first, end in plan:
        live.on_change(capacity)
        got, want = [], []
        live.step(capacity, first, end, got.append)
        ref.step(capacity, first, end, want.append)
        assert got == want
        assert (bytes(live.bits), live.p, live.w, live.k) == (ref.bits, ref.p, ref.w, ref.k)
        assert live_rng.bit_generator.state == ref_rng.bit_generator.state
        kept += len(got)
    assert kept > 0


# -- NSGA-II ------------------------------------------------------------------

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
        assert got == [f.tolist() for f in matrix_fronts(profits, bounds)]


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
    assert (p, w, k) == (int(bits @ inst.profits),
                         int(bits @ inst.weights), int(bits.sum()))
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
    assert alg.designated_eval() == (6, 75, 1)


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
    assert profits[-1] == int(inst.profits.sum())
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


def test_run_algorithm_rejects_a_table_that_misses_a_capacity():
    inst = generate_instance("uncorrelated", 12, 25, seed=4)
    sched = build_schedule(3000, 100, 400, 0, 1000, 1,
                           inst.total_expected_weight(), seed=0)
    low, high = int(sched.change_caps.min()), int(sched.change_caps.max())
    assert low < 3000 < high  # the changes reach on both sides of c0
    params = ChanceParams(0.01, 25, CHEBYSHEV)
    run_algorithm("ea11", inst, sched, params, dp_optimal_profits(inst, high, low), 1)
    with pytest.raises(ValueError):  # the lowest change sits on a -1 entry
        run_algorithm("ea11", inst, sched, params,
                      dp_optimal_profits(inst, high, low + 1), 1)
    with pytest.raises(ValueError):  # c0 sits on a -1 entry
        run_algorithm("ea11", inst, sched, params,
                      dp_optimal_profits(inst, high, 3001), 1)
    with pytest.raises(ValueError):  # the table ends below the highest change
        run_algorithm("ea11", inst, sched, params,
                      dp_optimal_profits(inst, high - 1, low), 1)
    # the same steps from c0 = 5 reach below 0, where no table has an entry
    sched = build_schedule(5, 100, 400, 0, 1000, -10**4, 10**4, seed=0)
    assert sched.change_caps.min() < 0
    with pytest.raises(ValueError):
        run_algorithm("ea11", inst, sched, params, dp_optimal_profits(inst, 10**4), 1)


def test_run_record_phi_consistent_with_trace():
    inst = generate_instance("uncorrelated", 12, 25, seed=4)
    dp = dp_optimal_profits(inst, inst.total_expected_weight())
    sched = build_schedule(3000, 100, 400, 200, 3000, 1,
                           inst.total_expected_weight(), seed=7)
    params = ChanceParams(0.01, 25, CHERNOFF)
    for algo in ("ea11", "posdc", "nsga2"):
        rec = run_algorithm(algo, inst, sched, params, dp, seed=3)
        capacities, profits, violations = (
            rec.intervals.series(name) for name in ("capacity", "best_profit", "violation"))
        for j in range(0, len(rec.per_iteration_phi), 37):
            cap = int(capacities[j])
            p_star = int(dp[cap])
            viol = float(violations[j])
            p_x = int(profits[j])
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
            p_x, w, k = solver.designated_eval()
            viol = ctx.bound.certified(w, k, capacity)
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

    cls = {"ea11": OnePlusOneEA, "posdc": Posdc, "nsga2": Nsga2}[algo]
    segment_step = cls.step
    stretches, recorded = [], []  # the step calls, and the steps that called record

    def counted_step(self, capacity, first, end, record):
        stretches.append(first)

        def counted(i):
            recorded.append(i)
            record(i)
        segment_step(self, capacity, first, end, counted)

    monkeypatch.setattr(cls, "step", counted_step)
    normal = run_algorithm(algo, inst, sched, params, dp, seed=seed)
    monkeypatch.undo()

    def every_step(self, capacity, first, end, record):
        for i in range(first, end, self.stride):
            segment_step(self, capacity, i, i + 1, record)
            record(i)

    monkeypatch.setattr(cls, "step", every_step)
    marked = run_algorithm(algo, inst, sched, params, dp, seed=seed)
    monkeypatch.undo()
    reference = reference_series(algo, inst, sched, params, dp, seed)

    for rec in (marked, normal):
        got = [rec.intervals.series(name) for name, _ in metrics.COLUMNS]
        for a, b in zip(got, reference, strict=True):
            assert np.array_equal(a, b)
        assert rec.feasible_fraction == float((got[3] <= 0.01).mean())
        assert rec.feasible_fraction == float((reference[3] <= 0.01).mean())
        assert rec.total_offline_error == float(reference[0].mean())
    # run_algorithm records each stretch's start and each change inside a step,
    # a solver only the steps that may change its designation: fewer records
    # than iterations
    inside = sum(i % cls.stride != 0 for i in sched.change_iters.tolist())
    records = len(stretches) + inside + len(recorded)
    assert len(normal.intervals.starts) <= records < len(reference[0])


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
    flips = [read_flips(solver.flips) for _ in range(MUTATION_BLOCK + 1)]
    if isinstance(solver, OnePlusOneEA):
        return bytes(solver.bits), solver.p, solver.w, solver.k, flips, state
    parents = [solver.next_word() for _ in range(MUTATION_BLOCK + 1)]
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
        rows.append((i, solver.designated_eval()))

    try:
        if per_step:
            for i in range(first, end, solver.stride):
                solver.step(capacity, i, i + 1, record)
                dense.append((i, solver.designated_eval()))
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
        before = whole.designated_eval()
        assert single.designated_eval() == before
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
