"""Evolutionary solvers for the dynamic chance-constrained knapsack.

Three algorithms share the same iteration currency (one fitness evaluation
per iteration):

* ``OnePlusOneEA`` -- single incumbent, standard bit mutation (each bit
  flips with probability 1/n), lexicographic (constraint violation, profit)
  acceptance.
* ``Posdc`` -- two non-dominated sets around the current capacity, kept as
  one list in ascending capacity bound: S- holds solutions whose bound sits
  in [C - eta, C), S+ those in [C, C + eta]. Keeping the infeasible side
  warm is what lets the search react when the capacity shifts.
* ``Nsga2`` -- population of 20 on (profit up, capacity bound C* down),
  feasible when C* <= C, survival that peels fronts only until it is full,
  uniform crossover as a masked XOR swap and 1/n mutation; a generation is
  charged 20 iterations.

``run_algorithm`` drives any of them, in one loop, through a capacity
schedule and scores the offline error against a precomputed DP optimum
table; a solver's ``stride`` is the iterations one step is charged. One call
``step(capacity, first, end, record)`` takes every step that starts in
``[first, end)``, a stretch of constant capacity. The designated solution is
re-evaluated only at records, and one rule places them: the driver records
the start of every stretch, before its first step, and a solver calls
``record(i)`` after each step ``i`` that may have changed its designated
solution (a record supersedes an earlier one at the same iteration). POSDC
has one seeding rule as well: its repair incumbent seeds the archive as soon
as its C* lies in [C - eta, C + eta], checked at construction, after each
accepted repair step and at each capacity change. The (1+1)-EA and POSDC
keep their state in locals for the whole stretch. Mutation returns the
offspring's profit, weight and item count without building its bits, which
are copied from the parent only when the offspring is kept, and a feasible
incumbent rejects a lower-profit offspring without evaluating the bound
(violations are never negative, so this is exact).

Both read standard bit mutation from a flip stream, ``next_flips()``, which
returns one iteration's ascending flip positions (``[]`` when nothing flips)
and draws ``MUTATION_BLOCK`` iterations at a time (``_stream``). POSDC's
stream comes from geometric gaps (``_gap_flips``), about one draw per flip.
The (1+1)-EA's replays one ``rng.random(n)`` per iteration (``_replay_flips``),
which costs n uniforms an iteration but keeps its trajectories: acceptance
criterion 4's 95/100 threshold sits at the EA's measured success rate, so a
new EA stream fails it about half the time. Both skip an iteration that
flips nothing: its offspring would be an exact copy. NSGA-II reads a stream
of the same kind, one item per generation with all of its draws, drawn
``MUTATION_BLOCK // pop_size`` generations at a time (``Nsga2._draw_block``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import chain

import numpy as np

from . import chance, metrics
from .chance import ChanceParams

REPAIR_STEP_CAP = 10 ** 6
MUTATION_BLOCK = 256  # iterations of standard bit mutation drawn at once


def _stream(draw_block):
    """The next item of blocks from ``draw_block()``, one item per call. The
    first call draws the first block, and a block is drawn only when the
    last one has run out, so the Generator's calls keep the order of the
    items they serve."""
    return chain.from_iterable(iter(draw_block, None)).__next__


def _flip_stream(n: int, draw_hits):
    """``next_flips()`` of standard bit mutation on n bits: one iteration's
    ascending flip positions per call, ``[]`` when nothing flips. A block is
    ``draw_hits()``, the ascending flips of ``MUTATION_BLOCK`` iterations as
    positions in their n * MUTATION_BLOCK cells (iteration-major)."""

    def block():
        hits = draw_hits()
        iteration = hits // n
        positions = (hits - iteration * n).tolist()
        starts = np.searchsorted(iteration, np.arange(MUTATION_BLOCK + 1)).tolist()
        return [positions[a:b] for a, b in zip(starts, starts[1:])]

    return _stream(block)


def _replay_flips(rng, n: int):
    """Flips of one ``rng.random(n)`` per iteration, bit i flipping when its
    uniform is below 1/n. A block is n * MUTATION_BLOCK uniforms in one
    vectorised call, the same stream as a per-iteration draw, so a solver
    that draws nothing else between mutations keeps its trajectory."""
    return _flip_stream(n, lambda: np.flatnonzero(rng.random(n * MUTATION_BLOCK) < 1.0 / n))


def _gap_flips(rng, n: int):
    """Flips from geometric gaps (``_flip_positions``), whose cost does not
    grow with n: about one draw per flip, not one uniform per bit. Exact in
    distribution, but a different stream from ``_replay_flips``."""
    return _flip_stream(n, lambda: _flip_positions(rng, n * MUTATION_BLOCK, 1.0 / n))


def _flip_positions(rng, cells: int, p: float):
    """Ascending positions below ``cells`` of independent flips of probability
    ``p``: cumulated geometric gaps, in batches of twice the mean count."""
    batch = 2 * math.ceil(cells * p)
    ends = rng.geometric(p, batch).cumsum()  # each flip's position + 1
    while ends[-1] <= cells:
        ends = np.concatenate([ends, ends[-1] + rng.geometric(p, batch).cumsum()])
    return ends[:ends.searchsorted(cells, "right")] - 1


_WORD_MASK = (1 << 64) - 1


class _IndexBlocks:
    """Uniform indices below a bound that may change on every draw, taken
    from blocks of ``MUTATION_BLOCK`` 64-bit words of one solver's Generator
    by Lemire's multiply-and-reject method, which is exact."""

    __slots__ = ("next_word",)

    def __init__(self, rng):
        self.next_word = _stream(
            lambda: rng.integers(0, 1 << 64, MUTATION_BLOCK, np.uint64).tolist())

    def below(self, m: int) -> int:
        """Uniform integer in [0, m)."""
        next_word = self.next_word
        while True:
            prod = next_word() * m
            low = prod & _WORD_MASK
            # the threshold ((2^64 - m) mod m) is below m, so it is needed
            # only when low is
            if low >= m or low >= ((1 << 64) - m) % m:
                return prod >> 64


class _RunContext:
    """Per-run item data, the run's bound family and the lexicographic
    (violation, profit) fitness on the hot path."""

    __slots__ = ("n", "inv_n", "profits", "weights", "profit_list",
                 "weight_list", "bound")

    def __init__(self, instance, params: ChanceParams):
        self.n = instance.n
        self.inv_n = 1.0 / instance.n
        self.profits = instance.profit_array()
        self.weights = instance.weight_array()
        self.profit_list = self.profits.tolist()
        self.weight_list = self.weights.tolist()
        self.bound = chance.tail_bound(params, instance.n)

    def lex_violation(self, w: int, k: int, capacity: int) -> float:
        """Violation term of the lexicographic fitness.

        At and above the mean the tail formulas saturate at 1, which would
        leave selection blind to how far overweight a solution is (and let
        profit maximization drag it further from feasibility after a sharp
        capacity drop). Adding the expected-weight overshoot keeps a descent
        direction toward feasibility; below the mean this is exactly
        max{0, violation - alpha}.
        """
        bound = self.bound
        v = bound.tail(w, k, capacity) - bound.alpha
        if v < 0.0:
            return 0.0
        if w > capacity:
            v += w - capacity
        return v

    def lex_run(self, next_flips, incumbent, capacity: int, first: int, end: int):
        """(1+1) steps under lexicographic acceptance at iterations
        ``first`` .. ``end - 1`` from ``incumbent`` = (bits, p, w, k), each
        mutating with one call of ``next_flips``.

        An offspring replaces the incumbent when it is at least as good:
        smaller violation, or equal violation and at least the profit. An
        offspring identical to the incumbent is never kept, since keeping
        it would change nothing. Yields (i, incumbent) after every step
        ``i`` that replaced it, the only steps that change the designated
        solution; a caller that stops iterating takes no further step.
        """
        mutate, lex_violation = self.mutate, self.lex_violation
        bits, p, w, k = incumbent
        v = lex_violation(w, k, capacity)
        for i in range(first, end):
            positions = next_flips()
            if not positions:
                continue
            cp, cw, ck = mutate(bits, p, w, k, positions)
            # a feasible incumbent (v == 0) keeps its place against any
            # lower profit: the offspring's violation cannot be smaller
            if v or cp >= p:
                cv = lex_violation(cw, ck, capacity)
                if cv < v or (cv == v and cp >= p):
                    bits, p, w, k, v = _flipped(bits, positions), cp, cw, ck, cv
                    yield i, (bits, p, w, k)

    def random_solution(self, rng):
        bits = rng.integers(0, 2, self.n, np.uint8)
        return (bytearray(bits), int(bits @ self.profits),
                int(bits @ self.weights), int(bits.sum()))

    def mutate(self, bits, p, w, k, positions):
        """(p, w, k) of the offspring of (bits, p, w, k) that flips
        ``positions``; its bits, ``_flipped(bits, positions)``, are built
        only for an offspring that is kept."""
        pl, wl = self.profit_list, self.weight_list
        for i in positions:
            if bits[i]:
                p -= pl[i]
                w -= wl[i]
                k -= 1
            else:
                p += pl[i]
                w += wl[i]
                k += 1
        return p, w, k


def _flipped(bits: bytearray, positions) -> bytearray:
    """A copy of ``bits`` with ``positions`` flipped."""
    child = bytearray(bits)
    for i in positions:
        child[i] ^= 1
    return child


class OnePlusOneEA:
    """(1+1)-EA with lexicographic (violation, profit) acceptance."""

    name = "ea11"
    stride = 1  # iterations charged per step

    def __init__(self, ctx: _RunContext, rng, capacity: int):
        self.ctx = ctx
        self.next_flips = _replay_flips(rng, ctx.n)
        self.bits, self.p, self.w, self.k = ctx.random_solution(rng)

    def on_change(self, capacity: int):
        # each step call measures the incumbent against its own capacity
        pass

    def step(self, capacity: int, first: int, end: int, record):
        run = self.ctx.lex_run(self.next_flips, (self.bits, self.p, self.w, self.k),
                               capacity, first, end)
        for i, (self.bits, self.p, self.w, self.k) in run:
            record(i)

    def designated_eval(self, capacity: int):
        return self.p, self.ctx.bound.certified(self.w, self.k, capacity)


class _Archive:
    """POSDC's two non-dominated sets over (profit, capacity bound).

    ``members`` holds (bits, p, w, k, cstar) tuples in ascending C*, the
    order parent draws index; the first ``m``, whose C* is below the
    capacity, are S- and the rest S+. No member weakly dominates another of
    its side, so profit rises along C* within a side. ``_c`` and ``_p`` are
    the members' keys in the same order, so a dominance query is a binary
    search within the side of ``cstar < capacity``.
    """

    __slots__ = ("members", "_c", "_p", "m")

    def __init__(self):
        self.members, self._c, self._p = [], [], []
        self.m = 0

    def has_weak_dominator(self, p: int, cstar: float, capacity: int) -> bool:
        # the side's last member with C* <= cstar has the most profit of them
        lo = 0 if cstar < capacity else self.m
        i = bisect_right(self._c, cstar, lo)
        return i > lo and self._p[i - 1] >= p

    def insert(self, bits, p, w, k, cstar, capacity: int):
        """Insert a member in C* order in place of the run of its side's
        members it weakly dominates. The caller must have checked
        ``has_weak_dominator`` first."""
        lo, hi = (0, self.m) if cstar < capacity else (self.m, len(self._p))
        lo = bisect_left(self._c, cstar, lo, hi)
        hi = bisect_right(self._p, p, lo, hi)  # [lo, hi): C* >= cstar, profit <= p
        self.members[lo:hi] = [(bits, p, w, k, cstar)]
        self._c[lo:hi] = [cstar]
        self._p[lo:hi] = [p]
        if cstar < capacity:
            self.m += lo + 1 - hi

    def extend(self, members, capacity: int):
        """Append members whose C* rises from above the last member's, and
        whose profit rises within each side; ``m`` becomes the count of
        members below the capacity."""
        self.members += members
        self._c += [m[4] for m in members]
        self._p += [m[1] for m in members]
        self.m = bisect_left(self._c, capacity)


def _pareto_keep_mask(p) -> list:
    """Mask of the members that no other weakly dominates, for profits
    listed in ascending, distinct C*: a running profit maximum."""
    keep = []
    best = -math.inf
    for q in p:
        keep.append(q > best)
        best = max(best, q)
    return keep


class Posdc:
    """Pareto tracker of two archive sides around the moving capacity.

    Until the initial random solution (or a repaired descendant of it) lands
    inside [C - eta, C + eta], every step is a lexicographic (1+1)-EA repair
    step; ``_end_repair`` checks that at construction, after each accepted
    repair step and at each capacity change. Afterwards steps mutate a
    uniformly chosen archive member and insert the offspring into its side
    of ``archive`` unless weakly dominated there.

    Mutation, repair included, reads a flip stream drawn from geometric gaps.
    An archive step whose iteration flips nothing is skipped before its
    parent draw: its offspring would duplicate an archived member, which
    weakly dominates it, so the step could change nothing. Skipping it is
    exact in distribution.

    The sides follow the paper's windows: S- is [C - eta, C) and S+ is
    [C, C + eta], so a member with C* exactly C stays in S+. It is designated
    only when S- is empty, as the smallest C* of S+, although C* <= C
    counts it as feasible.
    """

    name = "posdc"
    stride = 1

    def __init__(self, ctx: _RunContext, rng, capacity: int, eta: int):
        if eta < 1:
            raise ValueError("eta must be >= 1")
        self.ctx = ctx
        self.next_flips = _gap_flips(rng, ctx.n)
        self.parents = _IndexBlocks(rng)
        self.eta = eta
        self.repair_steps = 0
        self.archive = _Archive()
        self.repair = ctx.random_solution(rng)
        self._end_repair(capacity)

    # -- archive plumbing ----------------------------------------------------

    def _end_repair(self, capacity: int) -> bool:
        """Seed the archive with the repair incumbent, and end the repair,
        when its C* lies in [C - eta, C + eta]."""
        bits, p, w, k = self.repair
        cstar = self.ctx.bound.cstar(w, k)
        if not capacity - self.eta <= cstar <= capacity + self.eta:
            return False
        self.repair = None
        self.archive.insert(bits, p, w, k, cstar, capacity)
        return True

    def archive_size(self) -> int:
        return len(self.archive.members)

    # -- designation and archive queries ---------------------------------------

    def best(self):
        """Designated solution: highest profit in S-, else smallest C* in S+.

        Returns (bits, profit, expected_weight_sum, count, cstar); raises when
        the archive is empty (still repairing).
        """
        members, m = self.archive.members, self.archive.m
        if not members:
            raise RuntimeError("POSDC archive is empty (repair still running)")
        return members[m - 1] if m else members[0]

    def step(self, capacity: int, first: int, end: int, record):
        if self.repair is not None:
            first = self._repair(capacity, first, end, record)
        ctx, next_flips = self.ctx, self.next_flips
        mutate, cstar, below = ctx.mutate, ctx.bound.cstar, self.parents.below
        arc = self.archive
        dominated, insert = arc.has_weak_dominator, arc.insert
        members = arc.members  # changes in place until the next ``on_change``
        low, high = capacity - self.eta, capacity + self.eta
        for i in range(first, end):
            positions = next_flips()
            # no flip leaves a duplicate of an archived member, which is
            # always weakly dominated: the step changes nothing, so it draws
            # no parent
            if not positions:
                continue
            parent, p, w, k, _ = members[below(len(members))]
            p, w, k = mutate(parent, p, w, k, positions)
            c = cstar(w, k)
            if low <= c <= high and not dominated(p, c, capacity):
                insert(_flipped(parent, positions), p, w, k, c, capacity)
                # an S+ insert changes the designation only when S- is empty
                if c < capacity or not arc.m:
                    record(i)

    def _repair(self, capacity: int, first: int, end: int, record) -> int:
        """Lexicographic repair steps from ``first`` until ``_end_repair``
        seeds the archive, or until ``end``. Records after each accepted
        repair step, the only steps that change the designated solution;
        returns the iteration after the last repair step, and raises in
        place of step ``REPAIR_STEP_CAP + 1``."""
        stop = min(end, first + REPAIR_STEP_CAP - self.repair_steps)
        run = self.ctx.lex_run(self.next_flips, self.repair, capacity, first, stop)
        for i, self.repair in run:
            seeded = self._end_repair(capacity)
            record(i)
            if seeded:
                self.repair_steps += i + 1 - first
                return i + 1
        self.repair_steps += stop - first
        if stop < end:
            self.repair_steps += 1
            raise RuntimeError(
                f"POSDC repair did not reach the window within {REPAIR_STEP_CAP} steps")
        return end

    def on_change(self, capacity: int):
        """Re-partition the archive against the shifted capacity, dropping
        members outside the new window; if nothing survives, the previously
        designated solution reseeds the archive even when out of window.
        While repairing, the archive is empty and the incumbent seeds it if
        the new window holds it."""
        if self.repair is not None:
            self._end_repair(capacity)
            return
        designated = self.best()
        # the members are in ascending C*, so the new window and its sides
        # are runs of them
        members, cs = self.archive.members, self.archive._c
        lo = bisect_left(cs, capacity - self.eta)
        mid = bisect_left(cs, capacity, lo)
        hi = bisect_right(cs, capacity + self.eta, mid)
        self.archive = arc = _Archive()
        for run in (members[lo:mid], members[mid:hi]):
            keep = _pareto_keep_mask([row[1] for row in run])
            arc.extend([row for row, kept in zip(run, keep) if kept], capacity)
        if not arc.members:
            arc.insert(*designated, capacity)

    def designated_eval(self, capacity: int):
        # the repair incumbent (bits, p, w, k), else the archive's designated
        # member (bits, p, w, k, cstar)
        _, p, w, k, *_ = self.repair or self.best()
        return p, self.ctx.bound.certified(w, k, capacity)


def _fronts(ps, cs, order):
    """Fronts of the points of objectives ``ps``, ``cs`` (profit up, bound down), one
    per ``next`` by depth, in ascending index order. ``order`` lists them by falling
    profit, then rising bound; each pass peels one front, keeping a point whose bound
    is below that of every point kept before it, or that duplicates the last one kept."""
    while order:
        front, rest = [], []
        last_p, last_c = ps[order[0]], cs[order[0]]  # the first point is kept
        for i in order:
            c = cs[i]
            if c < last_c or c == last_c and ps[i] == last_p:
                front.append(i)
                last_p, last_c = ps[i], c
            else:
                rest.append(i)
        yield sorted(front)
        order = rest


def fast_nondominated_sort(profits, cap_bounds):
    """Index arrays of the fronts by depth (see ``_fronts``)."""
    p, c = np.asarray(profits, np.float64), np.asarray(cap_bounds, np.float64)
    return [np.array(f, np.int64) for f in _fronts(p.tolist(), c.tolist(),
                                                   np.lexsort((c, -p)).tolist())]


def crowding_distances(profits, cap_bounds) -> list:
    """Crowding distance of each member of one non-dominated front, given as
    two sequences; boundary members get +inf.

    Along a front profit and capacity bound rise together, and equal profit
    forces an equal bound (the other member would dominate), so one stable
    sort by profit orders both objectives, ties included.
    """
    m = len(profits)
    d = [math.inf] * m
    if m > 2:
        order = sorted(range(m), key=profits.__getitem__)
        lo, hi = order[0], order[-1]
        # zero spreads mean a front of equal members, whose differences are 0
        p_spread = profits[hi] - profits[lo] or 1
        c_spread = cap_bounds[hi] - cap_bounds[lo] or 1
        a, i = lo, order[1]  # each member between its two neighbours
        for b in order[2:]:
            d[i] = ((profits[b] - profits[a]) / p_spread
                    + (cap_bounds[b] - cap_bounds[a]) / c_spread)
            a, i = i, b
    return d


class Nsga2:
    """NSGA-II on (profit up, capacity bound C* down) with a tracked best
    feasible solution for the current capacity: the most profitable one seen
    with C* <= C. Without one, the designated solution is the population's
    smallest C*, the most profitable among equals.

    Each individual's (profit, expected weight, item count) is one row of the
    int64 matrix ``pwk`` (columns ``p``, ``w``, ``k``). Survival peels the
    fronts of parents and children (``_fronts``) only until ``pop_size`` are
    chosen, nearly always from one front, and keeps the survivors' ranks,
    crowding distances and tournament keys: the objectives do not depend on
    the capacity, so these are the survivors' own (Deb et al., IEEE TEC 6(2),
    2002). A generation calls no Generator: it reads one item of a stream
    built after the initial population, whose blocks (``_draw_block``) hold
    the tournament ints, crossover decisions, mask words and mutation flips
    of ``MUTATION_BLOCK // pop_size`` generations, one call of each kind.
    """

    name = "nsga2"
    pop_size = 20
    stride = pop_size  # one step is one generation
    crossover_rate = 0.9

    def __init__(self, ctx: _RunContext, rng, capacity: int):
        self.ctx = ctx
        # columns profit, weight, 1: evaluation is one float64 BLAS product,
        # exact while totals stay below 2**53, which ``Instance`` enforces
        self._totals = np.column_stack(
            [ctx.profits, ctx.weights, np.ones(ctx.n)]).astype(np.float64)
        self.bits = rng.integers(0, 2, (self.pop_size, ctx.n), np.uint8)
        # bound to the class, not to self: a stream that held self would make
        # a reference cycle, and finished solvers would wait for the collector
        self._draws = _stream(partial(self._draw_block, rng, ctx))
        self._evaluate_population()
        self.best_feasible = None  # (profit, w, k, bits copy)
        self.generations = 0
        self._consider(self.bits, self.pwk, self.p.tolist(), self.cstar.tolist(), capacity)

    @classmethod
    def _draw_block(cls, rng, ctx: _RunContext):
        """The draws of ``MUTATION_BLOCK // pop_size`` generations, one
        Generator call of each kind: tournament ints, crossover decisions,
        raw 64-bit mask words (mask bit j is bit j % 64 of word j // 64,
        every word 0 for a pair that does not cross), then mutation gaps over
        the block's cells, generation-major. One item per generation: its
        tournament pairs, its (pop // 2, n) masks and its ascending flip
        positions in its pop * n cells."""
        pop, n = cls.pop_size, ctx.n
        gens, cells = MUTATION_BLOCK // pop, pop * n
        pairs = rng.integers(0, pop, gens * 2 * pop).reshape(gens, pop, 2).tolist()
        crosses = rng.random((gens, pop // 2))
        words = rng.bit_generator.random_raw((gens, pop // 2, -(-n // 64)))
        words[crosses >= cls.crossover_rate] = 0
        masks = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), axis=2,
                              count=n, bitorder="little")
        hits = _flip_positions(rng, gens * cells, ctx.inv_n)
        cuts = hits.searchsorted(np.arange(gens + 1) * cells).tolist()
        hits %= cells
        return [(pairs[g], masks[g], hits[a:b])
                for g, (a, b) in enumerate(zip(cuts, cuts[1:]))]

    def _evaluate(self, bits):
        """The (profit, expected weight, item count) rows of ``bits`` as one
        int64 matrix, and the C* of each row."""
        pwk = np.dot(bits, self._totals).astype(np.int64)
        return pwk, self.ctx.bound.cstar_array(pwk[:, 1], pwk[:, 2])

    def _evaluate_population(self):
        """Evaluate ``bits`` and rank the population from scratch."""
        self.pwk, self.cstar = self._evaluate(self.bits)
        ranks, crowd = [0] * self.pop_size, [0.0] * self.pop_size
        for depth, front in enumerate(fast_nondominated_sort(self.p, self.cstar)):
            distances = crowding_distances(self.p[front].tolist(), self.cstar[front].tolist())
            for i, d in zip(front.tolist(), distances):
                ranks[i], crowd[i] = depth, d
        self._rank(ranks, crowd)

    def _rank(self, ranks, crowd):
        """Keep the ranks and crowding distances, and the tournament keys, the
        lower of which wins: (rank, -crowding), or while every rank is 0 (the
        usual case) -crowding alone, which orders the same and compares faster."""
        self.ranks, self.crowd = ranks, crowd
        keys = [-d for d in crowd]
        self.keys = list(zip(ranks, keys)) if any(ranks) else keys

    p = property(lambda self: self.pwk[:, 0])
    w = property(lambda self: self.pwk[:, 1])
    k = property(lambda self: self.pwk[:, 2])

    def _consider(self, bits, pwk, ps, cs, capacity) -> bool:
        """Track the first row of the highest profit with C* <= C, if it beats
        the tracked best feasible (profits are never negative); returns whether
        it did. ``ps`` and ``cs`` are the profits and C* of the rows of ``bits``
        and ``pwk``, as lists."""
        best, j = -1 if self.best_feasible is None else self.best_feasible[0], -1
        for i in range(len(ps)):
            if ps[i] > best and cs[i] <= capacity:
                best, j = ps[i], i
        if j >= 0:
            self.best_feasible = (*pwk[j].tolist(), bits[j].copy())
        return j >= 0

    def step(self, capacity: int, first: int, end: int, record):
        # the designated solution is the tracked best feasible, which changes
        # only when replaced, or else follows the population
        for i in range(first, end, self.stride):
            if self.generation(capacity) or self.best_feasible is None:
                record(i)

    def generation(self, capacity: int) -> bool:
        """One generation; returns whether it replaced the best feasible."""
        pop = self.pop_size
        pairs, mix, flips = self._draws()

        # binary tournaments: the lower key wins, a on ties
        keys = self.keys
        winners = [a if keys[a] <= keys[b] else b for a, b in pairs]
        children = self.bits.take(winners, axis=0)

        # uniform crossover on consecutive pairs as a masked XOR swap (an
        # all-zero mask for a pair that does not cross), then 1/n mutation,
        # in place
        mix &= children[0::2] ^ children[1::2]
        children ^= mix.repeat(2, axis=0)
        children.ravel()[flips] ^= 1

        # the merged population: parents, then children
        pwk, cstar = self._evaluate(children)
        all_pwk = np.concatenate([self.pwk, pwk])
        all_c = np.concatenate([self.cstar, cstar])
        ps, cs = all_pwk[:, 0].tolist(), all_c.tolist()
        replaced = self._consider(children, pwk, ps[pop:], cs[pop:], capacity)

        # elitist survival: whole fronts by depth, then the most crowding-distant
        # of the one that overflows; a front is a run of ``chosen`` in the order
        # a fresh sort of the survivors lists it, which crowding's ties follow
        chosen, ranks, crowd = [], [], []
        order = np.lexsort((all_c, -all_pwk[:, 0])).tolist()
        for depth, front in enumerate(_fronts(ps, cs, order)):
            room = pop - len(chosen)
            if len(front) > room:
                # a front of every point (the usual case) is ``ps`` and ``cs`` as they are
                cd = crowding_distances(*((ps, cs) if len(front) == len(ps) else (
                    [ps[i] for i in front], [cs[i] for i in front])))
                most = sorted(range(len(front)), key=cd.__getitem__, reverse=True)
                front = [front[i] for i in most[:room]]  # stable: ties keep order
            chosen += front
            ranks += [depth] * len(front)
            crowd += crowding_distances([ps[i] for i in front], [cs[i] for i in front])
            if len(chosen) == pop:
                break
        self._rank(ranks, crowd)
        chosen = np.array(chosen)
        self.bits = np.concatenate([self.bits, children]).take(chosen, axis=0)
        self.pwk = all_pwk.take(chosen, axis=0)
        self.cstar = all_c.take(chosen)
        self.generations += 1
        return replaced

    def on_change(self, capacity: int):
        self.best_feasible = None
        self._consider(self.bits, self.pwk, self.p.tolist(), self.cstar.tolist(), capacity)

    def designated_eval(self, capacity: int):
        bound = self.ctx.bound
        if self.best_feasible is not None:
            p, w, k, _ = self.best_feasible
            return p, bound.certified(w, k, capacity)
        j = np.lexsort((-self.p, self.cstar))[0]  # smallest C*, then most profit
        return int(self.p[j]), bound.certified(int(self.w[j]), int(self.k[j]), capacity)


ALGORITHMS = ("ea11", "posdc", "nsga2")


def _make_solver(algo: str, ctx, rng, capacity: int, eta: int):
    if algo == "ea11":
        return OnePlusOneEA(ctx, rng, capacity)
    if algo == "posdc":
        return Posdc(ctx, rng, capacity, eta)
    if algo == "nsga2":
        return Nsga2(ctx, rng, capacity)
    raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")


def run_algorithm(algo: str, instance, schedule, params: ChanceParams, dp_table,
                  seed: int) -> metrics.RunRecord:
    """Run one algorithm through a capacity schedule.

    Each solver step is charged ``stride`` iterations and starts on a
    multiple of it; one ``step`` call takes the steps of one capacity.
    Scheduled capacity changes apply at the start of their iteration; one
    that falls inside a step is scored at once, and the solver sees it just
    before its next step. The designated best solution's offline error is
    scored on every post-warmup iteration, but re-evaluated only at records:
    this loop records the start of each stretch (after ``on_change``,
    before the first step), and the solver records after each step that may
    have changed its designated solution, which supersedes the record at
    that iteration. The log keeps one interval per run of equal values.
    Fully deterministic for fixed inputs.
    """
    if params.delta != instance.delta:
        raise ValueError(
            f"params.delta={params.delta} does not match instance delta={instance.delta}")
    if len(dp_table) <= schedule.c_max:
        raise ValueError("DP table does not cover the schedule's capacity range")
    total = schedule.total_iters
    warmup = schedule.warmup
    measured = total - warmup
    if measured <= 0:
        raise ValueError("schedule has no post-warmup iterations; "
                         "total offline error is undefined")

    rng = np.random.default_rng(seed)
    ctx = _RunContext(instance, params)
    capacity = schedule.c0
    solver = _make_solver(algo, ctx, rng, capacity, schedule.r)
    recorder = metrics.OfflineErrorRecorder(warmup, measured, params.alpha)
    p_star = int(dp_table[capacity])

    def record(i):
        recorder.record(i, p_star, *solver.designated_eval(capacity), capacity)

    # one segment per capacity, from (iteration, capacity in force from it
    # on); None keeps the initial capacity
    changes = list(zip(schedule.change_iters.tolist(),
                       schedule.change_caps.tolist()))
    if not changes or changes[0][0] != 0:
        changes.insert(0, (0, None))
    ends = [it for it, _ in changes[1:]] + [total]
    step, stride = solver.step, solver.stride
    for (start, new_capacity), end in zip(changes, ends):
        first = start + -start % stride  # the solver's first step from here on
        if new_capacity is not None:
            capacity = new_capacity
            p_star = int(dp_table[capacity])
            if first != start:  # a change inside a step is scored at once
                record(start)
                if first >= end:
                    continue  # the next change comes before the next step
            solver.on_change(capacity)
        record(first)
        step(capacity, first, end, record)

    log = recorder.log()
    spans = np.diff(log.starts, append=log.length)  # iterations per entry, counted exactly
    feasible = log.columns["violation"] <= params.alpha  # as ``offline_error`` decides
    return metrics.RunRecord(
        run_seed=seed,
        intervals=log,
        total_offline_error=metrics.total_offline_error(log.series("phi")),
        feasible_fraction=int(spans[feasible].sum()) / log.length,
        change_count=schedule.change_count,
        evaluations=-(-total // stride) * stride,  # a truncated last step in full
    )
