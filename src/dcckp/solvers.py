"""Evolutionary solvers for the dynamic chance-constrained knapsack.

Three algorithms share the same iteration currency (one fitness evaluation
per iteration):

* ``OnePlusOneEA`` -- single incumbent, standard bit mutation (each bit
  flips with probability 1/n), lexicographic (constraint violation, profit)
  acceptance.
* ``Posdc`` -- dual non-dominated archives around the current capacity: S-
  holds solutions whose capacity bound sits in [C - eta, C), S+ those in
  [C, C + eta]. Keeping the infeasible side warm is what lets the search
  react when the capacity shifts.
* ``Nsga2`` -- population of 20 on the objectives (profit up, capacity bound
  C* down), feasible when C* <= C, a two-objective sweep for non-dominated
  sorting whose survival ranks serve the next generation's tournaments,
  crowding distance by one sort per front, uniform crossover as a masked XOR
  swap and 1/n mutation; one generation is charged 20 iterations.

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
keep their state in locals for the whole stretch. Mutation yields the
offspring's profit, weight and item count without building its bits, which
are copied from the parent only when the offspring is kept, and a feasible
incumbent rejects a lower-profit offspring without evaluating the bound
(violations are never negative, so this is exact).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

from . import chance, metrics
from .chance import ChanceParams

REPAIR_STEP_CAP = 10 ** 6
MUTATION_BLOCK = 256  # iterations of standard bit mutation drawn at once


class _FlipBlocks:
    """Flip positions of standard bit mutation, drawn ``MUTATION_BLOCK``
    iterations at a time from one solver's Generator.

    A block is n * MUTATION_BLOCK uniforms, n per iteration in iteration
    order, and bit i of an iteration flips when its uniform is below 1/n.
    That is exactly the stream of one ``rng.random(n)`` per iteration, so a
    solver that draws nothing else between mutations follows the same
    trajectory as with a per-iteration draw; the uniforms cost a few ns each
    in one vectorised call, and the per-iteration Python work does not grow
    with n. ``_RunContext.mutate`` reads the block: iteration ``t`` of it
    flips ``positions[starts[t]:starts[t + 1]]``, ascending.
    """

    __slots__ = ("rng", "n", "starts", "positions", "t")

    def __init__(self, rng, n: int):
        self.rng = rng
        self.n = n
        self.t = MUTATION_BLOCK  # the first read fills a block

    def fill(self):
        n = self.n
        hits = np.flatnonzero(self.rng.random(n * MUTATION_BLOCK) < 1.0 / n)
        iteration = hits // n
        self.positions = (hits - iteration * n).tolist()
        self.starts = np.searchsorted(
            iteration, np.arange(MUTATION_BLOCK + 1)).tolist()


_WORD_MASK = (1 << 64) - 1


class _IndexBlocks:
    """Uniform indices below a bound that may change on every draw, taken
    from blocks of ``MUTATION_BLOCK`` 64-bit words of one solver's Generator
    by Lemire's multiply-and-reject method, which is exact."""

    __slots__ = ("rng", "_words", "_next")

    def __init__(self, rng):
        self.rng = rng
        self._words = []
        self._next = MUTATION_BLOCK  # the first draw fills a block

    def below(self, m: int) -> int:
        """Uniform integer in [0, m)."""
        words, i = self._words, self._next
        while True:
            if i == MUTATION_BLOCK:
                words = self._words = self.rng.integers(
                    0, 1 << 64, MUTATION_BLOCK, np.uint64).tolist()
                i = 0
            prod = words[i] * m
            i += 1
            low = prod & _WORD_MASK
            # the threshold ((2^64 - m) mod m) is below m, so it is needed
            # only when low is
            if low >= m or low >= ((1 << 64) - m) % m:
                self._next = i
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

    def lex_run(self, flips: _FlipBlocks, incumbent, capacity: int,
                first: int, end: int):
        """(1+1) steps under lexicographic acceptance at iterations
        ``first`` .. ``end - 1`` from ``incumbent`` = (bits, p, w, k).

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
            child = mutate(flips, bits, p, w, k)
            # a feasible incumbent (v == 0) keeps its place against any
            # lower profit: the offspring's violation cannot be smaller
            if child is not None and (v or child[1] >= p):
                positions, cp, cw, ck = child
                cv = lex_violation(cw, ck, capacity)
                if cv < v or (cv == v and cp >= p):
                    bits, p, w, k, v = _flipped(bits, positions), cp, cw, ck, cv
                    yield i, (bits, p, w, k)

    def random_solution(self, rng):
        bits = rng.integers(0, 2, self.n, np.uint8)
        return (bytearray(bits), int(bits @ self.profits),
                int(bits @ self.weights), int(bits.sum()))

    def mutate(self, flips: _FlipBlocks, bits, p, w, k):
        """Standard bit mutation of (bits, p, w, k) with the next
        iteration's positions of the solver's ``flips``.

        Returns (positions, p, w, k) of the offspring, whose bits are
        ``_flipped(bits, positions)``; they are built only for an offspring
        that is kept. Returns None when no bit flips (the offspring is an
        exact copy).
        """
        t = flips.t
        if t == MUTATION_BLOCK:
            flips.fill()
            t = 0
        flips.t = t + 1
        starts = flips.starts
        a = starts[t]
        b = starts[t + 1]
        if a == b:
            return None
        positions = flips.positions[a:b]
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
        return positions, p, w, k


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
        self.flips = _FlipBlocks(rng, ctx.n)
        self.bits, self.p, self.w, self.k = ctx.random_solution(rng)

    def on_change(self, capacity: int):
        # each step call measures the incumbent against its own capacity
        pass

    def step(self, capacity: int, first: int, end: int, record):
        run = self.ctx.lex_run(self.flips, (self.bits, self.p, self.w, self.k),
                               capacity, first, end)
        for i, (self.bits, self.p, self.w, self.k) in run:
            record(i)

    def designated_eval(self, capacity: int):
        return self.p, self.ctx.bound.certified(self.w, self.k, capacity)


class _Archive:
    """Non-dominated store over (profit, capacity bound).

    ``members`` holds (bits, p, w, k, cstar) tuples in ascending C*, the
    order parent draws index. No member weakly dominates another, so profit
    rises along C* too: the last member has the most profit and the first
    the smallest C*. ``_c`` and ``_p`` are the members' keys in the same
    order, so a dominance query is a binary search.
    """

    __slots__ = ("members", "_c", "_p")

    def __init__(self):
        self.members, self._c, self._p = [], [], []

    @property
    def size(self) -> int:
        return len(self.members)

    def has_weak_dominator(self, p: int, cstar: float) -> bool:
        # the last member with C* <= cstar has the most profit among them
        i = bisect_right(self._c, cstar)
        return i > 0 and self._p[i - 1] >= p

    def insert(self, bits, p, w, k, cstar):
        """Insert a member in C* order in place of the run of members it
        weakly dominates. The caller must have checked
        ``has_weak_dominator`` first."""
        lo = bisect_left(self._c, cstar)
        hi = bisect_right(self._p, p, lo)  # [lo, hi): C* >= cstar, profit <= p
        self.members[lo:hi] = [(bits, p, w, k, cstar)]
        self._c[lo:hi] = [cstar]
        self._p[lo:hi] = [p]

    def extend(self, members):
        """Append members that continue the front: C* and profit both rise
        along them, from above the last member's."""
        self.members += members
        self._c += [m[4] for m in members]
        self._p += [m[1] for m in members]


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
    """Dual-archive Pareto tracker around the moving capacity.

    Until the initial random solution (or a repaired descendant of it) lands
    inside [C - eta, C + eta], every step is a lexicographic (1+1)-EA repair
    step; ``_end_repair`` checks that at construction, after each accepted
    repair step and at each capacity change. Afterwards steps mutate a
    uniformly chosen archive member and insert the offspring into the
    matching window side unless weakly dominated.
    """

    name = "posdc"
    stride = 1

    def __init__(self, ctx: _RunContext, rng, capacity: int, eta: int):
        if eta < 1:
            raise ValueError("eta must be >= 1")
        self.ctx = ctx
        self.flips = _FlipBlocks(rng, ctx.n)
        self.parents = _IndexBlocks(rng)
        self.eta = eta
        self.repair_steps = 0
        self.s_minus = _Archive()
        self.s_plus = _Archive()
        self.repair = ctx.random_solution(rng)
        self._end_repair(capacity)

    # -- archive plumbing ----------------------------------------------------

    def _seed(self, bits, p, w, k, cstar, capacity):
        side = self.s_minus if cstar < capacity else self.s_plus
        side.insert(bits, p, w, k, cstar)

    def _end_repair(self, capacity: int) -> bool:
        """Seed the archive with the repair incumbent, and end the repair,
        when its C* lies in [C - eta, C + eta]."""
        bits, p, w, k = self.repair
        cstar = self.ctx.bound.cstar(w, k)
        if not capacity - self.eta <= cstar <= capacity + self.eta:
            return False
        self.repair = None
        self._seed(bits, p, w, k, cstar, capacity)
        return True

    def archive_size(self) -> int:
        return self.s_minus.size + self.s_plus.size

    # -- designation and archive queries ---------------------------------------

    def best(self):
        """Designated solution: highest profit in S-, else smallest C* in S+.

        Returns (bits, profit, expected_weight_sum, count, cstar); raises when
        both archives are empty (still repairing).
        """
        if self.s_minus.members:
            return self.s_minus.members[-1]
        if self.s_plus.members:
            return self.s_plus.members[0]
        raise RuntimeError("POSDC archives are empty (repair still running)")

    def step(self, capacity: int, first: int, end: int, record):
        if self.repair is not None:
            first = self._repair(capacity, first, end, record)
        ctx, flips = self.ctx, self.flips
        mutate, cstar, below = ctx.mutate, ctx.bound.cstar, self.parents.below
        sm, sp = self.s_minus, self.s_plus
        minus_dominated, plus_dominated = sm.has_weak_dominator, sp.has_weak_dominator
        # the lists change in place until the next ``on_change``
        minus, plus = sm.members, sp.members
        low, high = capacity - self.eta, capacity + self.eta
        m = len(minus)
        size = m + len(plus)
        for i in range(first, end):
            j = below(size)
            parent, p, w, k, _ = minus[j] if j < m else plus[j - m]
            child = mutate(flips, parent, p, w, k)
            # no flip leaves a duplicate of an archived member, which is
            # always weakly dominated
            if child is not None:
                positions, p, w, k = child
                c = cstar(w, k)
                if low <= c < capacity:
                    if not minus_dominated(p, c):
                        sm.insert(_flipped(parent, positions), p, w, k, c)
                        m = len(minus)
                        size = m + len(plus)
                        record(i)
                elif capacity <= c <= high and not plus_dominated(p, c):
                    sp.insert(_flipped(parent, positions), p, w, k, c)
                    size = m + len(plus)
                    if not m:
                        record(i)

    def _repair(self, capacity: int, first: int, end: int, record) -> int:
        """Lexicographic repair steps from ``first`` until ``_end_repair``
        seeds the archive, or until ``end``. Records after each accepted
        repair step, the only steps that change the designated solution;
        returns the iteration after the last repair step, and raises in
        place of step ``REPAIR_STEP_CAP + 1``."""
        stop = min(end, first + REPAIR_STEP_CAP - self.repair_steps)
        run = self.ctx.lex_run(self.flips, self.repair, capacity, first, stop)
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
        """Re-partition both archives against the shifted capacity, dropping
        members outside the new window; if nothing survives, the previously
        designated solution reseeds the archive even when out of window.
        While repairing, the archives are empty and the incumbent seeds
        them if the new window holds it."""
        if self.repair is not None:
            self._end_repair(capacity)
            return
        designated = self.best()
        # every S- member's C* is below every S+ member's, so S- then S+ is
        # one list in ascending C*; the new window and its sides are runs
        members = self.s_minus.members + self.s_plus.members
        cs = self.s_minus._c + self.s_plus._c
        lo = bisect_left(cs, capacity - self.eta)
        mid = bisect_left(cs, capacity, lo)
        hi = bisect_right(cs, capacity + self.eta, mid)
        self.s_minus = _Archive()
        self.s_plus = _Archive()
        for side, run in ((self.s_minus, members[lo:mid]),
                          (self.s_plus, members[mid:hi])):
            keep = _pareto_keep_mask([row[1] for row in run])
            side.extend([row for row, kept in zip(run, keep) if kept])
        if self.archive_size() == 0:
            self._seed(*designated, capacity)

    def designated_eval(self, capacity: int):
        # the repair incumbent (bits, p, w, k), else the archive's designated
        # member (bits, p, w, k, cstar)
        _, p, w, k, *_ = self.repair or self.best()
        return p, self.ctx.bound.certified(w, k, capacity)


def _fronts(profits, cap_bounds) -> list:
    """Indices of each front under (maximize profit, minimize capacity
    bound), by depth, ascending within each front; takes numpy arrays.

    A sweep for two objectives (Jensen, IEEE TEC 7(5), 2003): points are
    visited by falling profit, then rising bound, and each joins the first
    front whose latest member does not dominate it, which is the first whose
    latest bound exceeds its own, since every earlier point has at least its
    profit; an exact duplicate joins its twin's front, visited just before.
    The latest bounds stay sorted, so a binary search places each point.
    """
    ps, cs = profits.tolist(), cap_bounds.tolist()
    fronts, latest = [], []
    last_p = last_c = None
    for i in np.lexsort((cap_bounds, -profits)).tolist():
        p, c = ps[i], cs[i]
        if c != last_c or p != last_p:
            depth = bisect_right(latest, c)
            if depth == len(latest):  # a new front
                latest.append(c)
                fronts.append([])
            latest[depth] = c
            last_p, last_c = p, c
        fronts[depth].append(i)
    for front in fronts:
        front.sort()
    return fronts


def fast_nondominated_sort(profits, cap_bounds):
    """Front indices under (maximize profit, minimize capacity bound), each
    front in ascending index order."""
    fronts = _fronts(np.asarray(profits, np.float64), np.asarray(cap_bounds, np.float64))
    return [np.array(front, np.int64) for front in fronts]


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
        for a, i, b in zip(order, order[1:], order[2:]):
            d[i] = ((profits[b] - profits[a]) / p_spread
                    + (cap_bounds[b] - cap_bounds[a]) / c_spread)
    return d


class Nsga2:
    """NSGA-II on (profit up, capacity bound C* down) with a tracked best
    feasible solution for the current capacity: the most profitable one seen
    with C* <= C. Without one, the designated solution is the population's
    smallest C*, the most profitable among equals.

    Each individual's (profit, expected weight, item count) is one row of the
    int64 matrix ``pwk`` (``p``, ``w`` and ``k`` are its columns), so survival
    moves all three with one gather. Front ranks and crowding distances, one
    sort per front, are kept between generations (``ranks``, ``crowd``): the
    objectives do not depend on the capacity, so the survivors' ranks among
    parents and children are their ranks among themselves (Deb et al., IEEE
    TEC 6(2), 2002), and the next tournaments need no sort of their own.
    """

    name = "nsga2"
    pop_size = 20
    stride = pop_size  # one step is one generation
    crossover_rate = 0.9

    def __init__(self, ctx: _RunContext, rng, capacity: int):
        self.ctx = ctx
        self.rng = rng
        # columns profit, weight, 1: evaluation is one float64 BLAS matmul,
        # exact while totals stay below 2**53, which ``Instance`` enforces
        self._totals = np.column_stack(
            [ctx.profits, ctx.weights, np.ones(ctx.n)]).astype(np.float64)
        self.bits = rng.integers(0, 2, (self.pop_size, ctx.n), np.uint8)
        self._evaluate_population()
        self.best_feasible = None  # (profit, w, k, bits copy)
        self.generations = 0
        self._consider(self.bits, self.p, self.w, self.k, self.cstar, capacity)

    def _evaluate(self, bits):
        """The (profit, expected weight, item count) rows of ``bits`` as one
        int64 matrix, and the C* of each row."""
        pwk = (bits @ self._totals).astype(np.int64)
        return pwk, self.ctx.bound.cstar_array(pwk[:, 1], pwk[:, 2])

    def _evaluate_population(self):
        """Evaluate ``bits`` and rank the population from scratch."""
        self.pwk, self.cstar = self._evaluate(self.bits)
        self.ranks, self.crowd = [0] * self.pop_size, [0.0] * self.pop_size
        ps, cs = self.p.tolist(), self.cstar.tolist()
        for depth, front in enumerate(_fronts(self.p, self.cstar)):
            distances = crowding_distances([ps[i] for i in front], [cs[i] for i in front])
            for i, d in zip(front, distances):
                self.ranks[i], self.crowd[i] = depth, d

    p = property(lambda self: self.pwk[:, 0])
    w = property(lambda self: self.pwk[:, 1])
    k = property(lambda self: self.pwk[:, 2])

    def _consider(self, bits, p, w, k, cstar, capacity) -> bool:
        """Fold freshly evaluated individuals into the tracked best feasible:
        the first row of the highest profit among those with C* <= C, if it
        beats the tracked one; returns whether it was replaced."""
        best = self.best_feasible
        # profits are never negative, so -1 marks the infeasible rows
        feasible = np.where(cstar <= capacity, p, -1)
        j = feasible.argmax()
        if feasible[j] <= (-1 if best is None else best[0]):
            return False
        self.best_feasible = (int(p[j]), int(w[j]), int(k[j]), bits[j].copy())
        return True

    def step(self, capacity: int, first: int, end: int, record):
        # the designated solution is the tracked best feasible, which changes
        # only when replaced, or else follows the population
        for i in range(first, end, self.stride):
            if self.generation(capacity) or self.best_feasible is None:
                record(i)

    def generation(self, capacity: int) -> bool:
        """One generation; returns whether it replaced the best feasible."""
        rng = self.rng
        pop, n = self.pop_size, self.ctx.n

        # binary tournaments: the lower (rank, -crowding) wins, a on ties
        key = list(zip(self.ranks, [-d for d in self.crowd]))
        winners = [a if key[a] <= key[b] else b
                   for a, b in rng.integers(0, pop, size=(pop, 2)).tolist()]
        children = self.bits.take(winners, axis=0)

        # uniform crossover on consecutive pairs (a masked XOR swap), then
        # 1/n mutation, both in place on the tournament's copy
        do_cross = rng.random(pop // 2) < self.crossover_rate
        mix = (rng.random((pop // 2, n)) < 0.5) & do_cross[:, None]
        pairs = children.reshape(pop // 2, 2, n)
        pairs ^= ((pairs[:, 0] ^ pairs[:, 1]) & mix)[:, None]
        children ^= (rng.random((pop, n)) < self.ctx.inv_n).view(np.uint8)

        pwk, cstar = self._evaluate(children)
        replaced = self._consider(children, pwk[:, 0], pwk[:, 1], pwk[:, 2], cstar, capacity)

        # elitist survival over parents + children: whole fronts by depth,
        # then the most crowding-distant members of the front that overflows,
        # which is measured again on its chosen members. Each front is a run
        # of ``chosen`` in the order a fresh sort of the survivors would list
        # it, the order by which crowding's stable sort breaks ties
        all_pwk = np.concatenate([self.pwk, pwk])
        all_c = np.concatenate([self.cstar, cstar])
        ps, cs = all_pwk[:, 0].tolist(), all_c.tolist()
        chosen, self.ranks, self.crowd = [], [], []
        for depth, front in enumerate(_fronts(all_pwk[:, 0], all_c)):
            room = pop - len(chosen)
            if len(front) > room:
                cd = crowding_distances([ps[i] for i in front], [cs[i] for i in front])
                most = sorted(range(len(front)), key=cd.__getitem__, reverse=True)
                front = [front[j] for j in most[:room]]  # stable: ties keep order
            chosen += front
            self.ranks += [depth] * len(front)
            self.crowd += crowding_distances([ps[i] for i in front], [cs[i] for i in front])
            if len(chosen) == pop:
                break
        self.bits = np.concatenate([self.bits, children]).take(chosen, axis=0)
        self.pwk = all_pwk.take(chosen, axis=0)
        self.cstar = all_c.take(chosen)
        self.generations += 1
        return replaced

    def on_change(self, capacity: int):
        self.best_feasible = None
        self._consider(self.bits, self.p, self.w, self.k, self.cstar, capacity)

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
                  seed: int, trace: bool = False) -> metrics.RunRecord:
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
    recorder = metrics.OfflineErrorRecorder(warmup, measured, params.alpha, trace)
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
    return metrics.RunRecord(
        algo=algo,
        bound_kind=params.bound_kind,
        instance_seed=instance.seed,
        run_seed=seed,
        r=schedule.r,
        tau=schedule.tau,
        delta=instance.delta,
        alpha=params.alpha,
        intervals=log,
        total_offline_error=metrics.total_offline_error(log.series("phi")),
        feasible_fraction=float(log.series("feasible").mean()),
        change_count=schedule.change_count,
        evaluations=-(-total // stride) * stride,  # a truncated last step in full
    )
