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
  down), a two-objective sweep for non-dominated sorting whose survival ranks
  serve the next generation's tournaments, crowding distance, uniform
  crossover as a masked XOR swap and 1/n mutation; one generation is charged
  20 iterations.

``run_algorithm`` drives any of them, in one loop, through a capacity
schedule and scores the offline error against a precomputed DP optimum
table; a solver's ``stride`` is the iterations one step is charged. One call
``step(capacity, first, end, record)`` takes every step that starts in
``[first, end)``, a stretch of constant capacity, and calls ``record(i)``
after the step at ``first`` and after every later step ``i`` that may have
changed the designated solution; the driver re-evaluates the designated
solution only then and at capacity changes. The (1+1)-EA and POSDC keep
their state in locals for the whole stretch. Mutation yields the
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
        it would change nothing. Yields (i, incumbent) after the step at
        ``first`` and after every later step ``i`` that replaced it; a
        caller that stops iterating takes no further step.
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
                    continue
            if i == first:
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

    The members sit in five lists in insertion order, which parent draws
    index. ``_c`` and ``_p`` mirror them in ascending C*; no member weakly
    dominates another, so profit rises along C* too, and a dominance query
    is a binary search.
    """

    __slots__ = ("bits", "p", "w", "k", "cstar", "_c", "_p")

    def __init__(self):
        self.bits, self.p, self.w, self.k, self.cstar = [], [], [], [], []
        self._c, self._p = [], []

    @property
    def size(self) -> int:
        return len(self.p)

    def has_weak_dominator(self, p: int, cstar: float) -> bool:
        # the last member with C* <= cstar has the most profit among them
        i = bisect_right(self._c, cstar)
        return i > 0 and self._p[i - 1] >= p

    def insert(self, bits, p, w, k, cstar):
        """Insert a member and drop everything it weakly dominates; the
        survivors keep their order. The caller must have checked
        ``has_weak_dominator`` first."""
        sorted_c, sorted_p = self._c, self._p
        lo = bisect_left(sorted_c, cstar)
        hi = bisect_right(sorted_p, p, lo)  # [lo, hi): C* >= cstar, profit <= p
        if lo != hi:
            cs = self.cstar
            for c in sorted_c[lo:hi]:  # C* values are distinct in a front
                j = cs.index(c)
                del self.bits[j], self.p[j], self.w[j], self.k[j], cs[j]
            del sorted_c[lo:hi], sorted_p[lo:hi]
        sorted_c.insert(lo, cstar)
        sorted_p.insert(lo, p)
        self.bits.append(bits)
        self.p.append(p)
        self.w.append(w)
        self.k.append(k)
        self.cstar.append(cstar)

    def extend(self, bits, p, w, k, cstar):
        """Bulk append of members that no member weakly dominates."""
        self.bits += bits
        self.p += p
        self.w += w
        self.k += k
        self.cstar += cstar
        by_cstar = sorted(zip(self.cstar, self.p))
        self._c = [c for c, _ in by_cstar]
        self._p = [q for _, q in by_cstar]

    def max_profit_index(self) -> int:
        """Index of the highest-profit member."""
        return self.cstar.index(self._c[-1])

    def min_cstar_index(self) -> int:
        """Index of the smallest-C* member."""
        return self.cstar.index(self._c[0])

    def member(self, i: int):
        return self.bits[i], self.p[i], self.w[i], self.k[i], self.cstar[i]


def _pareto_keep_mask(p, cstar) -> list:
    """Mask of members not weakly dominated by any other (distinct C* values
    assumed, which the archive construction guarantees)."""
    keep = [False] * len(p)
    best = -math.inf
    for i in sorted(range(len(p)), key=cstar.__getitem__):
        if p[i] > best:
            keep[i] = True
            best = p[i]
    return keep


class Posdc:
    """Dual-archive Pareto tracker around the moving capacity.

    Until the initial random solution (or a repaired descendant of it) lands
    inside [C - eta, C + eta], every step is a lexicographic (1+1)-EA repair
    step; afterwards steps mutate a uniformly chosen archive member and insert
    the offspring into the matching window side unless weakly dominated.
    """

    name = "posdc"
    stride = 1

    def __init__(self, ctx: _RunContext, rng, capacity: int, eta: int,
                 repair_cap: int = REPAIR_STEP_CAP):
        if eta < 1:
            raise ValueError("eta must be >= 1")
        self.ctx = ctx
        self.flips = _FlipBlocks(rng, ctx.n)
        self.parents = _IndexBlocks(rng)
        self.eta = eta
        self.repair_cap = repair_cap
        self.repair_steps = 0
        self.s_minus = _Archive()
        self.s_plus = _Archive()
        self._best = None  # cached (p, w, k, cstar) of the designated member
        bits, p, w, k = ctx.random_solution(rng)
        cstar = ctx.bound.cstar(w, k)
        if capacity - eta <= cstar <= capacity + eta:
            self.repair = None
            self._seed(bits, p, w, k, cstar, capacity)
        else:
            self.repair = (bits, p, w, k)

    # -- archive plumbing ----------------------------------------------------

    def _seed(self, bits, p, w, k, cstar, capacity):
        side = self.s_minus if cstar < capacity else self.s_plus
        side.insert(bits, p, w, k, cstar)
        self._best = None

    def archive_size(self) -> int:
        return self.s_minus.size + self.s_plus.size

    # -- designation and archive queries ---------------------------------------

    def best(self):
        """Designated solution: highest profit in S-, else smallest C* in S+.

        Returns (bits, profit, expected_weight_sum, count, cstar); raises when
        both archives are empty (still repairing).
        """
        if self.s_minus.size:
            return self.s_minus.member(self.s_minus.max_profit_index())
        if self.s_plus.size:
            return self.s_plus.member(self.s_plus.min_cstar_index())
        raise RuntimeError("POSDC archives are empty (repair still running)")

    def step(self, capacity: int, first: int, end: int, record):
        mark = first  # recorded after its step whatever happens
        if self.repair is not None:
            first = self._repair(capacity, first, end, record)
        ctx, flips = self.ctx, self.flips
        mutate, cstar, below = ctx.mutate, ctx.bound.cstar, self.parents.below
        sm, sp = self.s_minus, self.s_plus
        minus_dominated, plus_dominated = sm.has_weak_dominator, sp.has_weak_dominator
        # the lists change in place until the next ``on_change``
        m_bits, m_p, m_w, m_k = sm.bits, sm.p, sm.w, sm.k
        p_bits, p_p, p_w, p_k = sp.bits, sp.p, sp.w, sp.k
        low, high = capacity - self.eta, capacity + self.eta
        m = len(m_p)
        size = m + len(p_p)
        for i in range(first, end):
            j = below(size)
            if j < m:
                parent = m_bits[j]
                child = mutate(flips, parent, m_p[j], m_w[j], m_k[j])
            else:
                j -= m
                parent = p_bits[j]
                child = mutate(flips, parent, p_p[j], p_w[j], p_k[j])
            # no flip leaves a duplicate of an archived member, which is
            # always weakly dominated
            if child is not None:
                positions, p, w, k = child
                c = cstar(w, k)
                if low <= c < capacity:
                    if not minus_dominated(p, c):
                        sm.insert(_flipped(parent, positions), p, w, k, c)
                        m = len(m_p)
                        size = m + len(p_p)
                        self._best = None
                        record(i)
                        continue
                elif capacity <= c <= high and not plus_dominated(p, c):
                    sp.insert(_flipped(parent, positions), p, w, k, c)
                    size = m + len(p_p)
                    if not m:
                        self._best = None
                        record(i)
                        continue
            if i == mark:
                record(i)

    def _repair(self, capacity: int, first: int, end: int, record) -> int:
        """Lexicographic repair steps from ``first`` until the incumbent's
        C* lies in the window, which seeds the archive, or until ``end``.
        Records like ``step``; returns the iteration after the last repair
        step, and raises in place of step ``repair_cap + 1``."""
        low, high = capacity - self.eta, capacity + self.eta
        cstar = self.ctx.bound.cstar
        stop = min(end, first + self.repair_cap - self.repair_steps)
        run = self.ctx.lex_run(self.flips, self.repair, capacity, first, stop)
        for i, self.repair in run:
            bits, p, w, k = self.repair
            c = cstar(w, k)
            if low <= c <= high:
                self.repair_steps += i + 1 - first
                self.repair = None
                self._seed(bits, p, w, k, c, capacity)
                record(i)
                return i + 1
            record(i)
        self.repair_steps += stop - first
        if stop < end:
            self.repair_steps += 1
            raise RuntimeError(
                f"POSDC repair did not reach the window within {self.repair_cap} steps")
        return end

    def on_change(self, capacity: int):
        """Re-partition both archives against the shifted capacity, dropping
        members outside the new window; if nothing survives, the previously
        designated solution reseeds the archive even when out of window."""
        if self.repair is not None:
            return  # archives empty; repair keeps running against the new capacity
        designated = self.best()
        low, high = capacity - self.eta, capacity + self.eta
        minus, plus = [], []
        for arc in (self.s_minus, self.s_plus):
            for row in zip(arc.bits, arc.p, arc.w, arc.k, arc.cstar):
                if low <= row[4] <= high:
                    (minus if row[4] < capacity else plus).append(row)
        self.s_minus = _Archive()
        self.s_plus = _Archive()
        for side, rows in ((self.s_minus, minus), (self.s_plus, plus)):
            if rows:
                cols = list(zip(*rows))
                keep = _pareto_keep_mask(cols[1], cols[4])
                side.extend(*([v for v, kept in zip(col, keep) if kept]
                              for col in cols))
        if self.archive_size() == 0:
            self._seed(*designated, capacity)
        self._best = None

    def designated_eval(self, capacity: int):
        if self.repair is not None:
            _, p, w, k = self.repair
            return p, self.ctx.bound.certified(w, k, capacity)
        if self._best is None:
            _, p, w, k, cstar = self.best()
            self._best = (p, w, k, cstar)
        p, w, k, _ = self._best
        return p, self.ctx.bound.certified(w, k, capacity)


def _front_ranks(profits, cap_bounds) -> np.ndarray:
    """Front depth of each point under (maximize profit, minimize capacity
    bound), 0 for the non-dominated front.

    A sweep for two objectives (Jensen, IEEE TEC 7(5), 2003): points are
    visited by falling profit, then rising bound, and each joins the first
    front whose latest member does not dominate it. A front's latest member
    has the smallest key (bound, -profit) in the front, and it dominates a
    later point exactly when its key is smaller, so the latest keys stay
    sorted and a binary search places each point.
    """
    p = np.asarray(profits)
    c = np.asarray(cap_bounds)
    ps, cs = p.tolist(), c.tolist()
    ranks = [0] * len(ps)
    latest = []
    for i in np.lexsort((c, -p)).tolist():
        key = (cs[i], -ps[i])
        depth = bisect_left(latest, key)
        if depth == len(latest):
            latest.append(key)
        else:
            latest[depth] = key
        ranks[i] = depth
    return np.array(ranks, np.int64)


def _fronts(ranks):
    """Indices of each front, by depth, ascending within each front."""
    if not len(ranks):
        return []
    order = np.argsort(ranks, kind="stable")
    return np.split(order, np.cumsum(np.bincount(ranks))[:-1])


def fast_nondominated_sort(profits, cap_bounds):
    """Front indices under (maximize profit, minimize capacity bound), each
    front in ascending index order."""
    return _fronts(_front_ranks(np.asarray(profits, np.float64),
                               np.asarray(cap_bounds, np.float64)))


def crowding_distances(profits, cap_bounds) -> np.ndarray:
    """Crowding distance within one front; boundary members get +inf."""
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


class Nsga2:
    """NSGA-II on (profit up, capacity bound down) with a tracked best
    feasible solution for the current capacity.

    The population's front ranks and crowding distances are kept between
    generations (``ranks``, ``crowd``). The objectives do not depend on the
    capacity, so the survivors' ranks among parents and children are their
    ranks among themselves (Deb et al., IEEE TEC 6(2), 2002), and the next
    tournaments need no sort of their own.
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
        self._fallback = None
        self._consider(self.bits, self.p, self.w, self.k, capacity)

    def _evaluate(self, bits):
        """(profit, expected weight, item count, C*) of each row of ``bits``."""
        p, w, k = (bits @ self._totals).astype(np.int64).T
        return p, w, k, self.ctx.bound.cstar_array(w, k)

    def _evaluate_population(self):
        """Evaluate ``bits`` and rank the population from scratch."""
        self.p, self.w, self.k, self.cstar = self._evaluate(self.bits)
        self.ranks = _front_ranks(self.p, self.cstar)
        self.crowd = np.empty(self.pop_size)
        for front in _fronts(self.ranks):
            self.crowd[front] = crowding_distances(self.p[front], self.cstar[front])

    def _consider(self, bits, p, w, k, capacity):
        """Fold freshly evaluated individuals into the tracked best feasible."""
        best = self.best_feasible
        if best is not None and p.max() <= best[0]:
            return  # no row could replace it
        bound = self.ctx.bound
        feas = bound.tail_array(w, k, capacity) <= bound.alpha
        if not feas.any():
            return
        idx = np.flatnonzero(feas)
        j = idx[np.argmax(p[idx])]
        if best is None or p[j] > best[0]:
            self.best_feasible = (int(p[j]), int(w[j]), int(k[j]), bits[j].copy())

    def step(self, capacity: int, first: int, end: int, record):
        for i in range(first, end, self.stride):
            self.generation(capacity)
            record(i)

    def generation(self, capacity: int):
        rng = self.rng
        pop, n = self.pop_size, self.ctx.n
        ranks, crowd = self.ranks, self.crowd

        # binary tournaments on (rank, crowding)
        cand = rng.integers(0, pop, size=(pop, 2))
        a, b = cand[:, 0], cand[:, 1]
        a_wins = (ranks[a] < ranks[b]) | ((ranks[a] == ranks[b]) & (crowd[a] >= crowd[b]))
        pool = self.bits[np.where(a_wins, a, b)]

        # uniform crossover on consecutive pairs (a masked XOR swap), then
        # 1/n mutation
        do_cross = rng.random(pop // 2) < self.crossover_rate
        mix = (rng.random((pop // 2, n)) < 0.5) & do_cross[:, None]
        pairs = pool.reshape(pop // 2, 2, n)
        swap = (pairs[:, 0] ^ pairs[:, 1]) & mix
        children = (pairs ^ swap[:, None]).reshape(pop, n)
        children ^= (rng.random((pop, n)) < self.ctx.inv_n).view(np.uint8)

        cp, cw, ck, c_cstar = self._evaluate(children)
        self._consider(children, cp, cw, ck, capacity)

        # elitist survival over parents + children: whole fronts by depth,
        # then the most crowding-distant members of the front that overflows
        all_bits = np.concatenate([self.bits, children])
        all_p = np.concatenate([self.p, cp])
        all_w = np.concatenate([self.w, cw])
        all_k = np.concatenate([self.k, ck])
        all_c = np.concatenate([self.cstar, c_cstar])
        all_ranks = _front_ranks(all_p, all_c)
        order = np.argsort(all_ranks, kind="stable")
        ends = np.cumsum(np.bincount(all_ranks)).tolist()
        full = bisect_right(ends, pop)  # fronts that survive whole
        edges = [0] + ends[:full]
        chosen = order[:edges[-1]]
        if edges[-1] < pop:
            front = order[edges[-1]:ends[full]]
            cd = crowding_distances(all_p[front], all_c[front])
            picked = front[np.argsort(-cd, kind="stable")[:pop - edges[-1]]]
            chosen = np.concatenate([chosen, picked])
            edges.append(pop)
        self.bits = all_bits[chosen]
        self.p = all_p[chosen]
        self.w = all_w[chosen]
        self.k = all_k[chosen]
        self.cstar = all_c[chosen]
        # the survivors keep their depth, and each front is a run of
        # ``chosen`` in the order a fresh sort of the survivors would list
        # it, which is the order crowding's stable argsort breaks ties by;
        # the overflowing front is measured on its chosen members only
        self.ranks = all_ranks[chosen]
        self.crowd = np.empty(pop)
        for lo, hi in zip(edges, edges[1:]):
            self.crowd[lo:hi] = crowding_distances(self.p[lo:hi], self.cstar[lo:hi])
        self.generations += 1
        self._fallback = None

    def on_change(self, capacity: int):
        self.best_feasible = None
        self._fallback = None
        self._consider(self.bits, self.p, self.w, self.k, capacity)

    def designated_eval(self, capacity: int):
        bound = self.ctx.bound
        if self.best_feasible is not None:
            p, w, k, _ = self.best_feasible
            return p, bound.certified(w, k, capacity)
        if self._fallback is None or self._fallback[0] != capacity:
            j = np.lexsort((-self.p, bound.tail_array(self.w, self.k, capacity)))[0]
            self._fallback = (capacity, int(self.p[j]),
                              bound.certified(int(self.w[j]), int(self.k[j]), capacity))
        return self._fallback[1], self._fallback[2]


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
    scored on every post-warmup iteration, but re-evaluated only at a
    capacity change or when the solver calls ``record``; the record keeps
    one interval per run of equal values. Fully deterministic for fixed
    inputs.
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
