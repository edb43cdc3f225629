"""Knapsack instances with uncertain item weights, and their plain-text file
format.

Item weights are integers drawn from [1, 1000] and shifted by +100 so that a
uniform uncertainty of half-width ``delta <= 100`` can never push a realized
weight below zero. Profits are either independent uniform integers
(``uncorrelated``) or equal to the unshifted base weight plus a constant
(``bounded-strongly-correlated``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNCORRELATED = "uncorrelated"
BOUNDED_STRONGLY_CORRELATED = "bounded-strongly-correlated"
KINDS = (UNCORRELATED, BOUNDED_STRONGLY_CORRELATED)

WEIGHT_OFFSET = 100
BASE_WEIGHT_LOW, BASE_WEIGHT_HIGH = 1, 1000
PROFIT_LOW, PROFIT_HIGH = 1, 1000
# C*, the tail formulas and NSGA-II's evaluation compute in float64, which
# holds every integer below 2**53 exactly; instance totals must stay below it
EXACT_FLOAT_TOTAL = 2 ** 53

# short tokens used in instance files / CLI flags
_KIND_TO_TOKEN = {UNCORRELATED: "uncorrelated", BOUNDED_STRONGLY_CORRELATED: "bsc"}
_TOKEN_TO_KIND = {
    "uncorrelated": UNCORRELATED,
    "bsc": BOUNDED_STRONGLY_CORRELATED,
    BOUNDED_STRONGLY_CORRELATED: BOUNDED_STRONGLY_CORRELATED,
}


class InstanceFormatError(ValueError):
    """Malformed instance file; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def normalize_kind(kind: str) -> str:
    try:
        return _TOKEN_TO_KIND[kind]
    except KeyError:
        raise ValueError(f"unknown instance kind {kind!r}; expected one of "
                         f"{sorted(set(_TOKEN_TO_KIND))}") from None


class _ItemError(ValueError):
    """An item breaks a per-item rule; ``index`` is its 0-based position."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


def _column(values, what: str) -> np.ndarray:
    """A fresh int64 copy of the ints ``values``, after checking their total
    as Python ints, which no int64 conversion has wrapped yet."""
    total = sum(values.tolist() if isinstance(values, np.ndarray) else values)
    if total >= EXACT_FLOAT_TOTAL:
        raise ValueError(f"{what} total {total} reaches 2**53, beyond "
                         "which float64 does not hold every integer")
    try:
        return np.array(values, np.int64)
    except OverflowError:
        # a total below 2**53 bounds every value >= 0, so a value that
        # overflows is negative; keep it exact for the item rule to name
        return np.array(values, object)


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable knapsack instance; safe to share across concurrent runs.

    ``profits`` and ``weights`` (expected weights, the +100 offset included)
    are read-only int64 arrays of one length, copied from what is passed in.
    """

    profits: np.ndarray
    weights: np.ndarray
    delta: int
    kind: str
    c_constant: int
    seed: int

    def __post_init__(self):
        profits = _column(self.profits, "profit")
        weights = _column(self.weights, "expected weight")
        if profits.shape != weights.shape:
            raise ValueError("profits and weights must be of one length")
        if profits.size == 0:
            raise ValueError("instance needs at least one item")
        bad = np.flatnonzero((profits < 1) | (weights < WEIGHT_OFFSET + 1))
        if bad.size:
            i = int(bad[0])
            if profits[i] < 1:
                raise _ItemError(i, f"item profit must be >= 1, got {profits[i]}")
            raise _ItemError(i, f"expected weight must be >= {WEIGHT_OFFSET + 1}, "
                                f"got {weights[i]}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.delta < 1:
            raise ValueError("delta must be a positive integer")
        min_w = int(weights.min())
        if self.delta >= min_w:
            raise ValueError(
                f"delta={self.delta} must stay below the smallest expected weight {min_w}")
        if self.kind == BOUNDED_STRONGLY_CORRELATED:
            broken = np.flatnonzero(profits - weights != self.c_constant - WEIGHT_OFFSET)
            if broken.size:
                raise ValueError(
                    f"item {broken[0]} breaks the profit = base_weight + c correlation")
        for name, column in (("profits", profits), ("weights", weights)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return ((self.delta, self.kind, self.c_constant, self.seed)
                == (other.delta, other.kind, other.c_constant, other.seed)
                and np.array_equal(self.profits, other.profits)
                and np.array_equal(self.weights, other.weights))

    @property
    def n(self) -> int:
        return len(self.profits)

    def total_expected_weight(self) -> int:
        return int(self.weights.sum())


def generate_instance(kind: str, n: int, delta: int, c_constant: int = 100,
                      seed: int = 0) -> Instance:
    """Draw a fresh instance; identical arguments give identical instances.

    Base weights are uniform integers in [1, 1000], shifted by +100 into the
    stored expected weights. Uncorrelated profits are uniform in [1, 1000];
    bounded-strongly-correlated profits equal base weight + ``c_constant``.
    """
    kind = normalize_kind(kind)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < delta <= WEIGHT_OFFSET:
        raise ValueError(f"delta must be in [1, {WEIGHT_OFFSET}], got {delta}")
    if c_constant < 1:
        raise ValueError("c_constant must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    base = rng.integers(BASE_WEIGHT_LOW, BASE_WEIGHT_HIGH + 1, size=n)
    if kind == UNCORRELATED:
        profits = rng.integers(PROFIT_LOW, PROFIT_HIGH + 1, size=n)
    else:
        profits = base + c_constant
    return Instance(profits=profits, weights=base + WEIGHT_OFFSET, delta=int(delta),
                    kind=kind, c_constant=int(c_constant), seed=int(seed))


def serialize_instance(instance: Instance) -> str:
    """Render the plain-text instance format (see ``parse_instance``)."""
    lines = [f"n {instance.n} delta {instance.delta} "
             f"kind {_KIND_TO_TOKEN[instance.kind]} c {instance.c_constant} "
             f"seed {instance.seed}"]
    lines.extend(f"{p} {w}" for p, w in zip(instance.profits.tolist(),
                                             instance.weights.tolist()))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    """Parse the instance file format.

    Line 1: ``n <int> delta <int> kind <uncorrelated|bsc> c <int> seed <u64>``,
    then n lines of ``profit expected_weight``. Errors carry line numbers.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise InstanceFormatError(1, "empty file")
    header = lines[0].split()
    if len(header) != 10 or header[0::2] != ["n", "delta", "kind", "c", "seed"]:
        raise InstanceFormatError(
            1, "header must be 'n <int> delta <int> kind <kind> c <int> seed <int>'")
    try:
        n = int(header[1])
        delta = int(header[3])
        c_constant = int(header[7])
        seed = int(header[9])
    except ValueError as exc:
        raise InstanceFormatError(1, f"non-integer header field: {exc}") from None
    try:
        kind = normalize_kind(header[5])
    except ValueError as exc:
        raise InstanceFormatError(1, str(exc)) from None

    body = [(no, ln) for no, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != n:
        where = body[-1][0] if body else 1
        raise InstanceFormatError(
            where, f"header declares {n} items but file lists {len(body)}")
    profits, weights = [], []
    for no, ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise InstanceFormatError(no, "expected 'profit expected_weight'")
        try:
            profits.append(int(parts[0]))
            weights.append(int(parts[1]))
        except ValueError:
            raise InstanceFormatError(no, f"non-integer item fields {parts}") from None
    try:
        return Instance(profits=profits, weights=weights, delta=delta, kind=kind,
                        c_constant=c_constant, seed=seed)
    except _ItemError as exc:
        raise InstanceFormatError(body[exc.index][0], str(exc)) from None
    except ValueError as exc:
        raise InstanceFormatError(1, str(exc)) from None
