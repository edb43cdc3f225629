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


@dataclass(frozen=True)
class Item:
    profit: int
    expected_weight: int  # includes the +100 offset

    def __post_init__(self):
        if self.profit < 1:
            raise ValueError(f"item profit must be >= 1, got {self.profit}")
        if self.expected_weight < WEIGHT_OFFSET + 1:
            raise ValueError(
                f"expected weight must be >= {WEIGHT_OFFSET + 1}, got {self.expected_weight}")


@dataclass(frozen=True)
class Instance:
    """Immutable knapsack instance; safe to share across concurrent runs."""

    items: tuple[Item, ...]
    delta: int
    kind: str
    c_constant: int
    seed: int

    def __post_init__(self):
        if len(self.items) == 0:
            raise ValueError("instance needs at least one item")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.delta < 1:
            raise ValueError("delta must be a positive integer")
        min_w = min(it.expected_weight for it in self.items)
        if self.delta >= min_w:
            raise ValueError(
                f"delta={self.delta} must stay below the smallest expected weight {min_w}")
        for what, total in (("profit", sum(it.profit for it in self.items)),
                            ("expected weight", self.total_expected_weight())):
            if total >= EXACT_FLOAT_TOTAL:
                raise ValueError(f"{what} total {total} reaches 2**53, beyond "
                                 "which float64 does not hold every integer")
        if self.kind == BOUNDED_STRONGLY_CORRELATED:
            for i, it in enumerate(self.items):
                if it.profit != it.expected_weight - WEIGHT_OFFSET + self.c_constant:
                    raise ValueError(
                        f"item {i} breaks the profit = base_weight + c correlation")

    @property
    def n(self) -> int:
        return len(self.items)

    def profit_array(self) -> np.ndarray:
        return np.fromiter((it.profit for it in self.items), np.int64, self.n)

    def weight_array(self) -> np.ndarray:
        return np.fromiter((it.expected_weight for it in self.items), np.int64, self.n)

    def total_expected_weight(self) -> int:
        return sum(it.expected_weight for it in self.items)


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
    items = tuple(Item(int(p), int(b) + WEIGHT_OFFSET) for p, b in zip(profits, base))
    return Instance(items=items, delta=int(delta), kind=kind,
                    c_constant=int(c_constant), seed=int(seed))


def serialize_instance(instance: Instance) -> str:
    """Render the plain-text instance format (see ``parse_instance``)."""
    lines = [f"n {instance.n} delta {instance.delta} "
             f"kind {_KIND_TO_TOKEN[instance.kind]} c {instance.c_constant} "
             f"seed {instance.seed}"]
    lines.extend(f"{it.profit} {it.expected_weight}" for it in instance.items)
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
    items = []
    for no, ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise InstanceFormatError(no, "expected 'profit expected_weight'")
        try:
            profit, ew = int(parts[0]), int(parts[1])
        except ValueError:
            raise InstanceFormatError(no, f"non-integer item fields {parts}") from None
        try:
            items.append(Item(profit, ew))
        except ValueError as exc:
            raise InstanceFormatError(no, str(exc)) from None
    try:
        return Instance(items=tuple(items), delta=delta, kind=kind,
                        c_constant=c_constant, seed=seed)
    except ValueError as exc:
        raise InstanceFormatError(1, str(exc)) from None
