"""Seed-reproducible dynamic capacity schedules.

A schedule fixes the capacity trajectory of a whole run up front: the
capacity starts at ``c0``, stays put for ``warmup`` iterations, then shifts
every ``tau`` iterations by an integer drawn uniformly from [-r, r], clamped
into [c_min, c_max]. A change listed at iteration i takes effect at the start
of iteration i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CapacitySchedule:
    c0: int
    tau: int
    r: int
    warmup: int
    total_iters: int  # whole run length, warmup included
    c_min: int
    c_max: int
    seed: int
    change_iters: np.ndarray = field(repr=False)  # ascending iteration indices
    change_caps: np.ndarray = field(repr=False)   # capacity in force from that index on
    clamp_count: int

    @property
    def change_count(self) -> int:
        return len(self.change_iters)

    def capacity_at(self, iteration: int) -> int:
        """Capacity in force at ``iteration`` (post-change on change indices)."""
        if not 0 <= iteration < self.total_iters:
            raise IndexError(
                f"iteration {iteration} outside [0, {self.total_iters})")
        j = int(np.searchsorted(self.change_iters, iteration, side="right")) - 1
        return self.c0 if j < 0 else int(self.change_caps[j])

    def capacities(self) -> np.ndarray:
        """Full per-iteration capacity series (for audits and CSV dumps)."""
        starts = np.append(0, self.change_iters)
        lengths = np.diff(starts, append=self.total_iters)
        return np.repeat(np.append(np.int64(self.c0), self.change_caps), lengths)


def build_schedule(c0: int, tau: int, r: int, warmup: int, total_iters: int,
                   c_min: int, c_max: int, seed: int = 0) -> CapacitySchedule:
    """Precompute the change list for a run of ``total_iters`` iterations."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if total_iters < 1:
        raise ValueError("total_iters must be >= 1")
    if not c_min <= c0 <= c_max:
        raise ValueError(f"c0={c0} outside clamp range [{c_min}, {c_max}]")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    idx = np.arange(warmup, total_iters, tau, dtype=np.int64)
    rng = np.random.default_rng(seed)
    steps = rng.integers(-r, r + 1, size=len(idx))
    caps = []
    cap, c_min, c_max = int(c0), int(c_min), int(c_max)
    clamps = 0
    for step in steps.tolist():  # Python ints: far cheaper than numpy scalars
        cap += step
        if cap < c_min:
            cap = c_min
            clamps += 1
        elif cap > c_max:
            cap = c_max
            clamps += 1
        caps.append(cap)
    caps = np.array(caps, np.int64)
    # a campaign shares one schedule between runs: nothing may write into it
    idx.flags.writeable = caps.flags.writeable = False
    return CapacitySchedule(c0=int(c0), tau=int(tau), r=int(r), warmup=int(warmup),
                            total_iters=int(total_iters), c_min=int(c_min),
                            c_max=int(c_max), seed=int(seed),
                            change_iters=idx, change_caps=caps, clamp_count=clamps)


def capacity_range(c0: int, tau: int, r: int, warmup: int, total_iters: int,
                   c_min: int, c_max: int) -> tuple[int, int]:
    """The capacities ``build_schedule`` can reach with these parameters,
    whatever the seed: c0 moved by up to r per change, clamped into
    [c_min, c_max]. Returns (low, high)."""
    reach = r * len(range(warmup, total_iters, tau))
    return max(c_min, c0 - reach), min(c_max, c0 + reach)


def default_initial_capacity(instance, fraction: float = 0.5) -> int:
    return int(round(fraction * instance.total_expected_weight()))


def default_clamp_bounds(instance) -> tuple[int, int]:
    return 1, instance.total_expected_weight()
