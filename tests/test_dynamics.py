import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dcckp.dynamics import (
    build_schedule,
    capacity_range,
    default_clamp_bounds,
    default_initial_capacity,
)
from dcckp.model import generate_instance


def test_constant_before_warmup():
    sched = build_schedule(5000, 100, 500, 10_000, 20_000, 1, 1_000_000, seed=1)
    assert sched.capacity_at(0) == 5000
    assert sched.capacity_at(9_999) == 5000
    assert sched.change_iters[0] == 10_000


def test_change_takes_effect_at_its_index():
    sched = build_schedule(5000, 100, 500, 1000, 5000, 1, 1_000_000, seed=2)
    first = int(sched.change_iters[0])
    assert first == 1000
    assert sched.capacity_at(first - 1) == 5000
    assert sched.capacity_at(first) == int(sched.change_caps[0])


def test_unit_magnitude_steps():
    sched = build_schedule(100, 10, 1, 0, 2000, 1, 10 ** 6, seed=3)
    caps = sched.capacities()
    assert np.abs(np.diff(caps)).max() <= 1


def test_capacity_at_matches_linear_replay():
    rng = np.random.default_rng(0)
    for trial in range(20):
        warmup = int(rng.integers(0, 50))
        total = int(rng.integers(warmup + 1, 400))
        tau = int(rng.integers(1, 30))
        sched = build_schedule(500, tau, 50, warmup, total, 1, 2000,
                               seed=trial)
        # naive replay oracle
        cap = sched.c0
        replay = []
        changes = dict(zip(sched.change_iters.tolist(), sched.change_caps.tolist()))
        for i in range(total):
            if i in changes:
                cap = changes[i]
            replay.append(cap)
        for i in range(total):
            assert sched.capacity_at(i) == replay[i]
        assert np.array_equal(sched.capacities(), np.array(replay))



def test_capacities_with_a_change_on_every_iteration():
    """warmup 0 puts a change on iteration 0, and tau 1 one on every
    iteration after it, so the series is the change list itself; a schedule
    whose warm-up outlasts the run keeps c0 throughout."""
    sched = build_schedule(500, 1, 50, 0, 300, 1, 2000, seed=5)
    caps = sched.capacities()
    assert caps.dtype == np.int64
    assert np.array_equal(caps, sched.change_caps)
    assert [sched.capacity_at(i) for i in range(300)] == caps.tolist()
    quiet = build_schedule(500, 1, 50, 400, 300, 1, 2000, seed=5)
    assert quiet.change_count == 0
    assert quiet.capacities().tolist() == [500] * 300

def test_change_count_formula():
    rng = np.random.default_rng(1)
    for trial in range(200):
        warmup = int(rng.integers(0, 100))
        total = int(rng.integers(warmup + 1, 1000))
        tau = int(rng.integers(1, 60))
        sched = build_schedule(100, tau, 5, warmup, total, 1, 10 ** 6, seed=trial)
        expected = (total - warmup - 1) // tau + 1
        assert sched.change_count == expected


def test_clamp_bounds_hold():
    for seed in range(1000):
        sched = build_schedule(10, 1, 30, 0, 50, 5, 40, seed=seed)
        caps = sched.change_caps
        assert caps.min() >= 5 and caps.max() <= 40
    # hugging a narrow clamp range must record clamp events
    sched = build_schedule(10, 1, 30, 0, 200, 5, 40, seed=0)
    assert sched.clamp_count > 0


def test_capacity_range_holds_every_schedule_capacity():
    rng = np.random.default_rng(3)
    clamps = 0
    for trial in range(200):
        warmup = int(rng.integers(0, 50))
        total = int(rng.integers(warmup + 1, 600))
        tau = int(rng.integers(1, 40))
        r = int(rng.integers(1, 300))
        # every other trial clamps hard: a c_max a few steps above c_min
        c_min = int(rng.integers(1, 100))
        c_max = c_min + int(rng.integers(0, 3 * r if trial % 2 else 10 ** 5))
        c0 = int(rng.integers(c_min, c_max + 1))
        low, high = capacity_range(c0, tau, r, warmup, total, c_min, c_max)
        sched = build_schedule(c0, tau, r, warmup, total, c_min, c_max, seed=trial)
        caps = sched.capacities()
        assert c_min <= low <= caps.min() and caps.max() <= high <= c_max
        # the window is c0 moved by r per change, clamped: no wider
        assert low == max(c_min, c0 - r * sched.change_count)
        assert high == min(c_max, c0 + r * sched.change_count)
        clamps += sched.clamp_count
    assert clamps > 0


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_schedule(100, 0, 5, 0, 10, 1, 1000)
    with pytest.raises(ValueError):
        build_schedule(100, 1, 0, 0, 10, 1, 1000)
    with pytest.raises(ValueError):
        build_schedule(100, 1, 5, 0, 0, 1, 1000)
    with pytest.raises(ValueError):
        build_schedule(2000, 1, 5, 0, 10, 1, 1000)  # c0 above clamp


def test_capacity_at_rejects_out_of_range():
    sched = build_schedule(100, 10, 5, 0, 50, 1, 1000, seed=1)
    with pytest.raises(IndexError):
        sched.capacity_at(50)
    with pytest.raises(IndexError):
        sched.capacity_at(-1)


def test_defaults_from_instance():
    inst = generate_instance("uncorrelated", 50, 25, seed=9)
    total_w = inst.total_expected_weight()
    assert default_initial_capacity(inst) == round(0.5 * total_w)
    assert default_initial_capacity(inst, 0.25) == round(0.25 * total_w)
    assert default_clamp_bounds(inst) == (1, total_w)


def test_csv_rows_cover_every_iteration():
    sched = build_schedule(100, 10, 5, 5, 40, 1, 1000, seed=2)
    rows = list(enumerate(sched.capacities().tolist()))
    assert len(rows) == 40
    assert rows[0] == (0, 100)
    assert all(rows[i][1] == sched.capacity_at(i) for i in range(40))


def test_schedule_arrays_are_read_only():
    """A campaign shares one schedule between the runs it pairs, so no run
    may write into it."""
    sched = build_schedule(100, 10, 5, 0, 50, 1, 1000, seed=1)
    with pytest.raises(ValueError):
        sched.change_caps[0] = 7
    with pytest.raises(ValueError):
        sched.change_iters[0] = 7


def _reference_schedule(c0, tau, r, warmup, total_iters, c_min, c_max, seed):
    """The clamp walk over numpy scalars, one array store per change, that
    ``build_schedule`` ran before it looped over Python ints."""
    idx = np.arange(warmup, total_iters, tau, dtype=np.int64)
    steps = np.random.default_rng(seed).integers(-r, r + 1, size=len(idx))
    caps = np.empty(len(idx), np.int64)
    cap = c0
    clamps = 0
    for j, step in enumerate(steps):
        cap += int(step)
        if cap < c_min:
            cap = c_min
            clamps += 1
        elif cap > c_max:
            cap = c_max
            clamps += 1
        caps[j] = cap
    return idx, caps, clamps


@given(st.data(), st.integers(1, 40), st.integers(1, 600), st.integers(0, 400),
       st.integers(1, 500), st.integers(-100, 5000),
       st.sampled_from([0, 1, 3, 50, 10 ** 4]), st.integers(0, 2 ** 32))
@example(None, 1, 30, 0, 200, 5, 35, 0)       # range narrower than r
@example(None, 10, 500, 100, 3000, 777, 0, 4)  # pinned: c_min == c_max
@example(None, 1, 50, 400, 300, 1, 1999, 5)    # warm-up longer than the run
def test_clamp_walk_matches_the_scalar_reference(data, tau, r, warmup, total,
                                                 c_min, width, seed):
    c_max = c_min + width
    c0 = (c_min + c_max) // 2 if data is None else data.draw(
        st.integers(c_min, c_max), label="c0")
    sched = build_schedule(c0, tau, r, warmup, total, c_min, c_max, seed=seed)
    idx, caps, clamps = _reference_schedule(c0, tau, r, warmup, total,
                                            c_min, c_max, seed)
    assert sched.change_iters.dtype == sched.change_caps.dtype == np.int64
    assert np.array_equal(sched.change_iters, idx)
    assert np.array_equal(sched.change_caps, caps)
    assert sched.clamp_count == clamps
