import numpy as np
import pytest
from hypothesis import given, strategies as st

from dcckp.chance import CHEBYSHEV, ChanceParams, tail_bound
from dcckp.dynamics import build_schedule
from dcckp.metrics import (
    IntervalLog,
    OfflineErrorRecorder,
    offline_error,
    total_offline_error,
)
from dcckp.model import generate_instance
from dcckp.oracle import dp_optimal_profits
from dcckp.solvers import run_algorithm


def test_feasible_at_optimum():
    assert offline_error(1000, 1000, 0.001, 0.01) == 0.0


def test_feasible_distance():
    assert offline_error(1000, 900, 0.0, 0.01) == 100.0


def test_infeasible_penalty():
    assert offline_error(1000, 999, 0.5, 0.01) == 1500.0


def test_boundary_violation_counts_as_feasible():
    assert offline_error(1000, 500, 0.01, 0.01) == 500.0


@given(st.integers(0, 10 ** 6), st.floats(0.0, 1.0), st.floats(0.001, 0.5))
def test_infeasible_never_beats_feasible(p_star, viol, alpha):
    # any feasible phi is at most p_star; any infeasible phi is at least p_star
    feasible_phi = offline_error(p_star, 0, 0.0, alpha)
    infeasible_phi = offline_error(p_star, p_star, min(1.0, alpha + viol + 1e-9), alpha)
    assert feasible_phi <= p_star <= infeasible_phi


def test_total_offline_error_examples():
    assert total_offline_error([0, 100, 200]) == 100.0
    assert total_offline_error([0.0] * 5) == 0.0
    assert total_offline_error([42.5] * 9) == 42.5


def test_total_offline_error_rejects_empty():
    with pytest.raises(ValueError):
        total_offline_error([])


@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=40), st.integers(0, 2 ** 31))
def test_total_invariant_under_permutation(phis, seed):
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(phis)
    assert total_offline_error(phis) == pytest.approx(
        total_offline_error(shuffled), rel=1e-12)


@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=40), st.floats(0, 1e5))
def test_total_linear_in_uniform_shift(phis, shift):
    base = total_offline_error(phis)
    shifted = total_offline_error([p + shift for p in phis])
    assert shifted == pytest.approx(base + shift, rel=1e-9, abs=1e-6)


def test_recorder_scores_a_single_measured_iteration():
    bound = tail_bound(ChanceParams(0.01, 25, CHEBYSHEV), 5)
    with pytest.raises(ValueError):
        OfflineErrorRecorder(bound, warmup=3, measured=0)
    recorder = OfflineErrorRecorder(bound, warmup=3, measured=1)
    recorder.record(0, 50, 10, 0, 0, 100)  # warm-up, superseded
    recorder.record(3, 50, 40, 0, 0, 100)  # the one scored iteration
    record = recorder.run_record(run_seed=7, change_count=0, evaluations=4)
    assert record.total_offline_error == 10.0
    assert record.feasible_fraction == 1.0
    assert record.intervals.series("phi").tolist() == [10.0]



def test_records_of_the_same_run_compare_equal():
    inst = generate_instance("uncorrelated", 12, 25, seed=4)
    dp = dp_optimal_profits(inst, inst.total_expected_weight())
    sched = build_schedule(3000, 200, 300, 500, 4000, 1,
                           inst.total_expected_weight(), seed=2)
    params = ChanceParams(0.01, 25, CHEBYSHEV)
    a = run_algorithm("ea11", inst, sched, params, dp, seed=1)
    assert a == run_algorithm("ea11", inst, sched, params, dp, seed=1)
    assert a != run_algorithm("ea11", inst, sched, params, dp, seed=2)


def test_interval_logs_compare_by_value():
    def log(length=4, starts=(0, 2), phi=(1.0, 0.5)):
        return IntervalLog(length, np.array(starts, np.int64),
                           {"phi": np.array(phi)})
    assert log() == log()
    assert log() != log(length=5)
    assert log() != log(starts=(0, 3))
    assert log() != log(phi=(1.0, 0.25))
    assert log() != IntervalLog(4, np.array([0, 2]), {"capacity": np.array([1, 2])})
