import csv
import gc
import io
import random
import statistics
import weakref

import numpy as np
import pytest

from dcckp import campaign
from dcckp.campaign import (
    CampaignConfig,
    enumerate_cells,
    run_campaign,
    run_seed_for,
    schedule_seed_for,
)
from dcckp.model import WEIGHT_OFFSET

TINY = dict(kind="uncorrelated", n=12, deltas=(25,), rs=(300,), taus=(200,),
            alphas=(0.01,), algos=("ea11", "posdc"), bounds=("chernoff",),
            runs=2, total_iters=600, warmup=100, base_seed=7)


def test_cell_enumeration_is_full_product():
    cfg = CampaignConfig(**{**TINY, "deltas": (25, 50), "alphas": (0.01, 0.001)})
    cells = enumerate_cells(cfg)
    assert len(cells) == 2 * 2 * 2  # deltas x alphas x algos (one bound)
    assert len({c.cell_id for c in cells}) == len(cells)


def test_seed_derivation_pure_and_distinct():
    cfg = CampaignConfig(**TINY)
    cells = enumerate_cells(cfg)
    a = run_seed_for(cfg, cells[0], 0)
    assert a == run_seed_for(cfg, cells[0], 0)
    assert a != run_seed_for(cfg, cells[0], 1)
    assert a != run_seed_for(cfg, cells[1], 0)
    # schedule seeds ignore the algo coordinate: paired trajectories
    assert schedule_seed_for(cfg, cells[0], 0) == schedule_seed_for(cfg, cells[1], 0)
    assert schedule_seed_for(cfg, cells[0], 0) != schedule_seed_for(cfg, cells[0], 1)


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(**{**TINY, "runs": 0})
    with pytest.raises(ValueError):
        CampaignConfig(**{**TINY, "algos": ()})
    with pytest.raises(ValueError):
        CampaignConfig(**{**TINY, "algos": ("annealing",)})
    with pytest.raises(ValueError):
        CampaignConfig(**{**TINY, "alphas": (1.5,)})
    with pytest.raises(ValueError):
        CampaignConfig(**{**TINY, "kind": "mystery"})
    with pytest.raises(ValueError):
        CampaignConfig(**{**TINY, "jobs": 0})
    with pytest.raises(ValueError, match="trace.*out_dir"):
        CampaignConfig(**{**TINY, "trace": True})
    for field, bad in (("deltas", (0,)), ("deltas", (25, WEIGHT_OFFSET + 1)),
                       ("rs", (0,)), ("rs", (300, -1)),
                       ("taus", (0,)), ("taus", (150, -5)),
                       ("c0_fraction", 0.0), ("c0_fraction", -0.5),
                       ("c0_fraction", 1.5), ("c_constant", 0),
                       ("c_constant", -3), ("deltas", (25, 25)),
                       ("alphas", (0.01, 0.010000001)),
                       ("base_seed", -1), ("instance_seed", -1)):
        named = field.endswith("_seed") or field == "c0_fraction"
        with pytest.raises(ValueError, match=field if named else None):
            CampaignConfig(**{**TINY, field: bad})
    # each is rejected by the library call that uses it, made before any run
    for field, bad in (("bounds", ("gauss",)), ("n", 0), ("warmup", -1),
                       ("total_iters", 0), ("alphas", (0.0,)), ("alphas", (1.0,))):
        with pytest.raises(ValueError):
            CampaignConfig(**{**TINY, field: bad})
    # a c0_fraction in (0, 1] whose c0 rounds below the least capacity
    with pytest.raises(ValueError, match=r"c0_fraction 1e-06 gives c0=0"):
        CampaignConfig(**{**TINY, "c0_fraction": 1e-6})
    # a negative warmup is named, even when it leaves no run length either
    with pytest.raises(ValueError, match="warmup"):
        CampaignConfig(**{**TINY, "warmup": -1, "total_iters": 1})
    CampaignConfig(**{**TINY, "deltas": (1, WEIGHT_OFFSET), "rs": (1,), "taus": (1,),
                      "c0_fraction": 1.0, "c_constant": 1})


def test_defaults_are_the_papers_setting():
    """A campaign left at its defaults runs the setting README's `dcckp run`
    example spells out: n=100, r=500, tau=1000, 10 runs of 100,000
    iterations after 1,000 of warmup."""
    cfg = CampaignConfig()
    assert ((cfg.n, cfg.rs, cfg.taus, cfg.runs, cfg.total_iters, cfg.warmup)
            == (100, (500,), (1000,), 10, 100_000, 1_000))


def test_config_checks_schedules_without_walking_them(monkeypatch):
    """A config checks each (r, tau)'s schedule arguments on a one-iteration
    run, so tau = 1 over 100,000 iterations costs no walk of the changes."""
    built = []
    build = campaign.dynamics.build_schedule

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(campaign.dynamics, "build_schedule", counted)
    cfg = CampaignConfig(taus=(1,))
    assert len(built) == len(cfg.rs) * len(cfg.taus)
    assert all(args[4] <= cfg.warmup + 1 for args in built)  # total_iters


def test_single_run_summary_mean_is_run_value():
    cfg = CampaignConfig(**{**TINY, "runs": 1, "algos": ("ea11",)})
    result = run_campaign(cfg)
    (row,) = result.summary_rows
    cell = result.cells[0]
    rec = result.records[(cell, 0)]
    assert row["mean"] == rec.total_offline_error
    assert row["std"] == 0.0


def test_runs_csv_schema_and_summary_consistency():
    """Each summary.csv row's runs, mean and std are the count, mean and
    sample standard deviation of its cell's total_offline_error in runs.csv,
    at three runs a cell, where the median is not the mean (one run's std
    is test_single_run_summary_mean_is_run_value's)."""
    result = run_campaign(CampaignConfig(**{**TINY, "runs": 3}))
    rows = list(csv.DictReader(io.StringIO(result.runs_csv)))
    assert list(rows[0]) == ["cell_id", "algo", "bound", "r", "tau", "delta",
                             "alpha", "run_seed", "total_offline_error",
                             "feasible_fraction", "change_count"]
    errors = {}
    for row in rows:
        errors.setdefault(row["cell_id"], []).append(float(row["total_offline_error"]))
    summary = list(csv.DictReader(io.StringIO(result.summary_csv)))
    assert [row["cell_id"] for row in summary] == list(errors)
    for row in summary:
        values = errors[row["cell_id"]]
        assert int(row["runs"]) == len(values) == 3
        assert float(row["mean_offline_error"]) == pytest.approx(
            statistics.fmean(values), rel=1e-12)
        assert float(row["std_offline_error"]) == pytest.approx(
            statistics.stdev(values), rel=1e-12)


def test_stat_labels_antisymmetric_in_summary():
    cfg = CampaignConfig(**{**TINY, "runs": 4, "total_iters": 400})
    result = run_campaign(cfg)
    stats = {row["cell_id"]: row["stat"] for row in result.summary_rows}
    ids = [c.cell_id for c in result.cells]
    # two cells: each stat column refers to the other with a mirrored label
    flip = {"+": "-", "-": "+", "*": "*"}
    s0, s1 = stats[ids[0]], stats[ids[1]]
    assert s0.startswith("2(") and s1.startswith("1(")
    assert s1[2] == flip[s0[2]]


def test_campaign_writes_files(tmp_path):
    """Each trace file is its run's interval log: expanded over the
    iterations each row holds for, its columns are the record's dense
    series, exactly."""
    cfg = CampaignConfig(**TINY, out_dir=str(tmp_path / "out"), trace=True)
    result = run_campaign(cfg)
    assert (tmp_path / "out" / "runs.csv").read_text() == result.runs_csv
    assert (tmp_path / "out" / "summary.csv").read_text() == result.summary_csv
    assert len(list((tmp_path / "out").glob("trace-*.csv"))) == len(result.records)
    for (cell, j), rec in result.records.items():
        path = tmp_path / "out" / f"trace-{cell.cell_id}-run{j}.csv"
        header, *lines = path.read_text().splitlines()
        assert header == "iteration,capacity,best_profit,violation_prob,phi"
        rows = [line.split(",") for line in lines]
        starts = [int(row[0]) for row in rows]
        assert starts[0] == 0
        spans = np.diff(starts, append=cfg.total_iters)
        assert (spans > 0).all()
        for col, (name, parse) in enumerate(
                (("capacity", int), ("best_profit", int), ("violation", float),
                 ("phi", float)), 1):
            dense = np.repeat([parse(row[col]) for row in rows], spans)
            assert np.array_equal(dense, rec.intervals.series(name))


@pytest.mark.parametrize("out", ["file", "file/sub"], ids=["file", "under_file"])
def test_bad_out_dir_fails_before_any_run(tmp_path, monkeypatch, out):
    """An out_dir that cannot be made a directory fails before the first
    run starts, not after the whole grid has run."""
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    started = []
    monkeypatch.setattr(campaign, "execute_run", lambda *args: started.append(args))
    with pytest.raises(OSError):
        run_campaign(CampaignConfig(**TINY, out_dir=str(tmp_path / out)))
    assert not started
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept"


def test_run_record_fields_round_trip_through_csv():
    cfg = CampaignConfig(**TINY)
    result = run_campaign(cfg)
    rows = list(csv.DictReader(io.StringIO(result.runs_csv)))
    for row in rows:
        cell = next(c for c in result.cells if c.cell_id == row["cell_id"])
        (j,) = [j for j in range(cfg.runs)
                if result.records[(cell, j)].run_seed == int(row["run_seed"])]
        rec = result.records[(cell, j)]
        assert float(row["total_offline_error"]) == rec.total_offline_error
        assert float(row["feasible_fraction"]) == rec.feasible_fraction
        assert int(row["change_count"]) == rec.change_count


def test_dp_table_computed_once_for_every_delta(monkeypatch):
    calls = []
    dp = campaign.oracle.dp_optimal_profits

    def counted(*args):
        calls.append(args)
        return dp(*args)

    monkeypatch.setattr(campaign, "_MEMO", {})
    monkeypatch.setattr(campaign.oracle, "dp_optimal_profits", counted)
    result = run_campaign(CampaignConfig(**{**TINY, "deltas": (25, 50)}))
    assert {c.delta for c in result.cells} == {25, 50}
    assert len(calls) == 1


def test_schedule_built_once_per_delta_r_tau_and_run(monkeypatch):
    """The runs of every algo, bound and alpha at one (delta, r, tau, run
    index) share a schedule; a serial campaign builds each of them once,
    through the module attribute that wrappers of ``build_schedule`` see."""
    cfg = CampaignConfig(**{**TINY, "deltas": (25, 50), "taus": (200, 100),
                            "bounds": ("chebyshev", "chernoff")})
    built = []
    build = campaign.dynamics.build_schedule

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(campaign, "_MEMO", {})
    monkeypatch.setattr(campaign.dynamics, "build_schedule", counted)
    result = run_campaign(cfg)
    assert len(result.records) == 2 * 2 * 2 * 2 * cfg.runs
    assert len(built) == len(cfg.deltas) * len(cfg.rs) * len(cfg.taus) * cfg.runs
    assert len(set(built)) == len(built)


def test_serial_campaigns_leave_one_dp_table_held(monkeypatch):
    """A process keeps one DP table: campaigns whose schedules reach other
    capacities (here, by running longer) replace it rather than add one."""
    held = []
    dp = campaign.oracle.dp_optimal_profits

    def tracked(*args):
        table = dp(*args)
        held.append(weakref.ref(table))
        return table

    monkeypatch.setattr(campaign, "_MEMO", {})
    monkeypatch.setattr(campaign.oracle, "dp_optimal_profits", tracked)
    for total_iters in (600, 6000):
        run_campaign(CampaignConfig(**{**TINY, "total_iters": total_iters}))
    gc.collect()
    assert len(held) == 2
    assert [ref() is not None for ref in held] == [False, True]


def test_execute_run_in_any_order_matches_a_cold_campaign(monkeypatch):
    """The memo of a run's instance, DP table and schedule holds no state
    that changes a run: runs executed in a shuffled order, on a memo left
    warm by a campaign, give that campaign's runs.csv and capacity traces."""
    monkeypatch.setattr(campaign, "_MEMO", {})
    cfg = CampaignConfig(**{**TINY, "deltas": (25, 50), "runs": 3})
    cold = run_campaign(cfg)
    tasks = list(cold.records)
    random.Random(5).shuffle(tasks)
    records = {}
    for cell, j in tasks:
        _, _, records[(cell, j)] = campaign.execute_run(cfg, cell, j)
    assert campaign._runs_csv(cfg, cold.cells, records) == cold.runs_csv
    for key, rec in records.items():
        assert campaign._trace_csv(rec) == campaign._trace_csv(cold.records[key])
