import csv
import io

import numpy as np
import pytest

from dcckp import campaign
from dcckp.campaign import (
    CampaignConfig,
    enumerate_cells,
    run_campaign,
    run_seed_for,
    schedule_seed_for,
    summarize_runs_csv,
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
    for field, bad in (("deltas", (0,)), ("deltas", (25, WEIGHT_OFFSET + 1)),
                       ("rs", (0,)), ("rs", (300, -1)),
                       ("taus", (0,)), ("taus", (150, -5)),
                       ("c0_fraction", 0.0), ("c0_fraction", -0.5),
                       ("c0_fraction", 1.5), ("c0_fraction", 1e-6),
                       ("c_constant", 0),
                       ("c_constant", -3), ("deltas", (25, 25)),
                       ("alphas", (0.01, 0.010000001)),
                       ("base_seed", -1), ("instance_seed", -1)):
        with pytest.raises(ValueError, match=field if field.endswith("_seed") else None):
            CampaignConfig(**{**TINY, field: bad})
    CampaignConfig(**{**TINY, "deltas": (1, WEIGHT_OFFSET), "rs": (1,), "taus": (1,),
                      "c0_fraction": 1.0, "c_constant": 1})


def test_single_run_summary_mean_is_run_value():
    cfg = CampaignConfig(**{**TINY, "runs": 1, "algos": ("ea11",)})
    result = run_campaign(cfg)
    (row,) = result.summary_rows
    cell = result.cells[0]
    rec = result.records[(cell, 0)]
    assert row["mean"] == rec.total_offline_error
    assert row["std"] == 0.0


def test_rerun_is_byte_identical():
    cfg = CampaignConfig(**TINY)
    a = run_campaign(cfg)
    b = run_campaign(cfg)
    assert a.runs_csv == b.runs_csv
    assert a.summary_csv == b.summary_csv


def test_jobs_do_not_change_output():
    a = run_campaign(CampaignConfig(**TINY, jobs=1))
    b = run_campaign(CampaignConfig(**TINY, jobs=2))
    assert a.runs_csv == b.runs_csv
    assert a.summary_csv == b.summary_csv


def test_runs_csv_schema_and_summary_consistency():
    cfg = CampaignConfig(**TINY)
    result = run_campaign(cfg)
    rows = list(csv.DictReader(io.StringIO(result.runs_csv)))
    assert len(rows) == len(result.cells) * cfg.runs
    assert list(rows[0]) == ["cell_id", "algo", "bound", "r", "tau", "delta",
                             "alpha", "run_seed", "total_offline_error",
                             "feasible_fraction", "change_count"]
    # recomputing the summary from the CSV text reproduces it exactly
    recomputed = {r["cell_id"]: r for r in summarize_runs_csv(result.runs_csv)}
    for row in result.summary_rows:
        again = recomputed[row["cell_id"]]
        assert again["mean"] == row["mean"]
        assert again["std"] == row["std"]
        assert again["stat"] == row["stat"]


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
        for col, (series, parse) in enumerate(
                ((rec.capacity_trace, int), (rec.best_profit_trace, int),
                 (rec.violation_trace, float), (rec.per_iteration_phi, float)), 1):
            dense = np.repeat([parse(row[col]) for row in rows], spans)
            assert np.array_equal(dense, series)


def test_trace_leaves_runs_csv_unchanged(tmp_path):
    plain = run_campaign(CampaignConfig(**TINY, out_dir=str(tmp_path / "plain")))
    traced = run_campaign(CampaignConfig(**TINY, out_dir=str(tmp_path / "traced"),
                                         trace=True))
    assert traced.runs_csv == plain.runs_csv
    assert ((tmp_path / "traced" / "runs.csv").read_bytes()
            == (tmp_path / "plain" / "runs.csv").read_bytes())
    assert not list((tmp_path / "plain").glob("trace-*.csv"))


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

    monkeypatch.setattr(campaign, "_INSTANCE_CACHE", {})
    monkeypatch.setattr(campaign, "_DP_CACHE", {})
    monkeypatch.setattr(campaign.oracle, "dp_optimal_profits", counted)
    result = run_campaign(CampaignConfig(**{**TINY, "deltas": (25, 50)}))
    assert {c.delta for c in result.cells} == {25, 50}
    assert len(calls) == 1
