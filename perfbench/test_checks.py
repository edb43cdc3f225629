"""Tests of the benchmark's output checks and failure count.

    python3 -m pytest -q perfbench/test_checks.py

A corrupted run record, or a corrupted ``runs.csv`` row, must show up as a
failed run in the same accounting the benchmark reports.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from dcckp.campaign import CampaignConfig, run_campaign  # noqa: E402

SMALL = dict(kind="uncorrelated", n=20, deltas=(25,), taus=(100,),
             alphas=(0.01,), algos=("ea11", "nsga2"), bounds=("chebyshev",),
             runs=2, total_iters=400, warmup=100, base_seed=5)


@pytest.fixture(scope="module")
def small_campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    config = CampaignConfig(**SMALL, out_dir=str(out))
    return config, run_campaign(config)


def report_of(config, result, runs_csv=None, mode="timed"):
    """The slice of a child report that ``run.account`` reads."""
    problems = checks.campaign_problems(result, config)
    return {"mode": mode, "jobs": config.jobs, "error": None,
            "runs_per_campaign": len(problems),
            "runs_csv": result.runs_csv if runs_csv is None else runs_csv,
            "runs": [{"cell_id": cell.cell_id, "problems": p}
                     for cell, _, _, p in problems]}


def corrupted(result, key, **changes):
    records = dict(result.records)
    records[key] = dataclasses.replace(records[key], **changes)
    return dataclasses.replace(result, records=records)


def test_real_campaign_passes(small_campaign):
    config, result = small_campaign
    attempted, failed, problems = bench.account([report_of(config, result)])
    assert (attempted, failed, problems) == (4, 0, [])


def negative_phi(rec):
    phi = rec.per_iteration_phi.copy()
    phi[7] = -1.0
    return {"per_iteration_phi": phi, "total_offline_error": float(phi.mean())}


@pytest.mark.parametrize("changes", [
    negative_phi,
    lambda rec: {"evaluations": rec.evaluations - 20},
    lambda rec: {"feasible_fraction": 1.5},
    lambda rec: {"change_count": rec.change_count + 1},
    lambda rec: {"total_offline_error": rec.total_offline_error + 1.0},
], ids=["negative_phi", "evaluations", "feasible_fraction", "change_count",
        "total_not_mean_phi"])
def test_corrupted_record_is_a_failed_run(small_campaign, changes):
    config, result = small_campaign
    key = (result.cells[1], 1)
    bad = corrupted(result, key, **changes(result.records[key]))
    good = report_of(config, result)
    attempted, failed, problems = bench.account([good, report_of(config, bad)])
    assert (attempted, failed) == (8, 1)
    assert len(problems) == 1 and result.cells[1].cell_id in problems[0]


def test_corrupted_csv_row_is_a_failed_run(small_campaign):
    config, result = small_campaign
    lines = result.runs_csv.splitlines(keepends=True)
    lines[2] = lines[2].replace(",", ";", 1)
    other = report_of(config, result, runs_csv="".join(lines), mode="traced")
    attempted, failed, _ = bench.account([report_of(config, result), other])
    assert (attempted, failed) == (8, 1)
    short = "".join(result.runs_csv.splitlines(keepends=True)[:-1])
    truncated = report_of(config, result, runs_csv=short)
    assert bench.account([report_of(config, result), truncated])[1] == 1


def test_raising_campaign_fails_all_its_runs(small_campaign):
    config, result = small_campaign
    crashed = dict(report_of(config, result), error="Traceback ...")
    attempted, failed, _ = bench.account([report_of(config, result), crashed])
    assert (attempted, failed) == (8, 4)


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 101))
    value, pct = layers.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0
    with pytest.raises(ValueError):
        layers.tail(values[:10])


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in layers.SPEC.items()}
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def test_every_workload_runs_whole_generations():
    for w in WORKLOADS.values():
        for seconds in (1, 7, 30):
            cfg = w.config(seed=3, seconds=seconds)
            assert (cfg["warmup"] + cfg["total_iters"]) % 20 == 0
            assert w.runs_per_campaign * w.campaigns > 10
