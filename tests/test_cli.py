import numpy as np
import pytest

from dcckp import cli
from dcckp.cli import main
from dcckp.dynamics import build_schedule
from dcckp.model import parse_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_instance_round_trips(capsys, tmp_path):
    path = tmp_path / "inst.txt"
    code, out, _ = run_cli(capsys, "gen-instance", "--kind", "bsc", "--n", "8",
                           "--delta", "50", "--seed", "3", "--out", str(path))
    assert code == 0
    inst = parse_instance(path.read_text())
    assert inst.n == 8 and inst.delta == 50
    assert inst.kind == "bounded-strongly-correlated"


def test_gen_instance_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen-instance", "--n", "3", "--delta", "25")
    assert code == 0
    assert parse_instance(out).n == 3


def test_gen_instance_bad_arguments(capsys):
    code, _, err = run_cli(capsys, "gen-instance", "--n", "0")
    assert code == 1
    assert "error" in err


def test_run_and_summarize_and_stats(capsys, tmp_path):
    out_dir = tmp_path / "camp"
    code, out, _ = run_cli(
        capsys, "run", "--n", "10", "--delta", "25", "--alpha", "0.01",
        "--r", "300", "--tau", "150", "--iters", "400", "--warmup", "100",
        "--runs", "3", "--algos", "ea11,posdc", "--bounds", "chernoff",
        "--seed", "5", "--out", str(out_dir))
    assert code == 0
    assert out.startswith("cell_id,")
    runs_csv = out_dir / "runs.csv"
    assert runs_csv.exists()

    code, out, _ = run_cli(capsys, "summarize", str(runs_csv))
    assert code == 0
    assert out.splitlines()[0].startswith("cell_id,")
    assert len(out.splitlines()) == 3  # header + two cells

    code, out, _ = run_cli(capsys, "stats", str(runs_csv))
    assert code == 0
    assert "H=" in out and "(1)" in out and "(2)" in out


def write_runs_csv(path, errors):
    """A runs.csv of one setting: cell id suffix -> total offline errors."""
    lines = ["cell_id,algo,bound,r,tau,delta,alpha,run_seed,"
             "total_offline_error,feasible_fraction,change_count"]
    for suffix, values in errors.items():
        algo, bound = suffix.split("-")
        lines += [f"uncorrelated-n10-d25-r300-t150-a0.01-{suffix},{algo},{bound},"
                  f"300,150,25,0.01,{j},{v!r},1.0,2" for j, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("family_alpha", ["5", "1", "0", "-1", "nan"])
def test_stats_rejects_family_alpha_outside_unit_interval(capsys, tmp_path, family_alpha):
    runs_csv = tmp_path / "runs.csv"
    write_runs_csv(runs_csv, {"ea11-chernoff": [1.0, 3.0, 5.0, 7.0],
                              "posdc-chernoff": [2.0, 4.0, 6.0, 8.0]})
    code, out, _ = run_cli(capsys, "stats", str(runs_csv))
    assert code == 0 and "(1) uncorrelated" in out and "(*)" in out
    code, out, err = run_cli(capsys, "stats", str(runs_csv),
                             "--family-alpha", family_alpha)
    assert code == 1 and out == ""
    assert "family_alpha must lie in (0, 1)" in err


@pytest.mark.parametrize("family_alpha", ["5", "0", "nan"])
def test_stats_rejects_family_alpha_before_grouping(capsys, tmp_path, family_alpha):
    """A runs.csv of one row has no pair to label, and still fails."""
    runs_csv = tmp_path / "runs.csv"
    write_runs_csv(runs_csv, {"ea11-chernoff": [1.0]})
    code, out, _ = run_cli(capsys, "stats", str(runs_csv))
    assert code == 0 and out.strip() == ""
    code, out, err = run_cli(capsys, "stats", str(runs_csv),
                             "--family-alpha", family_alpha)
    assert code == 1 and out == ""
    assert "family_alpha must lie in (0, 1)" in err


def test_summarize_reproduces_campaign_summary(capsys, tmp_path):
    out_dir = tmp_path / "camp"
    code, _, _ = run_cli(
        capsys, "run", "--n", "10", "--delta", "25,50", "--alpha", "0.01,0.001",
        "--r", "300", "--tau", "150", "--iters", "300", "--warmup", "50",
        "--runs", "3", "--algos", "ea11,posdc,nsga2", "--bounds", "chebyshev,chernoff",
        "--seed", "5", "--jobs", "2", "--out", str(out_dir))
    assert code == 0
    summary = out_dir / "summary.csv"
    again = tmp_path / "again.csv"
    code, _, _ = run_cli(capsys, "summarize", str(out_dir / "runs.csv"),
                         "--out", str(again))
    assert code == 0
    assert again.read_bytes() == summary.read_bytes()
    assert len(summary.read_text().splitlines()) == 1 + 2 * 2 * 3 * 2


def test_run_missing_out_flag_is_config_error(capsys):
    code, _, _ = run_cli(capsys, "run", "--n", "10")
    assert code == 1


@pytest.mark.parametrize("flag", [["--jobs", "0"], ["--trace", "--trace-every", "0"],
                                  ["--delta", "25,150", "--jobs", "2"],
                                  ["--delta", "0"], ["--r", "0"], ["--tau", "0"],
                                  ["--c0-fraction", "1.5", "--jobs", "2"],
                                  ["--c0-fraction", "0"], ["--c", "0"],
                                  ["--c0-fraction", "1e-6"]],
                         ids=["jobs", "trace_every", "delta_high", "delta_zero",
                              "r", "tau", "c0_fraction_high", "c0_fraction_zero",
                              "c_constant", "c0_fraction_tiny"])
def test_run_bad_config_fails_before_any_output(capsys, tmp_path, monkeypatch, flag):
    started = []
    real_run_campaign = cli.run_campaign

    def recording_run_campaign(config):
        started.append(config)
        return real_run_campaign(config)

    monkeypatch.setattr(cli, "run_campaign", recording_run_campaign)
    out_dir = tmp_path / "camp"
    code, _, err = run_cli(capsys, "run", "--n", "10", "--iters", "200",
                           "--warmup", "20", "--runs", "2", "--out", str(out_dir),
                           *flag)
    assert code == 1 and "error" in err
    assert not started  # rejected before the campaign (and any worker) starts
    assert not (out_dir / "runs.csv").exists()


def test_summarize_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "summarize", str(tmp_path / "nope.csv"))
    assert code == 1


def test_dump_schedule(capsys, tmp_path):
    path = tmp_path / "sched.csv"
    code, _, _ = run_cli(capsys, "dump-schedule", "--c0", "500", "--tau", "10",
                         "--r", "50", "--warmup", "20", "--iters", "60",
                         "--c-max", "1000", "--seed", "2", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,capacity"
    assert len(lines) == 61
    assert lines[1] == "0,500"
    assert lines[20] == "19,500"  # constant through the warmup
    caps = [int(line.split(",")[1]) for line in lines[1:]]
    assert max(abs(b - a) for a, b in zip(caps, caps[1:])) <= 50
    sched = build_schedule(500, 10, 50, 20, 60, 1, 1000, seed=2)
    assert lines[1:] == [f"{i},{sched.capacity_at(i)}" for i in range(60)]


def test_dump_dp(capsys, tmp_path):
    inst_path = tmp_path / "inst.txt"
    run_cli(capsys, "gen-instance", "--n", "5", "--delta", "25", "--seed", "1",
            "--out", str(inst_path))
    out_path = tmp_path / "dp.csv"
    code, _, _ = run_cli(capsys, "dump-dp", str(inst_path), "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "capacity,optimal_profit"
    assert lines[1] == "0,0"
    profits = np.array([int(line.split(",")[1]) for line in lines[1:]])
    assert (np.diff(profits) >= 0).all()


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1
