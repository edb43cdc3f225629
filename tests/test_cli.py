import hashlib

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


# the per-algorithm runs.csv digests of the CI "runs.csv digest" campaign;
# a change to a solver's RNG stream or designation moves its digest
CI_DIGEST_ARGS = ("run", "--n", "20", "--iters", "2000", "--warmup", "100", "--tau", "100",
                  "--runs", "2", "--algos", "ea11,posdc,nsga2", "--alpha", "0.01,0.0001",
                  "--seed", "1")
CI_ALGO_DIGESTS = {
    "ea11": "7c5518686e8bd9f1e8d3cffe2672de5b28f695adb006d2b736fd6ef522b32ede",
    "posdc": "3e1234eaa5fe72d355ab35b64cb5a90c54052f4ba518a291468b85c61887caad",
    "nsga2": "7ca7dc089175284be321511c1a2203290926ef91f18ba6d0e0319652c6439390",
}


def test_ci_digest_campaign_per_algorithm_digests(capsys, tmp_path):
    """Each algorithm's digest as CI's awk takes it: the sha256 of the rows
    whose algo column names it, each with its newline."""
    code, _, _ = run_cli(capsys, *CI_DIGEST_ARGS, "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "runs.csv").read_text().splitlines(keepends=True)
    digests = {algo: hashlib.sha256("".join(
        row for row in rows if row.split(",")[1] == algo).encode()).hexdigest()
        for algo in CI_ALGO_DIGESTS}
    assert digests == CI_ALGO_DIGESTS


# runs.csv of a churn-shaped POSDC campaign (bounded strongly correlated,
# tau 25): its capacity drops reseed the archive's S+ side, which the CI
# digest campaign never does
CHURN_POSDC_ARGS = ("run", "--kind", "bsc", "--n", "30", "--iters", "4000", "--warmup", "100",
                    "--tau", "25", "--runs", "2", "--algos", "posdc", "--alpha", "0.01,0.0001",
                    "--seed", "1")
CHURN_POSDC_DIGEST = "0a56dd72781e0ea2aad988ba3c302f134bbd834eab39e38682c3f26d22e86fc4"


def test_churn_posdc_campaign_digest(capsys, tmp_path):
    code, _, _ = run_cli(capsys, *CHURN_POSDC_ARGS, "--out", str(tmp_path))
    assert code == 0
    runs = (tmp_path / "runs.csv").read_bytes()
    assert hashlib.sha256(runs).hexdigest() == CHURN_POSDC_DIGEST


# runs.csv of the same churn-shaped campaign for NSGA-II: its parents and
# children nearly always form one front, so every generation's survival
# compares float C* values and picks by crowding distances, which divide
# floats
CHURN_NSGA2_ARGS = tuple("nsga2" if arg == "posdc" else arg for arg in CHURN_POSDC_ARGS)
CHURN_NSGA2_DIGEST = "0b2a1fdd8556f91883d838ab6de1f53bcd4af298166eb1cde4603ed2e4b8b01f"


def test_churn_nsga2_campaign_digest(capsys, tmp_path):
    code, _, _ = run_cli(capsys, *CHURN_NSGA2_ARGS, "--out", str(tmp_path))
    assert code == 0
    runs = (tmp_path / "runs.csv").read_bytes()
    assert hashlib.sha256(runs).hexdigest() == CHURN_NSGA2_DIGEST


def write_runs_csv(path, errors):
    """A runs.csv of one setting: cell id suffix -> total offline errors."""
    lines = ["cell_id,algo,bound,r,tau,delta,alpha,run_seed,"
             "total_offline_error,feasible_fraction,change_count"]
    for suffix, values in errors.items():
        algo, bound = suffix.split("-")
        lines += [f"uncorrelated-n10-d25-r300-t150-a0.01-{suffix},{algo},{bound},"
                  f"300,150,25,0.01,{j},{v!r},1.0,2" for j, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")


def test_stats_on_groups_with_equal_mean_ranks(capsys, tmp_path):
    """Six cells with the same errors in any order have H = 0 at odd df,
    where the expanded form of H cancels below 0 and the chi-square
    survival took the square root of a negative value."""
    errors = [3.2, 1.5, 3.8, 3.5, 3.8, 2.4, 1.8, 1.4, 3.5, 3.3, 4.7]
    rng = np.random.default_rng(1)
    runs_csv = tmp_path / "runs.csv"
    write_runs_csv(runs_csv, {f"{algo}-{bound}": rng.permutation(errors).tolist()
                              for algo in ("ea11", "posdc", "nsga2")
                              for bound in ("chebyshev", "chernoff")})
    code, out, err = run_cli(capsys, "stats", str(runs_csv))
    assert code == 0 and err == ""
    assert "H=0.0000 p=1\n" in out and "(6)" in out


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


def test_stats_skips_settings_with_a_cell_of_one_run(capsys, tmp_path):
    """One rule for `dcckp stats` and summary.csv: a setting is tested only
    when it has 2 cells and every cell 2 runs. With one run a cell, H would
    read exactly k - 1 (5.0 for 6 cells) whatever the errors."""
    out_dir = tmp_path / "camp"
    code, _, _ = run_cli(
        capsys, "run", "--n", "10", "--alpha", "0.01", "--iters", "300", "--warmup", "50",
        "--tau", "150", "--runs", "1", "--algos", "ea11,posdc,nsga2",
        "--bounds", "chebyshev,chernoff", "--seed", "5", "--out", str(out_dir))
    assert code == 0
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert len(summary) == 7 and all(row.endswith(",") for row in summary[1:])
    code, out, err = run_cli(capsys, "stats", str(out_dir / "runs.csv"))
    assert code == 0 and "H=" not in out and "(1)" not in out
    setting = summary[1].split(",")[0].rsplit("-", 2)[0]
    assert err == (f"setting {setting}: skipped, 6 cell(s) of 1 run(s) at fewest; "
                   "a test needs 2 cells of 2 runs each\n")

    # one cell of one run beside cells of three skips the whole setting,
    # in summary.csv as well
    runs_csv = tmp_path / "runs.csv"
    write_runs_csv(runs_csv, {"ea11-chernoff": [1.0, 3.0, 5.0],
                              "posdc-chernoff": [2.0, 4.0, 6.0],
                              "nsga2-chernoff": [7.0]})
    code, out, err = run_cli(capsys, "stats", str(runs_csv))
    assert code == 0 and out.strip() == "" and err.count("skipped, 3 cell(s) of 1 run(s)") == 1
    code, out, _ = run_cli(capsys, "summarize", str(runs_csv))
    assert code == 0 and all(row.endswith(",") for row in out.splitlines()[1:])
    write_runs_csv(runs_csv, {"ea11-chernoff": [1.0, 3.0, 5.0],
                              "posdc-chernoff": [2.0, 4.0, 6.0]})
    code, out, err = run_cli(capsys, "stats", str(runs_csv))
    assert code == 0 and "H=" in out and err == ""
    code, out, _ = run_cli(capsys, "summarize", str(runs_csv))
    assert code == 0 and not any(row.endswith(",") for row in out.splitlines()[1:])


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


@pytest.mark.parametrize("flag", [["--jobs", "0"], ["--delta", "25,150", "--jobs", "2"],
                                  ["--delta", "0"], ["--r", "0"], ["--tau", "0"],
                                  ["--c0-fraction", "1.5", "--jobs", "2"],
                                  ["--c0-fraction", "0"], ["--c", "0"],
                                  ["--c0-fraction", "1e-6"], ["--seed", "-1"],
                                  ["--instance-seed", "-1"]],
                         ids=["jobs", "delta_high", "delta_zero",
                              "r", "tau", "c0_fraction_high", "c0_fraction_zero",
                              "c_constant", "c0_fraction_tiny", "seed", "instance_seed"])
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


@pytest.mark.parametrize("argv", [
    ["gen-instance"],
    ["dump-schedule", "--c0", "5", "--tau", "2", "--r", "1", "--iters", "5", "--c-max", "10"],
], ids=["gen-instance", "dump-schedule"])
def test_negative_seed_is_rejected_by_name(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 1
    assert "error: seed must be >= 0" in err


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
