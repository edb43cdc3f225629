import dataclasses
import hashlib
import types

import numpy as np
import pytest

from dcckp import campaign, cli
from dcckp.campaign import RUNS_CSV_HEADER, CampaignConfig
from dcckp.cli import main
from dcckp.dynamics import build_schedule
from dcckp.model import parse_instance, serialize_instance


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


def digest(label, data):
    """The sha256 of ``data``, also printed as a ``DIGEST`` line, which CI's
    Tier-1 step copies from the ``-rP`` log to its step summary."""
    value = hashlib.sha256(data).hexdigest()
    print(f"\nDIGEST {label} sha256: {value}")
    return value


# the CI digest campaign: one fixed small campaign whose per-algorithm
# digests (the rows whose algo column names it) show which solver's RNG
# stream or designation moved; alpha 1e-4 beside 0.01, because at 0.01 alone
# the NSGA-II rows did not move when its Chernoff feasibility predicate did
CI_DIGEST_ARGS = ("run", "--n", "20", "--iters", "2000", "--warmup", "100", "--tau", "100",
                  "--runs", "2", "--algos", "ea11,posdc,nsga2", "--alpha", "0.01,0.0001",
                  "--seed", "1")
CI_ALGO_DIGESTS = {
    "ea11": "bf56c39920ee0ebd1371a33f6edfb9d42160a51d0c9f79e6b711669e8ecee680",
    "posdc": "3e1234eaa5fe72d355ab35b64cb5a90c54052f4ba518a291468b85c61887caad",
    "nsga2": "7ca7dc089175284be321511c1a2203290926ef91f18ba6d0e0319652c6439390",
}
CI_SUMMARY_DIGEST = "9b2e051590c479d19db87fc31e8090e3edceb842f51fe0fda42fcf2a7a1e87ad"
CI_TRACE_FILE = "trace-uncorrelated-n20-d25-r500-t100-a0.0001-posdc-chernoff-run1.csv"


def test_ci_digest_campaign_per_algorithm_digests(capsys, tmp_path):
    """Each algorithm's digest is the sha256 of the rows whose algo column
    names it, each with its newline; the digest of the whole runs.csv is
    printed beside them. summary.csv's digest pins its means, stds and stat
    labels; with two runs a cell, no SIMD summation order enters them."""
    code, _, _ = run_cli(capsys, *CI_DIGEST_ARGS, "--out", str(tmp_path))
    assert code == 0
    runs = (tmp_path / "runs.csv").read_bytes()
    digest("runs.csv", runs)
    rows = runs.decode().splitlines(keepends=True)
    digests = {algo: digest(f"{algo} rows", "".join(
        row for row in rows if row.split(",")[1] == algo).encode())
        for algo in CI_ALGO_DIGESTS}
    assert digests == CI_ALGO_DIGESTS
    assert digest("summary.csv", (tmp_path / "summary.csv").read_bytes()) == CI_SUMMARY_DIGEST


def test_ci_digest_campaign_traced_in_two_workers_keeps_runs_csv(capsys, tmp_path):
    """The CI digest campaign run again with ``--trace`` in two worker
    processes writes the same runs.csv bytes, so tracing and the workers'
    per-process input memos change no result, and the plain campaign writes
    no trace file; prints the trace files' count and one file's digest."""
    for name, extra in (("plain", ()), ("traced", ("--trace", "--jobs", "2"))):
        code, _, _ = run_cli(capsys, *CI_DIGEST_ARGS, *extra, "--out", str(tmp_path / name))
        assert code == 0
    traced = tmp_path / "traced"
    assert (traced / "runs.csv").read_bytes() == (tmp_path / "plain" / "runs.csv").read_bytes()
    assert not list((tmp_path / "plain").glob("trace-*.csv"))
    count = len(list(traced.glob("trace-*.csv")))
    digest(f"--trace: {count} trace files; {CI_TRACE_FILE}",
           (traced / CI_TRACE_FILE).read_bytes())


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
    assert digest("churn-shaped POSDC runs.csv", runs) == CHURN_POSDC_DIGEST


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
    assert digest("churn-shaped NSGA-II runs.csv", runs) == CHURN_NSGA2_DIGEST


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


@pytest.mark.parametrize("command", ["summarize", "stats"])
def test_repeated_run_is_config_error(capsys, tmp_path, command):
    """A runs.csv row repeated, as concatenated campaign outputs leave, would
    count its run twice: exit 1, naming the cell and run seed."""
    runs_csv = tmp_path / "runs.csv"
    write_runs_csv(runs_csv, {"ea11-chernoff": [1.0, 3.0], "posdc-chernoff": [2.0, 4.0]})
    lines = runs_csv.read_text().splitlines(keepends=True)
    runs_csv.write_text("".join(lines + lines[2:3]))
    code, out, err = run_cli(capsys, command, str(runs_csv))
    assert code == 1 and out == ""
    assert err == ("error: runs.csv repeats cell uncorrelated-n10-d25-r300-t150-a0.01-"
                   "ea11-chernoff with run_seed 1\n")


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
                                  ["--instance-seed", "-1"], ["--bounds", "gauss"],
                                  ["--warmup", "-1"], ["--warmup", "-1", "--iters", "1"],
                                  ["--alpha", "1"]],
                         ids=["jobs", "delta_high", "delta_zero",
                              "r", "tau", "c0_fraction_high", "c0_fraction_zero",
                              "c_constant", "c0_fraction_tiny", "seed", "instance_seed",
                              "bounds", "warmup", "warmup_iters_1", "alpha"])
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
    if "--warmup" in flag:  # named, whatever the run length
        assert "warmup" in err
    assert not started  # rejected before the campaign (and any worker) starts
    assert not (out_dir / "runs.csv").exists()


def test_key_error_inside_a_campaign_is_a_runtime_failure(capsys, tmp_path, monkeypatch):
    """No configuration path raises KeyError, so one from inside a campaign
    is a bug at run time: exit 2, not the configuration error's 1."""

    def broken_run_campaign(config):
        raise KeyError("cell")

    monkeypatch.setattr(cli, "run_campaign", broken_run_campaign)
    code, out, err = run_cli(capsys, "run", "--n", "10", "--out", str(tmp_path / "camp"))
    assert code == 2 and out == ""
    assert err.startswith("runtime failure: ")


@pytest.mark.parametrize("out", ["file", "file/sub"], ids=["file", "under_file"])
def test_run_out_that_cannot_be_a_directory_is_config_error(capsys, tmp_path, out):
    """--out naming a file, or a path under one, is a configuration error
    (exit 1), not a runtime failure, and no run writes anything."""
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    code, _, err = run_cli(capsys, "run", "--n", "10", "--iters", "200",
                           "--warmup", "20", "--runs", "2", "--out",
                           str(tmp_path / out))
    assert code == 1
    assert err.startswith("error: ")
    assert not list(tmp_path.rglob("runs.csv"))
    assert blocker.read_text() == "kept"


def capture_run_config(monkeypatch):
    """Stand in for the campaign: the configs `dcckp run` builds, in order."""
    configs = []

    def recording_run_campaign(config):
        configs.append(config)
        return types.SimpleNamespace(summary_csv="")

    monkeypatch.setattr(cli, "run_campaign", recording_run_campaign)
    return configs


def test_run_with_only_out_takes_campaign_config_defaults(capsys, monkeypatch):
    configs = capture_run_config(monkeypatch)
    code, _, _ = run_cli(capsys, "run", "--out", "D")
    assert code == 0
    assert configs == [CampaignConfig(out_dir="D")]


# flag, its argument(s), the CampaignConfig field it sets, the value it gives
RUN_FLAGS = [
    ("--kind", ["bsc"], "kind", "bounded-strongly-correlated"),
    ("--n", ["50"], "n", 50),
    ("--delta", ["25,50"], "deltas", (25, 50)),
    ("--alpha", ["0.001"], "alphas", (0.001,)),
    ("--r", ["100"], "rs", (100,)),
    ("--tau", ["50,200"], "taus", (50, 200)),
    ("--iters", ["500"], "total_iters", 500),
    ("--warmup", ["10"], "warmup", 10),
    ("--runs", ["3"], "runs", 3),
    ("--algos", ["nsga2, ea11"], "algos", ("nsga2", "ea11")),
    ("--bounds", ["chernoff"], "bounds", ("chernoff",)),
    ("--seed", ["7"], "base_seed", 7),
    ("--instance-seed", ["3"], "instance_seed", 3),
    ("--c", ["50"], "c_constant", 50),
    ("--c0-fraction", ["0.25"], "c0_fraction", 0.25),
    ("--jobs", ["2"], "jobs", 2),
    ("--trace", [], "trace", True),
]


def test_run_flags_cover_every_campaign_config_field():
    assert ({field for _, _, field, _ in RUN_FLAGS} | {"out_dir"}
            == {f.name for f in dataclasses.fields(CampaignConfig)})


@pytest.mark.parametrize("flag,argv,field,value", RUN_FLAGS,
                         ids=[flag for flag, *_ in RUN_FLAGS])
def test_run_flag_sets_exactly_its_own_field(capsys, monkeypatch, flag, argv,
                                             field, value):
    default = CampaignConfig(out_dir="D")
    assert getattr(default, field) != value
    configs = capture_run_config(monkeypatch)
    code, _, _ = run_cli(capsys, "run", "--out", "D", flag, *argv)
    assert code == 0
    assert configs == [dataclasses.replace(default, **{field: value})]


def test_gen_instance_without_flags_is_the_default_campaign_instance(capsys, monkeypatch):
    built = []
    generate = campaign.generate_instance

    def recording_generate_instance(*args):
        built.append(generate(*args))
        return built[-1]

    monkeypatch.setattr(campaign, "generate_instance", recording_generate_instance)
    CampaignConfig()  # checks its grid on the instance of each delta
    code, out, _ = run_cli(capsys, "gen-instance")
    assert code == 0
    assert [out] == [serialize_instance(inst) for inst in built]


@pytest.mark.parametrize("text", ["uncorrelated-n10-d25-r300-t150-a0.01-ea11-chernoff,"
                                  "ea11,chernoff,300,150,25,0.01,0,1.5,1.0,2\n",
                                  "a,b\n1,2\n", ""],
                         ids=["row_without_header", "other_columns", "empty"])
@pytest.mark.parametrize("command", ["summarize", "stats"])
def test_file_without_the_runs_csv_header_is_config_error(capsys, tmp_path, command, text):
    path = tmp_path / "runs.csv"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err == f"error: not a runs.csv: its first line must be {RUNS_CSV_HEADER}\n"


@pytest.mark.parametrize("argv", [["summarize", "{dir}"], ["stats", "{dir}"],
                                  ["gen-instance", "--out", "{dir}"]],
                         ids=["summarize", "stats", "gen-instance"])
def test_directory_where_a_file_is_expected_is_config_error(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *(arg.format(dir=tmp_path) for arg in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Is a directory" in err


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


def test_dump_schedule_warmup_defaults_to_the_campaign_warmup(capsys):
    code, out, _ = run_cli(capsys, "dump-schedule", "--c0", "500", "--tau", "10",
                           "--r", "50", "--iters", "1200", "--c-max", "1000")
    assert code == 0
    sched = build_schedule(500, 10, 50, CampaignConfig.warmup, 1200, 1, 1000, seed=0)
    assert out.splitlines()[1:] == [f"{i},{sched.capacity_at(i)}" for i in range(1200)]


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


def test_dump_dp_rejects_a_profit_beyond_int64_as_a_config_error(capsys, tmp_path):
    inst_path = tmp_path / "inst.txt"
    inst_path.write_text(f"n 2 delta 25 kind uncorrelated c 100 seed 1\n{2 ** 63} 200\n3 300\n")
    code, _, err = run_cli(capsys, "dump-dp", str(inst_path))
    assert code == 1
    assert "line 1:" in err and "reaches 2**53" in err
