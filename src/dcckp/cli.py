"""Command-line front end.

Subcommands:
  gen-instance   write a knapsack instance file
  run            execute a campaign grid, writing runs.csv / summary.csv
  summarize      recompute the per-cell summary from a runs.csv
  stats          Kruskal-Wallis + pairwise labels over a runs.csv
  dump-schedule  audit CSV (iteration,capacity) for one capacity schedule
  dump-dp        audit CSV (capacity,optimal_profit) for an instance

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dynamics, oracle, stats
from .campaign import (
    CampaignConfig,
    format_summary_csv,
    group_runs_csv,
    run_campaign,
    summarize_runs_csv,
)
from .model import generate_instance, parse_instance, serialize_instance


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _str_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcckp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-instance", help="generate an instance file")
    g.add_argument("--kind", default="uncorrelated")
    g.add_argument("--n", type=int, default=100)
    g.add_argument("--delta", type=int, default=25)
    g.add_argument("--c", type=int, default=100, dest="c_constant")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--out", type=Path, default=None,
                   help="output file (default: stdout)")

    r = sub.add_parser("run", help="run a campaign grid")
    r.add_argument("--kind", default="uncorrelated")
    r.add_argument("--n", type=int, default=100)
    r.add_argument("--delta", type=_int_list, default=[25])
    r.add_argument("--alpha", type=_float_list, default=[0.01])
    r.add_argument("--r", type=_int_list, default=[500])
    r.add_argument("--tau", type=_int_list, default=[1000])
    r.add_argument("--iters", type=int, default=100_000,
                   help="post-warmup iterations per run")
    r.add_argument("--warmup", type=int, default=1_000)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--algos", type=_str_list, default=["ea11", "posdc"])
    r.add_argument("--bounds", type=_str_list, default=["chebyshev", "chernoff"])
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--instance-seed", type=int, default=1)
    r.add_argument("--c", type=int, default=100, dest="c_constant")
    r.add_argument("--c0-fraction", type=float, default=0.5)
    r.add_argument("--out", type=Path, required=True)
    r.add_argument("--jobs", type=int, default=1)
    r.add_argument("--trace", action="store_true",
                   help="also write each run's interval log, trace-<cell>-run<i>.csv")

    s = sub.add_parser("summarize", help="summarize a runs.csv")
    s.add_argument("runs_csv", type=Path)
    s.add_argument("--out", type=Path, default=None)

    t = sub.add_parser("stats", help="Kruskal-Wallis + pairwise labels")
    t.add_argument("runs_csv", type=Path)
    t.add_argument("--family-alpha", type=float, default=0.05)

    d = sub.add_parser("dump-schedule", help="dump a schedule as CSV")
    d.add_argument("--c0", type=int, required=True)
    d.add_argument("--tau", type=int, required=True)
    d.add_argument("--r", type=int, required=True)
    d.add_argument("--warmup", type=int, default=10_000)
    d.add_argument("--iters", type=int, required=True,
                   help="total schedule length, warmup included")
    d.add_argument("--c-min", type=int, default=1)
    d.add_argument("--c-max", type=int, required=True)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("dump-dp", help="dump the DP optimum table as CSV")
    p.add_argument("instance_file", type=Path)
    p.add_argument("--c-max", type=int, default=None,
                   help="default: total expected weight")
    p.add_argument("--out", type=Path, default=None)
    return parser


def _emit(text: str, out: Path | None):
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cmd_gen_instance(args) -> int:
    inst = generate_instance(args.kind, args.n, args.delta, args.c_constant,
                             args.seed)
    _emit(serialize_instance(inst), args.out)
    return 0


def _cmd_run(args) -> int:
    config = CampaignConfig(
        kind=args.kind, n=args.n, deltas=tuple(args.delta),
        c_constant=args.c_constant, instance_seed=args.instance_seed,
        rs=tuple(args.r), taus=tuple(args.tau), alphas=tuple(args.alpha),
        algos=tuple(args.algos), bounds=tuple(args.bounds), runs=args.runs,
        total_iters=args.iters, warmup=args.warmup,
        c0_fraction=args.c0_fraction, base_seed=args.seed,
        out_dir=str(args.out), jobs=args.jobs, trace=args.trace)
    result = run_campaign(config)
    sys.stdout.write(result.summary_csv)
    return 0


def _cmd_summarize(args) -> int:
    rows = summarize_runs_csv(args.runs_csv.read_text())
    _emit(format_summary_csv(rows), args.out)
    return 0


def _cmd_stats(args) -> int:
    # checked here as well, since an untested setting labels no pairs
    if not 0.0 < args.family_alpha < 1.0:
        raise ValueError(f"family_alpha must lie in (0, 1), got {args.family_alpha}")
    out = []
    for setting, family in group_runs_csv(args.runs_csv.read_text()).items():
        named = {cid: [float(r["total_offline_error"]) for r in rows]
                 for cid, rows in family.items()}
        if not stats.testable(named):
            sys.stderr.write(f"setting {setting}: skipped, {len(named)} cell(s) of "
                             f"{min(map(len, named.values()))} run(s) at fewest; "
                             "a test needs 2 cells of 2 runs each\n")
            continue
        h, p = stats.kruskal_wallis(list(named.values()))
        labels = stats.pairwise_labels(named, args.family_alpha)
        out.append(f"setting {setting}: H={h:.4f} p={p:.6g}")
        for i, cid in enumerate(named, start=1):
            col = stats.format_stat_column(labels, list(named), cid)
            out.append(f"  ({i}) {cid}: {col}")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _cmd_dump_schedule(args) -> int:
    schedule = dynamics.build_schedule(args.c0, args.tau, args.r, args.warmup,
                                       args.iters, args.c_min, args.c_max,
                                       args.seed)
    lines = ["iteration,capacity"]
    lines.extend(f"{i},{c}" for i, c in enumerate(schedule.capacities().tolist()))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_dump_dp(args) -> int:
    inst = parse_instance(args.instance_file.read_text())
    c_max = args.c_max if args.c_max is not None else inst.total_expected_weight()
    table = oracle.dp_optimal_profits(inst, c_max)
    lines = ["capacity,optimal_profit"]
    lines.extend(f"{c},{int(p)}" for c, p in enumerate(table))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "gen-instance": _cmd_gen_instance,
    "run": _cmd_run,
    "summarize": _cmd_summarize,
    "stats": _cmd_stats,
    "dump-schedule": _cmd_dump_schedule,
    "dump-dp": _cmd_dump_dp,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
