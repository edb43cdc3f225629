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
    csv_text,
    format_summary_csv,
    group_runs_csv,
    run_campaign,
    summarize_runs_csv,
)
from .model import generate_instance, parse_instance, serialize_instance


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok)


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dcckp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # gen-instance writes the instance a default campaign runs on
    g = sub.add_parser("gen-instance", help="generate an instance file")
    g.add_argument("--kind", default=CampaignConfig.kind)
    g.add_argument("--n", type=int, default=CampaignConfig.n)
    g.add_argument("--delta", type=int, default=CampaignConfig.deltas[0])
    g.add_argument("--c", type=int, default=CampaignConfig.c_constant,
                   dest="c_constant")
    g.add_argument("--seed", type=int, default=CampaignConfig.instance_seed)
    g.add_argument("--out", type=Path, default=None,
                   help="output file (default: stdout)")

    # each flag's dest is a CampaignConfig field, which a flag left out
    # keeps at its default
    r = sub.add_parser("run", help="run a campaign grid",
                       argument_default=argparse.SUPPRESS)
    r.add_argument("--kind")
    r.add_argument("--n", type=int)
    r.add_argument("--delta", type=_int_list, dest="deltas")
    r.add_argument("--alpha", type=_float_list, dest="alphas")
    r.add_argument("--r", type=_int_list, dest="rs")
    r.add_argument("--tau", type=_int_list, dest="taus")
    r.add_argument("--iters", type=int, dest="total_iters",
                   help="post-warmup iterations per run")
    r.add_argument("--warmup", type=int)
    r.add_argument("--runs", type=int)
    r.add_argument("--algos", type=_str_list)
    r.add_argument("--bounds", type=_str_list)
    r.add_argument("--seed", type=int, dest="base_seed")
    r.add_argument("--instance-seed", type=int)
    r.add_argument("--c", type=int, dest="c_constant")
    r.add_argument("--c0-fraction", type=float)
    r.add_argument("--out", required=True, dest="out_dir")
    r.add_argument("--jobs", type=int)
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
    d.add_argument("--warmup", type=int, default=CampaignConfig.warmup)
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
    flags = {name: value for name, value in vars(args).items() if name != "command"}
    result = run_campaign(CampaignConfig(**flags))
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
    for setting, _, named, labels in group_runs_csv(args.runs_csv.read_text(),
                                                    args.family_alpha):
        if labels is None:
            sys.stderr.write(f"setting {setting}: skipped, {len(named)} cell(s) of "
                             f"{min(map(len, named.values()))} run(s) at fewest; "
                             "a test needs 2 cells of 2 runs each\n")
            continue
        h, p = stats.kruskal_wallis(list(named.values()))
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
    _emit(csv_text("iteration,capacity", enumerate(schedule.capacities().tolist())),
          args.out)
    return 0


def _cmd_dump_dp(args) -> int:
    inst = parse_instance(args.instance_file.read_text())
    c_max = args.c_max if args.c_max is not None else inst.total_expected_weight()
    table = oracle.dp_optimal_profits(inst, c_max)
    _emit(csv_text("capacity,optimal_profit", enumerate(table.tolist())), args.out)
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
    except (ValueError, FileNotFoundError, FileExistsError,
            NotADirectoryError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
