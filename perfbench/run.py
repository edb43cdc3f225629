"""The dcckp benchmark: campaign throughput, set-up and memory per workload.

    python3 perfbench/run.py --workload desk|wide|churn|all --seed N \
        --seconds S --trace 0|1

Every campaign goes through the public entry point ``campaign.run_campaign``
in a fresh child process (``child.py``), built from this checkout's ``src``.

``--trace 0`` runs the workload's number of timed campaigns of one config and
prints the end-to-end metrics: solver iterations per second of campaign wall
time, the median and tail per-run wall time, set-up time summed over all
processes, and the campaign parent's peak RSS, each a median over campaigns
or over all their runs.

``--trace 1`` runs one timed campaign at the workload's jobs, one untraced
serial campaign (the same one when the workload is serial) and one traced
serial campaign of the same config, and prints the per-layer metrics of
``layers.SPEC`` with the tracing overhead.

Every campaign's runs are checked (``checks.py``), and all campaigns of one
benchmark run must write the same ``runs.csv``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload both ways and prefixes
each metric with its workload. Reports, ``runs.csv`` files and spans are
kept under ``.perfbench_out/`` at the checkout's root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BUDGET_S = 170.0   # one workload must finish well inside 180 s

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"iters_per_s": "iter/s", "run_s_p50": "s", "run_s_tail": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def run_child(mode, workload, seed, seconds, jobs, out: Path, deadline):
    """One campaign in a fresh process; returns its report."""
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", workload.name, "--seed", str(seed),
           "--seconds", str(seconds), "--jobs", str(jobs), "--out", str(out)]
    timeout = None if deadline is None else deadline - time.monotonic()
    if timeout is not None and timeout <= 0:
        raise BenchError("time budget used up before the next campaign")
    # own process group, so a timeout also stops the campaign's workers
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{mode} campaign of {workload.name} timed out") from None
    if code != 0:
        raise BenchError(f"{mode} campaign of {workload.name} exited with {code}")
    return json.loads((out / "report.json").read_text())


def account(reports):
    """(attempted, failed, problems) over campaigns that must all write the
    same runs.csv; the first campaign that finished is the reference."""
    ref = next((r["runs_csv"] for r in reports if r["error"] is None), None)
    attempted = failed = 0
    problems = []
    for r in reports:
        n = r["runs_per_campaign"]
        attempted += n
        if r["error"] is not None:
            failed += n
            problems.append(f"{r['mode']} campaign raised:\n{r['error']}")
            continue
        per_run = [run["problems"] for run in r["runs"]]
        per_run += [["missing from the campaign result"]] * (n - len(per_run))
        csv_bad = checks.csv_mismatches(r["runs_csv"], ref)
        failed += checks.failed_runs(per_run, csv_bad)
        for run, p in zip(r["runs"], per_run):
            problems.extend(f"{r['mode']} {run['cell_id']}: {msg}" for msg in p)
        if csv_bad:
            problems.append(f"{r['mode']} (jobs={r['jobs']}) runs.csv differs "
                            f"from the reference in rows {csv_bad[:10]}")
    return attempted, failed, problems


def end_to_end(reports) -> tuple:
    good = [r for r in reports if r["error"] is None]
    if not good:
        return {name: 0.0 for name in END_TO_END}, ["no campaign finished"]
    walls = [run["wall_s"] for r in good for run in r["runs"]]
    tail, pct = layers.tail(walls)
    metrics = {
        "iters_per_s": statistics.median(
            sum(run["evaluations"] for run in r["runs"]) / r["wall_s"]
            for r in good),
        "run_s_p50": statistics.median(walls),
        "run_s_tail": tail,
        "setup_s": statistics.median(
            sum(run["setup_s"] for run in r["runs"]) for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }
    notes = {
        "iters_per_s": f"median of {len(good)} campaigns",
        "run_s_p50": f"median of {len(walls)} runs",
        "run_s_tail": f"p{pct:.1f}: 10 of {len(walls)} runs beyond it",
        "setup_s": f"summed over processes, median of {len(good)} campaigns",
        "peak_rss_mb": f"campaign parent, median of {len(good)} fresh processes",
    }
    return metrics, notes


def describe(workload, report) -> str:
    cfg = report["config"]
    g = workload.grid
    return (f"{workload.name}: {cfg['kind']} n={cfg['n']} delta={list(g['deltas'])} "
            f"tau={list(g['taus'])} alpha={list(g['alphas'])} "
            f"algos={list(g['algos'])} bounds={list(g['bounds'])}; "
            f"{workload.cells} cells x {workload.runs} runs x "
            f"{cfg['warmup'] + cfg['total_iters']} iterations")


def bench_timed(workload, seed, seconds, deadline, base: Path) -> dict:
    reports = [run_child("timed", workload, seed, seconds, workload.jobs,
                         base / f"timed-{k}", deadline)
               for k in range(workload.campaigns)]
    metrics, notes = end_to_end(reports)
    attempted, failed, problems = account(reports)
    print(describe(workload, reports[0]))
    print(f"  timed: {len(reports)} campaigns at jobs={workload.jobs}, "
          f"each in a fresh parent process")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} = {metrics[name]:.6g} {unit}  ({notes[name]})")
    return finish(reports, metrics, attempted, failed, problems)


def bench_traced(workload, seed, seconds, deadline, base: Path) -> dict:
    timed = run_child("timed", workload, seed, seconds, workload.jobs,
                      base / "timed", deadline)
    reports = [timed]
    serial = timed
    if workload.jobs > 1:
        serial = run_child("timed", workload, seed, seconds, 1,
                           base / "serial", deadline)
        reports.append(serial)
    traced = run_child("traced", workload, seed, seconds, 1,
                       base / "traced", deadline)
    reports.append(traced)
    attempted, failed, problems = account(reports)
    print(describe(workload, timed))
    untraced = (f"campaigns at jobs={workload.jobs} and jobs=1"
                if workload.jobs > 1 else "the timed campaign at jobs=1")
    print(f"  traced: serially (jobs=1) in one process; untraced figures from "
          f"{untraced}; spans in {base / 'traced' / 'spans.csv'}")
    if any(r["error"] is not None for r in reports):
        metrics = {name: 0.0 for name in layers.SPEC}
    else:
        metrics = layers.layer_metrics(timed, serial, traced)
        lay = traced["layers"]
        print(f"  tracing overhead {metrics['trace.overhead_frac']:+.1%} over "
              f"the untraced serial campaign; {lay['spans']} spans "
              f"({lay['stored_spans']} stored) at "
              f"{metrics['trace.span_cost_us']:.3f} us each")
        if lay["missing"]:
            print(f"  probes not found (their layers read 0): {lay['missing']}")
    for name, (unit, _, moves) in layers.SPEC.items():
        print(f"  {name:<32} = {metrics[name]:<12.6g} {unit:<10} -> {moves}")
    return finish(reports, metrics, attempted, failed, problems)


def finish(reports, metrics, attempted, failed, problems) -> dict:
    for msg in problems[:20]:
        print(f"  CHECK FAILED: {msg}")
    shas = sorted({r["runs_csv_sha256"] for r in reports if r["error"] is None})
    print(f"  runs: {failed} failed of {attempted} attempted; "
          f"runs.csv sha256 {', '.join(shas) or 'none'}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics, "runs_csv_sha256": shas,
            "machine": reports[0]["machine"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "dcckp" / "__init__.py").is_file():
        print(f"perfbench: no dcckp sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS.values() for t in (0, 1)]
        deadline = None
    else:
        plan = [(WORKLOADS[args.workload], args.trace)]
        deadline = time.monotonic() + BUDGET_S
    print(f"perfbench seed={args.seed} seconds={args.seconds:g}")
    results = {}
    try:
        for workload, trace in plan:
            base = OUT / f"{workload.name}-seed{args.seed}-trace{trace}"
            bench = bench_traced if trace else bench_timed
            res = bench(workload, args.seed, args.seconds, deadline, base)
            results[(workload.name, trace)] = res
            (base / "result.json").write_text(json.dumps(res, indent=1))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    machine = next(iter(results.values()))["machine"]
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))

    units = {**END_TO_END, **{k: v[0] for k, v in layers.SPEC.items()}}
    prefix = args.workload == "all"
    metrics = {}
    for (name, _), res in results.items():
        for key, value in res["metrics"].items():
            metrics[f"{name}.{key}" if prefix else key] = {
                "value": value, "unit": units[key]}
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
