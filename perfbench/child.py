"""Run one campaign of a workload in this (fresh) process and report on it.

    python3 perfbench/child.py --mode timed|traced --workload NAME --seed N \
        --seconds S --jobs J --out DIR

Writes ``DIR/report.json``; the campaign writes ``runs.csv`` and
``summary.csv`` to ``DIR`` as ``dcckp run`` would. ``timed`` installs only
the per-run timer; ``traced`` runs serially with every span wrapper
installed and also writes the stored spans to ``DIR/spans.csv``; the
per-name calls and self times go into the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import pickle
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_library() -> None:
    """Import ``dcckp`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "dcckp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dcckp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dcckp
    if Path(dcckp.__file__).resolve().parent != (SRC / "dcckp").resolve():
        raise SystemExit(f"perfbench: dcckp imported from {dcckp.__file__}, "
                         f"not from {SRC}")


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "start_method": multiprocessing.get_start_method()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("timed", "traced"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import_library()
    from dcckp import campaign
    import checks
    import probes
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_kwargs = workload.config(args.seed, args.seconds, jobs=args.jobs,
                                 out_dir=str(out))
    config = campaign.CampaignConfig(**cfg_kwargs)

    tracer = calibration = None
    if args.mode == "timed":
        timing_dir = out / "timing"
        timing_dir.mkdir(exist_ok=True)
        probes.install_run_timer(str(timing_dir))
    else:
        calibration = probes.calibrate_span_cost()
        tracer = probes.Tracer()
        tracer.install()

    report = {"mode": args.mode, "jobs": args.jobs, "config": cfg_kwargs,
              "machine": machine(), "runs_per_campaign": workload.runs_per_campaign,
              "error": None}
    t0 = time.perf_counter()
    try:
        result = campaign.run_campaign(config)
    except Exception:  # a failing campaign is reported as failed runs
        report["error"] = traceback.format_exc()
        result = None
    report["wall_s"] = time.perf_counter() - t0
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)

    if result is not None:
        runs_csv = (out / "runs.csv").read_text()
        report["runs_csv"] = runs_csv
        report["runs_csv_sha256"] = hashlib.sha256(runs_csv.encode()).hexdigest()
        timings = (probes.read_run_timings(str(out / "timing"))
                   if args.mode == "timed" else {})
        runs, phi_bytes, result_bytes = [], [], []
        for cell, j, rec, problems in checks.campaign_problems(result, config):
            timing = timings.get((cell.cell_id, j), {})
            runs.append({"cell_id": cell.cell_id,
                         "combo": f"{cell.algo}-{cell.bound}",
                         "evaluations": int(rec.evaluations),
                         "wall_s": timing.get("wall_s"),
                         "setup_s": timing.get("setup_s"),
                         "problems": problems})
            phi = getattr(rec, "per_iteration_phi", None)
            phi_bytes.append(0 if phi is None else int(phi.nbytes))
            if tracer is not None:
                result_bytes.append(len(pickle.dumps(rec)))
        report["runs"] = runs
        if tracer is not None:
            report["layers"] = trace_summary(tracer, calibration, phi_bytes,
                                             result_bytes)
            tracer.write_spans(str(out / "spans.csv"))
    (out / "report.json").write_text(json.dumps(report))
    return 0


def trace_summary(tracer, calibration, phi_bytes, result_bytes) -> dict:
    return {"by_name": tracer.by_name(), "counters": tracer.counters,
            "calibration": calibration,
            "posdc_inserts": tracer.calls_between("solvers.step.posdc",
                                                  "solvers.archive.insert"),
            "chance_calls_from_outside": tracer.calls_from_outside("chance."),
            "spans": tracer.span_count(), "stored_spans": len(tracer.span_name),
            "schedules": tracer.schedules, "dp_cells": tracer.dp_cells,
            "phi_bytes": phi_bytes, "result_bytes": result_bytes,
            "missing": tracer.missing}


if __name__ == "__main__":
    sys.exit(main())
