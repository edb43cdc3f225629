"""Per-layer metrics of a traced benchmark run, and what each should move.

Time metrics are self time per campaign iteration (all solvers together)
unless the unit says otherwise, so the per-iteration layers add up to the
traced cost of an iteration. Self time is a span minus its child spans,
corrected by the calibrated cost of an empty span: the part of the span's
own interval (once per span) and the part its caller pays (once per direct
child span). Counts are exact and repeat for a fixed seed.

``SPEC`` records, for each layer metric, its unit, which direction is
better, and the end-to-end metric it should move on which workload.
"""

from __future__ import annotations

COMBOS = tuple(f"{a}-{b}" for a in ("ea11", "posdc", "nsga2")
               for b in ("chebyshev", "chernoff"))

# name: (unit, better, the end-to-end metric it should move on which workload)
SPEC = {
    **{f"solvers.{c}.iter_us": ("us/iter", "lower",
                                "iters_per_s, run_s_p50, run_s_tail on every "
                                "workload running this combo (untraced)")
       for c in COMBOS},
    "solvers.mutate_us": ("us/iter", "lower", "iters_per_s on desk, wide"),
    "solvers.mutate_noop_frac": ("ratio", "lower", "iters_per_s on desk, wide"),
    "chance.bound_us": ("us/iter", "lower", "iters_per_s on desk, churn"),
    "chance.calls_per_iter": ("count/iter", "lower", "iters_per_s on desk, churn"),
    "solvers.accept_us": ("us/iter", "lower", "iters_per_s on desk"),
    "solvers.accept_frac": ("ratio", "higher", "iters_per_s on desk"),
    "solvers.archive_us": ("us/iter", "lower", "iters_per_s on churn"),
    "solvers.archive_size_mean": ("count", "lower", "iters_per_s on churn"),
    "solvers.archive_size_peak": ("count", "lower", "iters_per_s on churn"),
    "solvers.on_change_us": ("us/change", "lower",
                             "iters_per_s, run_s_tail on churn"),
    "solvers.on_change_calls": ("count", "lower",
                                "iters_per_s, run_s_tail on churn"),
    "solvers.designate_us": ("us/iter", "lower", "iters_per_s on desk"),
    "solvers.driver_us": ("us/iter", "lower", "iters_per_s on desk"),
    "solvers.nsga2_gen_us": ("us/gen", "lower", "iters_per_s on wide, churn"),
    "solvers.nsga2_sort_us": ("us/gen", "lower", "iters_per_s on wide, churn"),
    "oracle.dp_s": ("s", "lower", "setup_s on wide"),
    "oracle.dp_calls": ("count", "lower", "setup_s on wide"),
    "oracle.dp_cells": ("count", "lower", "setup_s on wide"),
    "model.instance_ms": ("ms", "lower", "setup_s on churn"),
    "dynamics.schedule_ms": ("ms", "lower", "setup_s on churn"),
    "dynamics.changes": ("count", "lower", "setup_s on churn"),
    "dynamics.clamps": ("count", "lower", "setup_s on churn"),
    "metrics.phi_bytes_per_run": ("bytes", "lower", "peak_rss_mb on desk"),
    "campaign.result_bytes_per_run": ("bytes", "lower", "peak_rss_mb on desk"),
    "campaign.parallel_eff": ("ratio", "higher", "iters_per_s on desk, wide"),
    "stats.labels_ms": ("ms", "lower", "iters_per_s on desk"),
    "trace.overhead_frac": ("ratio", "lower", "none: cost of tracing itself"),
    "trace.span_cost_us": ("us", "lower", "none: calibrated empty span"),
    "trace.spans": ("count", "lower", "none: spans recorded"),
}


def combo_iter_us(timed: dict) -> dict:
    """Untraced µs per iteration of each (algo, bound), from the per-run wall
    time of a timed campaign minus the set-up inside the run."""
    busy, iters = {}, {}
    for run in timed["runs"]:
        c = run["combo"]
        busy[c] = busy.get(c, 0.0) + run["wall_s"] - run["setup_s"]
        iters[c] = iters.get(c, 0) + run["evaluations"]
    return {f"solvers.{c}.iter_us": (1e6 * busy[c] / iters[c] if c in iters else 0.0)
            for c in COMBOS}


def layer_metrics(timed: dict, serial: dict, traced: dict) -> dict:
    """Every metric of ``SPEC`` from a timed campaign at the workload's jobs,
    an untraced serial campaign and a traced serial campaign of one config."""
    lay = traced["layers"]
    cal = lay["calibration"]
    by_name = lay["by_name"]
    iters = sum(r["evaluations"] for r in traced["runs"])

    def corrected(name):
        calls, self_ns, _, children = by_name.get(name, (0, 0, 0, 0))
        return max(0.0, self_ns - calls * cal["inner_ns"]
                   - children * cal["outer_ns"])

    def group(prefix):
        names = [n for n in by_name if n == prefix or n.startswith(prefix + ".")]
        return (sum(corrected(n) for n in names),
                sum(by_name[n][0] for n in names),
                sum(by_name[n][2] for n in names))

    def per_iter_us(prefix):
        return group(prefix)[0] / iters / 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    c = lay["counters"]
    mutate_calls = group("solvers.mutate")[1]
    offspring = mutate_calls - c["mutate_noop"]
    change_ns, change_calls, _ = group("solvers.on_change")
    gen_ns, generations, _ = group("solvers.generation")
    sort_ns = group("solvers.nsga2_sort")[0]
    schedules = lay["schedules"]
    runs = len(traced["runs"])
    timed_busy = sum(r["wall_s"] for r in timed["runs"])

    out = combo_iter_us(timed)
    out.update({
        "solvers.mutate_us": per_iter_us("solvers.mutate"),
        "solvers.mutate_noop_frac": ratio(c["mutate_noop"], mutate_calls),
        "chance.bound_us": per_iter_us("chance"),
        "chance.calls_per_iter": lay["chance_calls_from_outside"] / iters,
        "solvers.accept_us": per_iter_us("solvers.step"),
        "solvers.accept_frac": ratio(c["ea11_kept"] + lay["posdc_inserts"],
                                     offspring),
        "solvers.archive_us": per_iter_us("solvers.archive"),
        "solvers.archive_size_mean": ratio(c["archive_size_sum"],
                                           c["posdc_steps"]),
        "solvers.archive_size_peak": c["archive_size_peak"],
        "solvers.on_change_us": ratio(change_ns, change_calls) / 1e3,
        "solvers.on_change_calls": change_calls,
        "solvers.designate_us": per_iter_us("solvers.designate"),
        "solvers.driver_us": per_iter_us("solvers.run_algorithm"),
        "solvers.nsga2_gen_us": ratio(gen_ns, generations) / 1e3,
        "solvers.nsga2_sort_us": ratio(sort_ns, generations) / 1e3,
        "oracle.dp_s": group("oracle")[2] / 1e9,
        "oracle.dp_calls": group("oracle")[1],
        "oracle.dp_cells": lay["dp_cells"],
        "model.instance_ms": group("model")[2] / 1e6,
        "dynamics.schedule_ms": group("dynamics")[2] / 1e6,
        "dynamics.changes": sum(s[0] for s in schedules),
        "dynamics.clamps": sum(s[1] for s in schedules),
        "metrics.phi_bytes_per_run": ratio(sum(lay["phi_bytes"]), runs),
        "campaign.result_bytes_per_run": ratio(sum(lay["result_bytes"]), runs),
        "campaign.parallel_eff": timed_busy / (timed["jobs"] * timed["wall_s"]),
        "stats.labels_ms": group("stats.pairwise_labels")[2] / 1e6,
        "trace.overhead_frac": traced["wall_s"] / serial["wall_s"] - 1.0,
        "trace.span_cost_us": cal["span_ns"] / 1e3,
        "trace.spans": lay["spans"],
    })
    return out


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile of ``values`` with at
    least ten samples beyond it, by nearest rank."""
    n = len(values)
    if n < 11:
        raise ValueError(f"{n} samples leave no tail with 10 beyond it")
    return sorted(values)[n - 11], 100.0 * (n - 10) / n
