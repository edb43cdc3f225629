"""Wrappers the benchmark installs around calls into ``dcckp`` modules.

Nothing under ``src/`` knows about them. Two kinds exist:

* ``install_run_timer`` (timed campaigns): wraps ``campaign.execute_run`` and
  the three set-up calls (``generate_instance``, ``dp_optimal_profits``,
  ``build_schedule``). Each run appends one JSON line with its wall time and
  set-up time to a file per process, so the figures reach the benchmark from
  any worker process. It costs a few calls per run and nothing per iteration.
* ``Tracer`` (traced campaigns): records a span around every call into the
  layers the benchmark splits time by, including per-iteration calls. Spans
  have a name, start, end and parent, and the tracer keeps self time, call
  counts and parent-to-child call counts online. It runs in one process.

Attributes that a refactor removed are skipped and listed in ``missing``, so
the benchmark keeps running while the layer it measured reads zero.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from functools import partial

_MARK = "__perfbench_wrapped__"
SETUP_CALLS = (("campaign", "generate_instance"),
               ("oracle", "dp_optimal_profits"),
               ("dynamics", "build_schedule"))


def _modules():
    from dcckp import campaign, chance, dynamics, metrics, oracle, solvers, stats
    return dict(campaign=campaign, chance=chance, dynamics=dynamics,
                metrics=metrics, oracle=oracle, solvers=solvers, stats=stats)


def _resolve(mods, module, path):
    """(owner, attribute name, current value) or None when absent."""
    owner = mods[module]
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


# -- timed campaigns ---------------------------------------------------------

def install_run_timer(timing_dir: str) -> None:
    """Time every ``execute_run`` and the set-up calls inside it, in this
    process and in the campaign's worker processes. Idempotent, so that a
    forked worker that inherited the wrappers does not wrap them twice."""
    mods = _modules()
    campaign = mods["campaign"]
    if getattr(campaign.execute_run, _MARK, False):
        return
    setup_ns = [0]

    def timed_setup(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                setup_ns[0] += time.perf_counter_ns() - t0
        return wrapper

    for module, path in SETUP_CALLS:
        found = _resolve(mods, module, path)
        if found is not None:
            owner, attr, fn = found
            setattr(owner, attr, timed_setup(fn))

    execute_run = campaign.execute_run
    log_path = os.path.join(timing_dir, f"runs-{os.getpid()}.jsonl")

    def timed_execute_run(config, cell, run_idx):
        setup_ns[0] = 0
        t0 = time.perf_counter_ns()
        out = execute_run(config, cell, run_idx)
        wall_ns = time.perf_counter_ns() - t0
        with open(log_path, "a") as fh:
            fh.write(json.dumps({"cell_id": cell.cell_id, "run_idx": run_idx,
                                 "wall_s": wall_ns / 1e9,
                                 "setup_s": setup_ns[0] / 1e9}) + "\n")
        return out

    setattr(timed_execute_run, _MARK, True)
    campaign.execute_run = timed_execute_run
    # spawned or forkserver workers start from a fresh import: install there too
    campaign.ProcessPoolExecutor = partial(
        ProcessPoolExecutor, initializer=install_run_timer,
        initargs=(timing_dir,))


def read_run_timings(timing_dir: str) -> dict:
    """{(cell_id, run_idx): {"wall_s", "setup_s"}} from every process's log."""
    out = {}
    for name in sorted(os.listdir(timing_dir)):
        if name.startswith("runs-") and name.endswith(".jsonl"):
            with open(os.path.join(timing_dir, name)) as fh:
                for line in fh:
                    row = json.loads(line)
                    out[(row["cell_id"], row["run_idx"])] = row
    return out


# -- traced campaigns --------------------------------------------------------

# (module, attribute path, span name). Span names are the layer, then the
# callee, so a metric can add up every span of one layer by prefix.
COARSE_TARGETS = (
    ("campaign", "run_campaign", "campaign.run_campaign"),
    ("campaign", "execute_run", "campaign.execute_run"),
    ("campaign", "generate_instance", "model.generate_instance"),
    ("oracle", "dp_optimal_profits", "oracle.dp_optimal_profits"),
    ("dynamics", "build_schedule", "dynamics.build_schedule"),
    ("solvers", "run_algorithm", "solvers.run_algorithm"),
    ("metrics", "total_offline_error", "metrics.total_offline_error"),
    ("stats", "pairwise_labels", "stats.pairwise_labels"),
)
FINE_TARGETS = (
    ("solvers", "_RunContext.mutate", "solvers.mutate"),
    ("solvers", "OnePlusOneEA.step", "solvers.step.ea11"),
    ("solvers", "Posdc.step", "solvers.step.posdc"),
    ("solvers", "Nsga2.generation", "solvers.generation.nsga2"),
    ("solvers", "OnePlusOneEA.on_change", "solvers.on_change.ea11"),
    ("solvers", "Posdc.on_change", "solvers.on_change.posdc"),
    ("solvers", "Nsga2.on_change", "solvers.on_change.nsga2"),
    ("solvers", "OnePlusOneEA.designated_eval", "solvers.designate.ea11"),
    ("solvers", "Posdc.designated_eval", "solvers.designate.posdc"),
    ("solvers", "Posdc.best", "solvers.designate.posdc_best"),
    ("solvers", "Nsga2.designated_eval", "solvers.designate.nsga2"),
    ("solvers", "_Archive.has_weak_dominator", "solvers.archive.has_weak_dominator"),
    ("solvers", "_Archive.insert", "solvers.archive.insert"),
    ("solvers", "_Archive.extend", "solvers.archive.extend"),
    ("solvers", "_pareto_keep_mask", "solvers.archive.pareto_keep_mask"),
    ("solvers", "fast_nondominated_sort", "solvers.nsga2_sort.fast_nondominated_sort"),
    ("solvers", "crowding_distances", "solvers.nsga2_sort.crowding_distances"),
)
ROOT = "root"
MAX_NAMES = 256


class Tracer:
    """In-memory span recorder with online self-time accounting.

    Every span updates the per-name counters. The first ``fine_cap``
    per-iteration spans, and every coarse span, are also stored with start,
    end and parent, to be written out when the traced campaign ends.
    """

    def __init__(self, fine_cap: int = 200_000):
        self.names = [ROOT]
        self.ids = {ROOT: 0}
        self.calls = [0] * MAX_NAMES
        self.self_ns = [0] * MAX_NAMES
        self.total_ns = [0] * MAX_NAMES
        self.edges = [0] * (MAX_NAMES * MAX_NAMES)  # parent << 8 | child
        self.stack = [[0, 0, -1]]  # [name id, child ns, stored span index]
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.fine_budget = [fine_cap]
        self.counters = {"mutate_noop": 0, "ea11_kept": 0,
                         "posdc_steps": 0, "archive_size_sum": 0,
                         "archive_size_peak": 0}
        self.missing: list[str] = []
        self.schedules: list = []   # (change count, clamp count) per schedule
        self.dp_cells = 0

    def name_id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            if len(self.names) >= MAX_NAMES:
                raise ValueError("too many span names")
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, fine: bool, after=None):
        """Return ``fn`` wrapped in a span. ``after(args, result)`` runs
        inside the span, so its cost lands in the span's own self time."""
        nid = self.name_id(name)
        stack, push, pop = self.stack, self.stack.append, self.stack.pop
        calls, self_ns, total_ns, edges = (self.calls, self.self_ns,
                                           self.total_ns, self.edges)
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        budget = self.fine_budget
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            parent = stack[-1]
            if fine and budget[0] <= 0:
                idx = -1
            else:
                idx = len(s_name)
                s_name.append(nid)
                s_parent.append(parent[2])
                s_start.append(0)
                s_end.append(0)
                if fine:
                    budget[0] -= 1
            frame = [nid, 0, idx]
            push(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                t1 = clock()
                pop()
                d = t1 - t0
                self_ns[nid] += d - frame[1]
                total_ns[nid] += d
                calls[nid] += 1
                parent[1] += d
                edges[(parent[0] << 8) | nid] += 1
                if idx >= 0:
                    s_start[idx] = t0
                    s_end[idx] = t1

        return span

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists in the imported ``dcckp``."""
        mods = _modules()
        hooks = self._hooks(mods)
        targets = [(m, p, n, False) for m, p, n in COARSE_TARGETS]
        targets += [(m, p, n, True) for m, p, n in FINE_TARGETS]
        chance = mods["chance"]
        for attr, value in sorted(vars(chance).items()):
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == chance.__name__
                    and attr != "monte_carlo_violation"):
                targets.append(("chance", attr, f"chance.{attr}", True))
        for module, path, name, fine in targets:
            found = _resolve(mods, module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            setattr(owner, attr, self.wrap(name, fn, fine, hooks.get(name)))

    def _hooks(self, mods):
        c = self.counters

        def mutate_after(args, result):
            if result is None:
                c["mutate_noop"] += 1

        def posdc_after(args, result):
            size = args[0].archive_size()
            c["posdc_steps"] += 1
            c["archive_size_sum"] += size
            if size > c["archive_size_peak"]:
                c["archive_size_peak"] = size

        def schedule_after(args, result):
            self.schedules.append((getattr(result, "change_count", 0),
                                   getattr(result, "clamp_count", 0)))

        def dp_after(args, result):
            self.dp_cells += args[0].n * len(result)

        hooks = {"solvers.mutate": mutate_after,
                 "dynamics.build_schedule": schedule_after,
                 "oracle.dp_optimal_profits": dp_after}
        posdc = _resolve(mods, "solvers", "Posdc")
        if posdc is not None and hasattr(posdc[2], "archive_size"):
            hooks["solvers.step.posdc"] = posdc_after
        # EA acceptance shows as a new incumbent object after the step; this
        # inner wrapper runs inside the step's span once ``install`` wraps it
        ea = _resolve(mods, "solvers", "OnePlusOneEA.step")
        if ea is not None:
            owner, attr, step = ea

            def ea_step(solver, *args):
                before = solver.bits
                step(solver, *args)
                if solver.bits is not before:
                    c["ea11_kept"] += 1
            setattr(owner, attr, ea_step)
        return hooks

    # -- read-out --------------------------------------------------------------

    def by_name(self) -> dict:
        """{name: (calls, self ns, total ns, direct child spans)}."""
        n = len(self.names)
        out = {}
        for i in range(1, n):
            children = sum(self.edges[(i << 8) | j] for j in range(1, n))
            out[self.names[i]] = (self.calls[i], self.self_ns[i],
                                  self.total_ns[i], children)
        return out

    def calls_from_outside(self, prefix: str) -> int:
        """Calls into spans named ``prefix*`` whose caller is not one."""
        inside = [i for i, nm in enumerate(self.names) if nm.startswith(prefix)]
        outside = [i for i in range(len(self.names)) if i not in inside]
        return sum(self.edges[(p << 8) | c] for p in outside for c in inside)

    def calls_between(self, parent: str, child: str) -> int:
        p, c = self.ids.get(parent), self.ids.get(child)
        if p is None or c is None:
            return 0
        return self.edges[(p << 8) | c]

    def span_count(self) -> int:
        return sum(self.calls)

    def write_spans(self, path: str) -> None:
        """Write the stored spans as CSV, one row per span."""
        with open(path, "w") as fh:
            fh.write("span,name,parent,start_ns,end_ns\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i},{self.names[self.span_name[i]]},"
                         f"{self.span_parent[i]},{self.span_start[i]},"
                         f"{self.span_end[i]}\n")


def calibrate_span_cost(calls: int = 200_000) -> dict:
    """Cost of an empty span, as its caller sees it and as the span itself
    records it, in ns. Spans beyond the storage cap take this path."""
    tracer = Tracer(fine_cap=0)

    def noop():
        return None

    wrapped = tracer.wrap("calibrate.noop", noop, fine=True)
    clock = time.perf_counter_ns
    best_bare = best_wrapped = None
    for _ in range(3):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        bare, full = (t1 - t0) / calls, (t2 - t1) / calls
        best_bare = bare if best_bare is None else min(best_bare, bare)
        best_wrapped = full if best_wrapped is None else min(best_wrapped, full)
    nid = tracer.ids["calibrate.noop"]
    inner = max(0.0, tracer.self_ns[nid] / tracer.calls[nid] - best_bare)
    total = max(0.0, best_wrapped - best_bare)
    return {"span_ns": total, "inner_ns": min(inner, total),
            "outer_ns": max(0.0, total - inner)}
