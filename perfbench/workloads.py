"""The benchmark's workloads: each maps a workload seed to one campaign config.

Each workload is a closed batch: one ``campaign.run_campaign`` call per
campaign, driven from one process with at most two worker processes. The
library only ever sees the generated ``CampaignConfig`` fields.

The instance is part of the workload, like a fixed data set: the library's
default ``instance_seed=1``, the one the acceptance grid uses. The workload
seed derives the campaign's base seed, from which the library derives every
run's solver and capacity-schedule seeds. A fresh instance per seed would
shift every run of a campaign at once (POSDC archive sizes, for one, depend
on the instance) and blur the comparison of two commits.

``--seconds`` sets the size of the work, not a deadline: the measured
iterations per run grow linearly with it, so two commits measured with the
same arguments do identical work and write identical ``runs.csv`` files. The
per-workload rates below were sized so that one benchmark run of ``--seconds``
seconds takes about that long on a 2-vCPU Xeon at the commit that added the
benchmark.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

INSTANCE_SEED = 1
WARMUP = 1_000
# NSGA-II charges 20 iterations per generation; whole generations keep
# ``evaluations == warmup + total_iters`` exact for every solver.
ITER_QUANTUM = 100


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid: dict          # CampaignConfig fields other than seeds and sizes
    runs: int           # runs per cell
    jobs: int           # worker processes of the timed campaigns
    # Timed campaigns per benchmark run, each in a fresh parent process, so
    # that set-up (per-process caches start empty) and peak RSS are measured
    # afresh; the end-to-end metrics are medians over them.
    campaigns: int
    iters_per_second: float  # measured iterations per run, per second of --seconds

    @property
    def cells(self) -> int:
        g = self.grid
        return (len(g["deltas"]) * len(g["rs"]) * len(g["taus"])
                * len(g["alphas"]) * len(g["algos"]) * len(g["bounds"]))

    @property
    def runs_per_campaign(self) -> int:
        return self.cells * self.runs

    def measured_iters(self, seconds: float) -> int:
        raw = seconds * self.iters_per_second
        return max(ITER_QUANTUM, int(round(raw / ITER_QUANTUM)) * ITER_QUANTUM)

    def config(self, seed: int, seconds: float, jobs: int | None = None,
               out_dir: str | None = None) -> dict:
        """Keyword arguments of ``CampaignConfig`` for this seed and size."""
        return dict(self.grid, runs=self.runs, warmup=WARMUP,
                    total_iters=self.measured_iters(seconds),
                    instance_seed=INSTANCE_SEED,
                    base_seed=_derive(self.name, seed),
                    jobs=self.jobs if jobs is None else jobs, out_dir=out_dir)


def _derive(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="desk",
            why=("The acceptance grid users run: uncorrelated n=100, tau=1000, "
                 "ea11+posdc x both bounds, jobs=2. Stresses the scalar "
                 "per-iteration solver path and the parent's phi arrays."),
            grid=dict(kind="uncorrelated", n=100, deltas=(25,), rs=(500,),
                      taus=(1000,), alphas=(0.01, 0.0001),
                      algos=("ea11", "posdc"),
                      bounds=("chebyshev", "chernoff")),
            runs=10, jobs=2, campaigns=5, iters_per_second=300.0),
        Workload(
            name="wide",
            why=("n=1000, two deltas, all three solvers under Chernoff, "
                 "jobs=2. The DP oracle (once per process and delta) and "
                 "per-iteration work that grows with n dominate."),
            grid=dict(kind="uncorrelated", n=1000, deltas=(25, 50), rs=(500,),
                      taus=(1000,), alphas=(0.0001,),
                      algos=("ea11", "posdc", "nsga2"),
                      bounds=("chernoff",)),
            runs=8, jobs=2, campaigns=3, iters_per_second=310.0),
        Workload(
            name="churn",
            why=("Bounded-strongly-correlated n=100, tau=25, all solvers x "
                 "both bounds, jobs=1 (serial baseline). 40x the capacity "
                 "changes, big POSDC archives, NSGA-II mid-generation path."),
            grid=dict(kind="bsc", n=100, deltas=(25,), rs=(500,), taus=(25,),
                      alphas=(0.01,), algos=("ea11", "posdc", "nsga2"),
                      bounds=("chebyshev", "chernoff")),
            runs=5, jobs=1, campaigns=5, iters_per_second=270.0),
    )
}
