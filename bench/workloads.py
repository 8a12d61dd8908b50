"""Seeded job inputs for the three workloads (standard library only).

Each workload is a closed loop with one client: run.py sends a job, waits
for its result, then sends the next.  Inputs come in cycles.  A cycle is
stratified, so that every run covers the same mix of job costs and the
medians of two runs with different seeds agree; the seed moves every input
inside its stratum and shuffles the order.

extension  Each cycle holds the random-model seeds 1..8 once each.  Seeds 1
           and 7 raise NoConvergence at 200 x 150, so a whole cycle fails 2
           of 8 jobs; they stay in on purpose.  The interval length is drawn
           from [0.5, 2].
ball-weyl  Each cycle holds 4 jobs with n = 2 and 4 with n = 3; the radius
           in [0.8, 1.25] is stratified over the run, one band per job of
           each dimension.
radial-fd  Each cycle holds the 14 channels (n, l), n in {2, 3, 4}, l in
           0..4, without the excluded (2, 0); the radius is drawn from
           [0.8, 1.25].
"""

from __future__ import annotations

import random

WORKLOADS = ("extension", "ball-weyl", "radial-fd")

# ball-weyl jobs each start a fresh interpreter, so the Bessel zero cache is
# empty when the job starts, as in a fresh kreinspec process.
COLD = frozenset({"ball-weyl"})

MODEL_SEEDS = tuple(range(1, 9))
BALL_BANDS = 4
RADIUS_RANGE = (0.8, 1.25)
CHANNELS = tuple((n, ell) for n in (2, 3, 4) for ell in range(5) if (n, ell) != (2, 0))


def run_inputs(workload: str, rng: random.Random, cycles: int) -> list:
    """The job inputs of a run of ``cycles`` stratified cycles, drawn from ``rng``.

    ball-weyl stratifies the radius over the whole run, one band per job
    and dimension: its job time grows like R^n, so with wider bands the
    median job would move with the radii the seed drew.
    """
    lo, hi = RADIUS_RANGE
    if workload == "extension":
        jobs = []
        for _ in range(cycles):
            seeds = list(MODEL_SEEDS)
            rng.shuffle(seeds)
            jobs += [{"length": rng.uniform(0.5, 2.0), "model_seed": s} for s in seeds]
        return jobs
    if workload == "ball-weyl":
        bands = BALL_BANDS * cycles
        jobs = [{"n": n, "radius": lo + (hi - lo) * (b + rng.random()) / bands}
                for n in (2, 3) for b in range(bands)]
        rng.shuffle(jobs)
        return jobs
    if workload == "radial-fd":
        jobs = []
        for _ in range(cycles):
            channels = list(CHANNELS)
            rng.shuffle(channels)
            jobs += [{"n": n, "ell": ell, "radius": rng.uniform(lo, hi)}
                     for n, ell in channels]
        return jobs
    raise ValueError(f"unknown workload {workload!r}")
