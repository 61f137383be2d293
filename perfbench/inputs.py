"""Workload inputs: trace sets, θ-vector pools and the serving population.

Everything here is a pure function of its arguments, so the same
``--seed`` always yields the same inputs.  Each pool is fixed and
swept whole by every ``SweepRunner.run`` call; a seed only chooses the
order of the configs in each call.  So every call does the same work
whatever the seed, and the final cycle count of every config stays
pinned in ``pinned.json``.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Sequence, Tuple

import numpy as np

from repro.params import SimConfig, cohort_config
from repro.serve.loadgen import THETA_GRID, theta_population
from repro.workloads import splash_traces, timer_sweep

#: sweep_lu: lu on four cores at scale 2.0 (16,128 accesses per config),
#: so that one call takes about a second and a run times many calls.
LU_SHAPE = ("lu", 4, 2.0)
#: Distinct θ-vectors in the lu pool (one lock-step group per call) and
#: the RNG seed that draws them.
LU_POOL_SIZE = 6
LU_POOL_SEED = 2025

#: sweep_timer: timer_sweep(cores, accesses per core, seed).
TIMER_SHAPE = (4, 40_000, 0)
#: The pinned 64-config population of the lock-step throughput benchmark.
TIMER_CONFIGS = 64
TIMER_POPULATION_SEED = 42

#: serve_warm: distinct specs in the warmed population (fft, scale 0.05).
SERVE_POPULATION = 24

#: The ocean×4 cross-engine reference and its pinned cycle counts.
OCEAN_REFERENCE = {"cohort_theta60": 76_904, "msi_fcfs": 66_496}


def lu_traces():
    bench, cores, scale = LU_SHAPE
    return splash_traces(bench, cores, scale=scale)


def timer_traces():
    cores, accesses, seed = TIMER_SHAPE
    return timer_sweep(cores, accesses, seed=seed)


def lu_pool() -> List[SimConfig]:
    """``LU_POOL_SIZE`` distinct θ-vectors over the grid, as CoHoRT configs."""
    rng = random.Random(LU_POOL_SEED)
    seen: List[Tuple[int, ...]] = []
    while len(seen) < LU_POOL_SIZE:
        thetas = tuple(rng.choice(THETA_GRID) for _ in range(LU_SHAPE[1]))
        if thetas not in seen:
            seen.append(thetas)
    return [cohort_config(list(thetas)) for thetas in seen]


def timer_pool() -> List[SimConfig]:
    """The 64 configs of ``benchmarks/bench_workloads.lockstep_configs``.

    Rebuilt here (same RNG, same draw order) so the benchmark does not
    depend on files outside its own directory.
    """
    rng = np.random.default_rng(TIMER_POPULATION_SEED)
    base = cohort_config([60] * TIMER_SHAPE[0])
    configs = []
    for _ in range(TIMER_CONFIGS):
        thetas = [
            int(THETA_GRID[rng.integers(0, len(THETA_GRID))])
            for _ in base.cores
        ]
        cores = tuple(
            dataclasses.replace(cc, theta=th)
            for cc, th in zip(base.cores, thetas)
        )
        configs.append(dataclasses.replace(base, cores=cores))
    return configs


def serve_population():
    return theta_population(SERVE_POPULATION)


def orders(pool_size: int, seed: int):
    """Endless seed-driven shuffles of the whole pool, one per batch."""
    rng = random.Random(seed)
    while True:
        order = list(range(pool_size))
        rng.shuffle(order)
        yield order


def accesses(traces: Sequence) -> int:
    return sum(len(t) for t in traces)
