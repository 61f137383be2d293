"""Simulation-backed GA fitness, one sweep-runner batch per generation.

The stock :class:`~repro.opt.problem.TimerProblem` objective is the
*analytic* worst-case bound (static cache analysis + WCML formulas).
:class:`SimulationFitness` swaps the objective for the *measured*
average memory latency of a full simulation over representative traces,
while keeping constraint C1 analytic (worst-case requirements cannot be
established by one measured run).

It implements the GA's ``MapFn`` contract: every generation is one
batch of timer vectors over the *same* traces, run by the caller's
:class:`~repro.runner.SweepRunner`.  The runner picks the engine by the
traces' predicted miss rate: a miss-heavy set (fft or water at the
CLI's scales) takes the per-event fast path, one unit per vector, and
a hit-dominated one runs as lock-step shares; with ``jobs > 1`` the
units spread over the process's worker pool.  The runner also memoizes
each vector's result, so re-visited candidates across generations are
cache hits, not simulations.  A worker that dies under a generation
costs it nothing: the runner retries the unit on a fresh pool, and a
batch that still fails falls back to the GA's serial evaluation, where
only a failing vector scores worst.

Usage::

    problem = TimerProblem(profiles, latencies, timed)
    fit = SimulationFitness(problem, base_config, traces,
                            SweepRunner(jobs=2, cache_dir=None))
    ga = GeneticAlgorithm(problem.gene_bounds(), fit.fitness,
                          ga_config, map_fn=fit)
"""

from __future__ import annotations

from typing import List, Sequence

from repro.params import SimConfig
from repro.opt.problem import TimerProblem
from repro.runner import SweepJob, SweepRunner
from repro.sim.trace import Trace


class SimulationFitness:
    """Batch fitness evaluator scoring timer vectors by simulation.

    The score mirrors the analytic problem's shape — the weighted mean
    of the objective cores' average per-access memory latency, times
    the same multiplicative C1 penalty — so the GA explores the same
    landscape with measured instead of bounded latencies.
    """

    def __init__(
        self,
        problem: TimerProblem,
        base_config: SimConfig,
        traces: Sequence[Trace],
        runner: SweepRunner,
    ) -> None:
        if base_config.num_cores != problem.num_cores:
            raise ValueError(
                f"base_config has {base_config.num_cores} cores, "
                f"problem has {problem.num_cores}"
            )
        if len(traces) != problem.num_cores:
            raise ValueError("one trace per core required")
        self.problem = problem
        self.base_config = base_config
        self.traces = tuple(traces)
        self.runner = runner

    # -- MapFn ---------------------------------------------------------------

    def __call__(self, batch: List[List[int]]) -> List[object]:
        """Evaluate a generation; failed slots carry their exception."""
        jobs = []
        for genes in batch:
            thetas = self.problem.expand(genes)
            jobs.append(
                SweepJob(self.base_config.with_thetas(thetas), self.traces)
            )
        results = self.runner.run(jobs)
        out: List[object] = []
        for genes, result in zip(batch, results):
            try:
                out.append(self._score(genes, result))
            except Exception as exc:
                out.append(exc)
        return out

    def fitness(self, genes: Sequence[int]) -> float:
        """Single-vector entry point (the GA's serial fallback)."""
        value = self([list(genes)])[0]
        if isinstance(value, Exception):
            raise value
        return float(value)  # type: ignore[arg-type]

    # -- scoring -------------------------------------------------------------

    def _score(self, genes: Sequence[int], result: dict) -> float:
        problem = self.problem
        objective = 0.0
        cores = result["cores"]
        for i in problem.objective_cores:
            core = cores[i]
            accesses = core["hits"] + core["misses"]
            average = (
                core["total_memory_latency"] / accesses if accesses else 0.0
            )
            objective += problem.weights[i] * average
        objective /= problem._weight_norm
        # C1 stays the analytic bound: a measured run cannot certify a
        # worst case, so infeasible vectors pay the same penalty as in
        # the analytic problem.
        violation = problem.evaluate(genes).violation
        return objective * (1.0 + problem.PENALTY_WEIGHT * violation)

    def telemetry(self) -> dict:
        """The runner's counters (engines, cache, worker failures)."""
        return self.runner.telemetry()
