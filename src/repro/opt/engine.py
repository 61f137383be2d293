"""The requirement-aware optimization engine (Figure 2a and Section VI).

:class:`OptimizationEngine` wraps the GA + timer problem into the
offline flow the paper describes:

1. for a given operating mode, the cores whose criticality level is at
   least the mode level run time-based coherence; the rest degrade to
   MSI (``θ = -1``);
2. the GA explores timer vectors, the static cache analysis supplies
   M_hit(Θ) as a black box, and constraint C1 enforces each timed
   task's WCML requirement at that mode;
3. repeating per mode yields the Mode-Switch LUT contents (Table II of
   the paper), which :meth:`OptimizationEngine.optimize_modes` returns
   as a :class:`ModeTable` ready to program into the cache controllers.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.params import MSI_THETA, LatencyParams
from repro.analysis.cache_analysis import IsolationProfile
from repro.analysis.wcml import CoreBound
from repro.opt.ga import GAConfig, GAResult, GenerationCallback, GeneticAlgorithm
from repro.opt.problem import TimerProblem

#: Per-worker problem instance, installed once by the pool initializer so
#: each GA fitness task ships only the gene vector, not the problem.
_WORKER_PROBLEM: Optional[TimerProblem] = None


def _init_fitness_worker(problem: TimerProblem) -> None:
    global _WORKER_PROBLEM
    _WORKER_PROBLEM = problem


def _fitness_worker(genes: List[int]) -> float:
    assert _WORKER_PROBLEM is not None, "pool initializer did not run"
    return _WORKER_PROBLEM.fitness(genes)


class _PoolEvaluator:
    """Crash-contained batch fitness evaluator (the GA's ``map_fn``).

    Owns its ``ProcessPoolExecutor`` and submits one future per gene
    vector.  A worker death breaks the pool — the evaluator then
    recreates it and re-evaluates every unfinished vector *in-process*
    (the fitness function is pure), so one poisoned worker never costs a
    generation its fitness values.  Per-vector exceptions are returned
    in-slot, matching the ``MapFn`` contract: the GA converts them to
    worst-fitness failure records instead of aborting.
    """

    def __init__(self, problem: TimerProblem, jobs: int) -> None:
        self.problem = problem
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_fitness_worker,
                initargs=(self.problem,),
            )
        return self._pool

    def __call__(self, batch: List[List[int]]) -> List[object]:
        """Evaluate a batch; failed slots carry the exception instance."""
        results: List[Optional[object]] = [None] * len(batch)
        pool = self._ensure_pool()
        futures = {}
        broken = False
        try:
            for i, genes in enumerate(batch):
                futures[pool.submit(_fitness_worker, genes)] = i
        except BrokenProcessPool:
            broken = True  # a worker died before the batch was submitted
        for future, i in futures.items():
            try:
                results[i] = future.result()
            except BrokenProcessPool:
                broken = True
                break
            except Exception as exc:
                results[i] = exc
        if broken:
            self.close()
            for i, genes in enumerate(batch):
                if results[i] is not None:
                    continue
                try:
                    results[i] = self.problem.fitness(genes)
                except Exception as exc:
                    results[i] = exc
        return results  # type: ignore[return-value]

    def close(self) -> None:
        """Shut the worker pool down (recreated lazily on next use)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


@dataclass
class OptimizationResult:
    """Outcome of one per-mode optimization run."""

    thetas: List[int]
    objective: float
    feasible: bool
    bounds: List[CoreBound]
    ga: GAResult
    wall_seconds: float


@dataclass
class ModeTable:
    """Per-mode timer vectors: the contents of every Mode-Switch LUT."""

    #: mode → full per-core timer vector (``MSI_THETA`` for degraded cores).
    thetas: Dict[int, List[int]] = field(default_factory=dict)
    results: Dict[int, OptimizationResult] = field(default_factory=dict)

    @property
    def modes(self) -> List[int]:
        return sorted(self.thetas)

    def lut_entries(self, core_id: int) -> Dict[int, int]:
        """The LUT contents of one core's cache controller."""
        return {mode: self.thetas[mode][core_id] for mode in self.thetas}

    def as_rows(self) -> List[List[int]]:
        """Rows of Table II: ``[mode, θ_0, θ_1, ...]``."""
        return [[m] + list(self.thetas[m]) for m in self.modes]

    def __str__(self) -> str:
        if not self.thetas:
            return "ModeTable(empty)"
        n = len(next(iter(self.thetas.values())))
        header = "m  | " + " ".join(f"θ_{i}^m".rjust(7) for i in range(n))
        lines = [header, "-" * len(header)]
        for m in self.modes:
            row = " ".join(str(t).rjust(7) for t in self.thetas[m])
            lines.append(f"{m:<3}| {row}")
        return "\n".join(lines)


class OptimizationEngine:
    """Offline configuration engine: traces in, timer LUT contents out."""

    def __init__(
        self,
        profiles: Sequence[IsolationProfile],
        latencies: LatencyParams,
        ga_config: Optional[GAConfig] = None,
    ) -> None:
        self.profiles = list(profiles)
        self.latencies = latencies
        self.ga_config = ga_config or GAConfig()

    @property
    def num_cores(self) -> int:
        return len(self.profiles)

    # -- single-mode optimization ------------------------------------------------

    def optimize(
        self,
        timed: Sequence[bool],
        requirements: Optional[Sequence[Optional[float]]] = None,
        seed_thetas: Optional[Sequence[Sequence[int]]] = None,
        objective_cores: Optional[Sequence[int]] = None,
        jobs: int = 1,
        on_generation: Optional[GenerationCallback] = None,
        checkpoint_path: Optional[str] = None,
    ) -> OptimizationResult:
        """Optimize the timers of the ``timed`` cores under constraint C1.

        ``jobs > 1`` evaluates each generation's *unmemoized* gene vectors
        across that many worker processes; the GA trajectory is identical
        to the serial run (the problem is deterministic and evaluation
        consumes no GA randomness).  A crashed worker breaks the pool,
        but the evaluator re-runs the unfinished vectors in-process and
        rebuilds the pool, so the run — and its trajectory — survives.

        ``on_generation`` is handed through to
        :meth:`~repro.opt.ga.GeneticAlgorithm.run` — e.g. a
        :class:`repro.obs.GAGenerationLog` collecting per-generation
        telemetry.  ``checkpoint_path`` likewise: the GA saves its state
        there each generation and resumes from it on restart.
        """
        started = time.perf_counter()
        problem = TimerProblem(
            self.profiles, self.latencies, timed, requirements,
            objective_cores=objective_cores,
        )
        if jobs > 1:
            evaluator = _PoolEvaluator(problem, jobs)
            try:
                ga = GeneticAlgorithm(
                    problem.gene_bounds(),
                    problem.fitness,
                    self.ga_config,
                    map_fn=evaluator,
                )
                result = ga.run(
                    initial=seed_thetas,
                    on_generation=on_generation,
                    checkpoint_path=checkpoint_path,
                )
            finally:
                evaluator.close()
        else:
            ga = GeneticAlgorithm(
                problem.gene_bounds(), problem.fitness, self.ga_config
            )
            result = ga.run(
                initial=seed_thetas,
                on_generation=on_generation,
                checkpoint_path=checkpoint_path,
            )
        evaluation = problem.evaluate(result.best_genes)
        return OptimizationResult(
            thetas=evaluation.thetas,
            objective=evaluation.objective,
            feasible=evaluation.feasible,
            bounds=evaluation.bounds,
            ga=result,
            wall_seconds=time.perf_counter() - started,
        )

    # -- per-mode flow (Section VI) -------------------------------------------------

    def optimize_modes(
        self,
        criticalities: Sequence[int],
        requirements_per_mode: Dict[int, Sequence[Optional[float]]],
        jobs: int = 1,
    ) -> ModeTable:
        """Run the engine once per mode to fill the Mode-Switch LUTs.

        At mode ``m`` every core with criticality ``>= m`` is timed (its
        requirement at that mode constrains the solution); the others are
        fixed to MSI.  ``requirements_per_mode[m][i]`` is Γ_i^m or None.
        """
        if len(criticalities) != self.num_cores:
            raise ValueError("one criticality level per core required")
        table = ModeTable()
        for mode in sorted(requirements_per_mode):
            reqs = list(requirements_per_mode[mode])
            if len(reqs) != self.num_cores:
                raise ValueError(
                    f"mode {mode}: one requirement slot per core required"
                )
            timed = [l >= mode for l in criticalities]
            if not any(timed):
                table.thetas[mode] = [MSI_THETA] * self.num_cores
                continue
            # Degraded cores carry no C1 constraint (Equation 3 applies)
            # and, per Section VI, are not optimisation inputs at all:
            # only tasks with l_j >= mode enter the objective.
            reqs = [r if t else None for r, t in zip(reqs, timed)]
            result = self.optimize(
                timed,
                reqs,
                objective_cores=[i for i, t in enumerate(timed) if t],
                jobs=jobs,
            )
            table.thetas[mode] = result.thetas
            table.results[mode] = result
        return table
