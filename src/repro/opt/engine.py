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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.params import MSI_THETA, LatencyParams
from repro.analysis.cache_analysis import IsolationProfile
from repro.analysis.wcml import CoreBound
from repro.opt.ga import GAConfig, GAResult, GenerationCallback, GeneticAlgorithm
from repro.opt.problem import TimerProblem


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
        on_generation: Optional[GenerationCallback] = None,
        checkpoint_path: Optional[str] = None,
    ) -> OptimizationResult:
        """Optimize the timers of the ``timed`` cores under constraint C1.

        The analytic fitness is cheap, so every generation is evaluated
        in-process.  ``on_generation`` is handed through to
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
            )
            table.thetas[mode] = result.thetas
            table.results[mode] = result
        return table
