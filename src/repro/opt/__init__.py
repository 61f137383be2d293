"""The requirement-aware timer optimization engine (Section V).

* :class:`repro.opt.problem.TimerProblem` — objective, variables and
  constraint C1.
* :class:`repro.opt.ga.GeneticAlgorithm` — the solver the paper uses.
* :class:`repro.opt.engine.OptimizationEngine` — the offline flow of
  Figure 2a, including the per-mode LUT generation of Section VI.
* :mod:`repro.opt.search` — random-search / hill-climbing ablations.
* :class:`repro.opt.simfit.SimulationFitness` — simulation-backed
  fitness, one sweep-runner batch per generation.
"""

from repro.opt.engine import ModeTable, OptimizationEngine, OptimizationResult
from repro.opt.ga import GAConfig, GAResult, GeneticAlgorithm
from repro.opt.problem import Evaluation, TimerProblem
from repro.opt.search import SearchResult, hill_climb, random_search
from repro.opt.simfit import SimulationFitness

__all__ = [
    "ModeTable",
    "OptimizationEngine",
    "OptimizationResult",
    "GAConfig",
    "GAResult",
    "GeneticAlgorithm",
    "Evaluation",
    "TimerProblem",
    "SearchResult",
    "SimulationFitness",
    "hill_climb",
    "random_search",
]
