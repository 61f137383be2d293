"""A genetic algorithm over bounded integer gene vectors.

The paper solves the timer-optimization problem of Section V with a GA
(Matlab's, with default parameters); this is a self-contained equivalent:
tournament selection, uniform + arithmetic crossover, log-scale mutation
(timer values span 1..2¹⁶, so mutation must be multiplicative to explore
the range), and elitism.  It *minimises* the fitness function.

Long runs degrade gracefully rather than abort: a fitness evaluation
that raises (or a ``map_fn`` batch that fails wholesale) is recorded as
a failure and scored as the worst possible fitness (``inf`` — the GA
minimises), and ``checkpoint_path`` persists the full GA state after
every generation so an interrupted run resumes where it stopped.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

FitnessFn = Callable[[Sequence[int]], float]
#: Batch evaluator: list of gene vectors in, one entry per vector out, in
#: order — either a fitness value or an Exception instance for a vector
#: whose evaluation failed (crashed worker, timeout); exceptions become
#: worst-fitness failure records instead of aborting the run.
MapFn = Callable[[List[List[int]]], Sequence[object]]

#: Version tag written into checkpoints; bump on layout changes.
CHECKPOINT_SCHEMA = 1

#: At most this many per-gene failure records are kept (the counter keeps
#: counting past it; the records exist for diagnosis, not accounting).
MAX_FAILURE_RECORDS = 100
#: Per-generation telemetry hook: called with one record dict after every
#: evaluated generation (see :meth:`GeneticAlgorithm._generation_record`).
GenerationCallback = Callable[[Dict[str, Any]], None]


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of :class:`GeneticAlgorithm`."""

    population_size: int = 32
    generations: int = 40
    crossover_rate: float = 0.9
    mutation_rate: float = 0.2
    tournament_size: int = 3
    elitism: int = 2
    #: Stop early after this many generations without improvement (0 = off).
    stall_generations: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population must have at least two individuals")
        if self.generations < 1:
            raise ValueError("need at least one generation")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be positive")
        if not 0 <= self.elitism < self.population_size:
            raise ValueError("elitism must be smaller than the population")


@dataclass
class GAResult:
    """Outcome of one GA run."""

    best_genes: List[int]
    best_fitness: float
    generations_run: int
    #: Logical fitness evaluations requested (memo hits included).
    evaluations: int
    #: Best fitness after each generation (monotone non-increasing).
    history: List[float] = field(default_factory=list)
    #: Evaluations answered from the gene-vector memo (no fitness call).
    cache_hits: int = 0
    #: Evaluations that raised (or came back as exceptions from
    #: ``map_fn``) and were scored as worst fitness instead of aborting.
    failed_evaluations: int = 0
    #: Up to :data:`MAX_FAILURE_RECORDS` ``{"genes": [...], "error":
    #: "..."}`` records describing the failed evaluations.
    failures: List[Dict[str, Any]] = field(default_factory=list)


class GeneticAlgorithm:
    """Integer GA minimising ``fitness_fn`` within per-gene bounds."""

    def __init__(
        self,
        bounds: Sequence[Tuple[int, int]],
        fitness_fn: FitnessFn,
        config: Optional[GAConfig] = None,
        map_fn: Optional[MapFn] = None,
    ) -> None:
        """``map_fn``, when given, batch-evaluates a list of gene vectors
        (e.g. across worker processes) and returns their fitness values in
        order; it is only called for vectors not already memoized."""
        if not bounds:
            raise ValueError("need at least one gene")
        for lo, hi in bounds:
            if lo > hi:
                raise ValueError(f"invalid gene bounds ({lo}, {hi})")
        self.bounds = [(int(lo), int(hi)) for lo, hi in bounds]
        self.fitness_fn = fitness_fn
        self.config = config or GAConfig()
        self.map_fn = map_fn
        self._rng = np.random.default_rng(self.config.seed)
        self._evaluations = 0
        self._cache_hits = 0
        self._failed_evaluations = 0
        self._failures: List[Dict[str, Any]] = []
        #: Fitness memo keyed by the (hashable) gene tuple: the GA
        #: re-visits elites and converged individuals constantly, and the
        #: fitness of a deterministic problem never changes.
        self._memo: dict = {}

    # -- gene helpers ---------------------------------------------------------

    def _random_gene(self, i: int) -> int:
        """Log-uniform sample within the gene's bounds."""
        lo, hi = self.bounds[i]
        if lo == hi:
            return lo
        if lo >= 1:
            u = self._rng.uniform(np.log(lo), np.log(hi + 1))
            return int(np.clip(int(np.exp(u)), lo, hi))
        return int(self._rng.integers(lo, hi + 1))

    def _random_individual(self) -> List[int]:
        return [self._random_gene(i) for i in range(len(self.bounds))]

    def _clip(self, genes: List[int]) -> List[int]:
        return [
            int(np.clip(g, lo, hi)) for g, (lo, hi) in zip(genes, self.bounds)
        ]

    def _mutate(self, genes: List[int]) -> List[int]:
        out = list(genes)
        for i in range(len(out)):
            if self._rng.random() >= self.config.mutation_rate:
                continue
            lo, hi = self.bounds[i]
            if lo == hi:
                continue
            if self._rng.random() < 0.3:
                out[i] = self._random_gene(i)  # global jump
            else:
                factor = float(np.exp(self._rng.normal(0.0, 0.4)))
                out[i] = int(np.clip(round(out[i] * factor), lo, hi))
        return out

    def _crossover(self, a: List[int], b: List[int]) -> List[int]:
        child: List[int] = []
        for i in range(len(a)):
            r = self._rng.random()
            if r < 0.5:
                child.append(a[i] if self._rng.random() < 0.5 else b[i])
            else:
                w = self._rng.random()
                child.append(int(round(w * a[i] + (1 - w) * b[i])))
        return self._clip(child)

    def _tournament(
        self, population: List[List[int]], fitness: List[float]
    ) -> List[int]:
        k = min(self.config.tournament_size, len(population))
        idx = self._rng.integers(0, len(population), size=k)
        best = min(idx, key=lambda j: fitness[j])
        return population[best]

    def _record_failure(self, genes: Sequence[int], error: object) -> None:
        """Account one failed evaluation (kept in the result for diagnosis)."""
        self._failed_evaluations += 1
        if len(self._failures) < MAX_FAILURE_RECORDS:
            self._failures.append(
                {"genes": [int(g) for g in genes], "error": repr(error)}
            )

    def _safe_fitness(self, genes: List[int]) -> float:
        """One fitness call; a raising evaluation scores worst (``inf``).

        The GA minimises, so ``inf`` is the worst possible fitness — a
        failing individual loses every tournament but the run survives.
        """
        try:
            return float(self.fitness_fn(genes))
        except Exception as exc:
            self._record_failure(genes, exc)
            return float("inf")

    def _evaluate_population(self, population: List[List[int]]) -> List[float]:
        """Fitness of every individual, through the memo (and ``map_fn``).

        ``evaluations`` counts every *logical* evaluation — memo hits
        included — so the counter stays comparable across configurations.
        Failures degrade gracefully: an exception entry from ``map_fn``
        (or a raising serial evaluation) becomes a worst-fitness failure
        record, and a ``map_fn`` batch that fails wholesale (e.g. its
        worker pool died) is re-evaluated serially in-process.
        """
        self._evaluations += len(population)
        memo = self._memo
        keys = [tuple(ind) for ind in population]
        fresh = []
        for key in keys:
            if key in memo:
                self._cache_hits += 1
            elif key not in fresh:
                fresh.append(key)
        if fresh:
            values = self._evaluate_fresh([list(k) for k in fresh])
            for key, value in zip(fresh, values):
                memo[key] = value
        return [memo[key] for key in keys]

    def _evaluate_fresh(self, batch: List[List[int]]) -> List[float]:
        """Evaluate unmemoized gene vectors, surviving evaluator failures."""
        if self.map_fn is None:
            return [self._safe_fitness(genes) for genes in batch]
        try:
            values = list(self.map_fn(batch))
            if len(values) != len(batch):
                raise RuntimeError(
                    f"map_fn returned {len(values)} values for "
                    f"{len(batch)} gene vectors"
                )
        except Exception as exc:
            # The whole batch evaluator failed; fall back to in-process
            # serial evaluation so the generation still completes.
            self._record_failure([], exc)
            return [self._safe_fitness(genes) for genes in batch]
        out: List[float] = []
        for genes, value in zip(batch, values):
            if isinstance(value, BaseException):
                self._record_failure(genes, value)
                out.append(float("inf"))
            else:
                out.append(float(value))  # type: ignore[arg-type]
        return out

    # -- telemetry ---------------------------------------------------------------

    def _diversity(self, population: List[List[int]]) -> float:
        """Mean per-gene population std, normalised by the gene's span.

        0.0 for a fully converged population; around 0.29 (the std of a
        uniform distribution) for a population spread over the bounds.
        """
        arr = np.asarray(population, dtype=float)
        spreads = []
        for i, (lo, hi) in enumerate(self.bounds):
            if hi == lo:
                continue
            spreads.append(float(np.std(arr[:, i])) / (hi - lo))
        return float(np.mean(spreads)) if spreads else 0.0

    def _generation_record(
        self,
        generation: int,
        population: List[List[int]],
        fitness: List[float],
        best_fitness: float,
        stall: int,
        wall_seconds: float,
    ) -> Dict[str, Any]:
        """One telemetry row; infinite fitness values become ``None`` so
        the record stays strict-JSON serialisable (JSONL consumers)."""
        finite = [f for f in fitness if np.isfinite(f)]
        return {
            "generation": generation,
            "best_fitness": best_fitness if np.isfinite(best_fitness) else None,
            "gen_best_fitness": min(finite) if finite else None,
            "mean_fitness": float(np.mean(finite)) if finite else None,
            "finite_fraction": len(finite) / len(fitness) if fitness else 0.0,
            "diversity": self._diversity(population),
            "evaluations": self._evaluations,
            "cache_hits": self._cache_hits,
            "cache_hit_rate": (
                self._cache_hits / self._evaluations if self._evaluations else 0.0
            ),
            "stall": stall,
            "failed_evaluations": self._failed_evaluations,
            "wall_seconds": wall_seconds,
        }

    # -- checkpointing -----------------------------------------------------------

    def _config_fingerprint(self) -> Dict[str, Any]:
        """What a checkpoint must match to be resumable.

        Excludes ``generations`` on purpose: resuming a finished run with
        a higher generation budget is the supported way to extend it.
        The fitness function's name stands for the objective, so a run
        scored by simulation never resumes an analytic run's memo.
        """
        fp = asdict(self.config)
        fp.pop("generations")
        fn = self.fitness_fn
        return {"schema": CHECKPOINT_SCHEMA, "config": fp,
                "bounds": [list(b) for b in self.bounds],
                "objective": getattr(fn, "__qualname__", type(fn).__qualname__)}

    def _save_checkpoint(
        self,
        path: str,
        population: List[List[int]],
        fitness: List[float],
        best_genes: List[int],
        best_fitness: float,
        stall: int,
        generations_run: int,
        history: List[float],
    ) -> None:
        """Atomically persist the complete GA state after a generation."""
        state = {
            "fingerprint": self._config_fingerprint(),
            "population": population,
            "fitness": fitness,
            "best_genes": best_genes,
            "best_fitness": best_fitness,
            "stall": stall,
            "generations_run": generations_run,
            "history": history,
            "evaluations": self._evaluations,
            "cache_hits": self._cache_hits,
            "failed_evaluations": self._failed_evaluations,
            "failures": self._failures,
            "memo": [[list(k), v] for k, v in self._memo.items()],
            "rng_state": self._rng.bit_generator.state,
        }
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(state, fh)
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def _load_checkpoint(self, path: str) -> Optional[Dict[str, Any]]:
        """Load and validate a checkpoint; None when absent or mismatched."""
        if not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                state = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(state, dict):
            return None
        if state.get("fingerprint") != self._config_fingerprint():
            return None
        return state

    def _restore(self, state: Dict[str, Any]) -> None:
        """Install a loaded checkpoint into this GA's mutable state."""
        self._evaluations = int(state["evaluations"])
        self._cache_hits = int(state["cache_hits"])
        self._failed_evaluations = int(state["failed_evaluations"])
        self._failures = [dict(f) for f in state["failures"]]
        self._memo = {tuple(k): float(v) for k, v in state["memo"]}
        rng = np.random.default_rng()
        rng.bit_generator.state = state["rng_state"]
        self._rng = rng

    # -- main loop ---------------------------------------------------------------

    def run(
        self,
        initial: Optional[Sequence[Sequence[int]]] = None,
        on_generation: Optional[GenerationCallback] = None,
        checkpoint_path: Optional[str] = None,
    ) -> GAResult:
        """Run the GA; ``initial`` seeds part of the first population.

        ``on_generation``, when given, receives one telemetry record dict
        after every evaluated generation (generation 0 is the seeded
        initial population): best/mean fitness, population diversity,
        cumulative evaluation and memo-hit counters, and the wall-clock
        seconds the generation took.

        ``checkpoint_path``, when given, persists the complete GA state
        (population, memo, RNG stream, counters) to that file after every
        generation, and — if the file already holds a checkpoint whose
        configuration matches — resumes from it instead of starting over.
        Resuming with a larger ``generations`` budget extends a finished
        run.
        """
        cfg = self.config
        tick = time.perf_counter()
        state = (
            self._load_checkpoint(checkpoint_path) if checkpoint_path else None
        )
        if state is not None:
            self._restore(state)
            population = [list(ind) for ind in state["population"]]
            fitness = [float(f) for f in state["fitness"]]
            history = [float(f) for f in state["history"]]
            best_genes = list(state["best_genes"])
            best_fitness = float(state["best_fitness"])
            stall = int(state["stall"])
            generations_run = int(state["generations_run"])
        else:
            population = []
            if initial:
                population.extend(self._clip(list(ind)) for ind in initial)
            while len(population) < cfg.population_size:
                population.append(self._random_individual())
            population = population[: cfg.population_size]
            fitness = self._evaluate_population(population)

            history = []
            best_idx = int(np.argmin(fitness))
            best_genes = list(population[best_idx])
            best_fitness = fitness[best_idx]
            stall = 0
            generations_run = 0
            if on_generation is not None:
                now = time.perf_counter()
                on_generation(
                    self._generation_record(
                        0, population, fitness, best_fitness, stall, now - tick
                    )
                )
                tick = now
            if checkpoint_path:
                self._save_checkpoint(
                    checkpoint_path, population, fitness, best_genes,
                    best_fitness, stall, generations_run, history,
                )

        for _gen in range(generations_run, cfg.generations):
            if cfg.stall_generations and stall >= cfg.stall_generations:
                break
            generations_run += 1
            ranked = sorted(range(len(population)), key=lambda j: fitness[j])
            next_pop: List[List[int]] = [
                list(population[j]) for j in ranked[: cfg.elitism]
            ]
            while len(next_pop) < cfg.population_size:
                parent_a = self._tournament(population, fitness)
                if self._rng.random() < cfg.crossover_rate:
                    parent_b = self._tournament(population, fitness)
                    child = self._crossover(parent_a, parent_b)
                else:
                    child = list(parent_a)
                child = self._mutate(child)
                next_pop.append(child)
            population = next_pop
            fitness = self._evaluate_population(population)
            gen_best = int(np.argmin(fitness))
            if fitness[gen_best] < best_fitness:
                best_fitness = fitness[gen_best]
                best_genes = list(population[gen_best])
                stall = 0
            else:
                stall += 1
            history.append(best_fitness)
            if on_generation is not None:
                now = time.perf_counter()
                on_generation(
                    self._generation_record(
                        generations_run, population, fitness, best_fitness,
                        stall, now - tick,
                    )
                )
                tick = now
            if checkpoint_path:
                self._save_checkpoint(
                    checkpoint_path, population, fitness, best_genes,
                    best_fitness, stall, generations_run, history,
                )
            if cfg.stall_generations and stall >= cfg.stall_generations:
                break

        return GAResult(
            best_genes=best_genes,
            best_fitness=best_fitness,
            generations_run=generations_run,
            evaluations=self._evaluations,
            history=history,
            cache_hits=self._cache_hits,
            failed_evaluations=self._failed_evaluations,
            failures=list(self._failures),
        )
