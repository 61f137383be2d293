"""Graceful degradation and checkpoint/resume tests for the GA.

A fitness evaluation that raises — or a batch evaluator that dies
wholesale — must cost the GA one worst-fitness individual (plus a
failure record), never the run.  A checkpointed run interrupted at any
generation must resume to exactly the result an uninterrupted run
produces.  A GA scored by simulation runs each generation on the sweep
runner's worker pool, whose worker deaths must cost it nothing.
"""

import json
import math
import multiprocessing
import os
import signal

import pytest

import repro.runner as runner_mod
from repro.analysis import build_profiles
from repro.opt import SimulationFitness, TimerProblem
from repro.opt.ga import GAConfig, GeneticAlgorithm
from repro.params import LatencyParams, cohort_config
from repro.runner import SweepRunner
from repro.workloads import splash_traces

BOUNDS = [(1, 100)] * 3


def good_fitness(genes):
    return float(sum(genes))


def flaky_fitness(genes):
    if genes[0] % 5 == 0:
        raise ValueError(f"flaky at {genes[0]}")
    return float(sum(genes))


def small_config(**kw):
    kw.setdefault("population_size", 12)
    kw.setdefault("generations", 6)
    kw.setdefault("seed", 3)
    kw.setdefault("stall_generations", 0)
    return GAConfig(**kw)


class TestFailureDegradation:
    def test_raising_fitness_becomes_worst_not_fatal(self):
        ga = GeneticAlgorithm(BOUNDS, flaky_fitness, small_config())
        result = ga.run()
        assert math.isfinite(result.best_fitness)
        assert result.best_genes[0] % 5 != 0
        assert result.failed_evaluations > 0
        assert result.failures
        record = result.failures[0]
        assert record["genes"][0] % 5 == 0
        assert "flaky" in record["error"]

    def test_mapfn_exception_entries_become_worst(self):
        def flaky_map(batch):
            return [
                ValueError("poisoned slot") if g[0] % 5 == 0 else float(sum(g))
                for g in batch
            ]

        ga = GeneticAlgorithm(
            BOUNDS, flaky_fitness, small_config(), map_fn=flaky_map
        )
        result = ga.run()
        assert math.isfinite(result.best_fitness)
        assert result.failed_evaluations > 0

    def test_wholesale_mapfn_failure_falls_back_to_serial(self):
        calls = {"n": 0}

        def dying_map(batch):
            calls["n"] += 1
            raise RuntimeError("worker pool vanished")

        cfg = small_config()
        degraded = GeneticAlgorithm(
            BOUNDS, good_fitness, cfg, map_fn=dying_map
        ).run()
        serial = GeneticAlgorithm(BOUNDS, good_fitness, cfg).run()
        assert calls["n"] > 0
        assert degraded.best_genes == serial.best_genes
        assert degraded.best_fitness == serial.best_fitness
        assert degraded.history == serial.history
        assert degraded.failed_evaluations == calls["n"]

    def test_short_mapfn_batch_is_treated_as_failure(self):
        def truncating_map(batch):
            return [float(sum(g)) for g in batch][:-1]

        cfg = small_config()
        degraded = GeneticAlgorithm(
            BOUNDS, good_fitness, cfg, map_fn=truncating_map
        ).run()
        serial = GeneticAlgorithm(BOUNDS, good_fitness, cfg).run()
        assert degraded.best_fitness == serial.best_fitness
        assert degraded.failed_evaluations > 0

    def test_generation_records_count_failures(self):
        records = []
        ga = GeneticAlgorithm(BOUNDS, flaky_fitness, small_config())
        ga.run(on_generation=records.append)
        assert records
        assert records[-1]["failed_evaluations"] == ga._failed_evaluations
        assert all(0.0 <= r["finite_fraction"] <= 1.0 for r in records)


class TestCheckpointResume:
    def checkpoint(self, tmp_path):
        return str(tmp_path / "ga-state.json")

    def test_resumed_run_equals_uninterrupted_run(self, tmp_path):
        path = self.checkpoint(tmp_path)
        straight = GeneticAlgorithm(
            BOUNDS, good_fitness, small_config(generations=8)
        ).run()

        interrupted = GeneticAlgorithm(
            BOUNDS, good_fitness, small_config(generations=4)
        )
        partial = interrupted.run(checkpoint_path=path)
        assert partial.generations_run == 4

        resumed = GeneticAlgorithm(
            BOUNDS, good_fitness, small_config(generations=8)
        ).run(checkpoint_path=path)
        assert resumed.generations_run == 8
        assert resumed.best_genes == straight.best_genes
        assert resumed.best_fitness == straight.best_fitness
        assert resumed.history == straight.history
        assert resumed.evaluations == straight.evaluations

    def test_finished_run_resumes_as_a_noop(self, tmp_path):
        path = self.checkpoint(tmp_path)
        cfg = small_config(generations=5)
        armed = []

        def fitness(genes):
            if armed:
                raise AssertionError("must not re-evaluate anything")
            return good_fitness(genes)

        first = GeneticAlgorithm(BOUNDS, fitness, cfg).run(
            checkpoint_path=path
        )
        armed.append(True)
        again = GeneticAlgorithm(BOUNDS, fitness, cfg).run(
            checkpoint_path=path
        )
        assert again.best_genes == first.best_genes
        assert again.generations_run == first.generations_run

    def test_mismatched_config_ignores_checkpoint(self, tmp_path):
        path = self.checkpoint(tmp_path)
        GeneticAlgorithm(BOUNDS, good_fitness, small_config()).run(
            checkpoint_path=path
        )
        other_cfg = small_config(mutation_rate=0.5)
        fresh = GeneticAlgorithm(BOUNDS, good_fitness, other_cfg).run()
        resumed = GeneticAlgorithm(BOUNDS, good_fitness, other_cfg).run(
            checkpoint_path=path
        )
        assert resumed.best_fitness == fresh.best_fitness
        assert resumed.history == fresh.history

    def test_checkpoint_of_another_objective_is_ignored(self, tmp_path):
        # An analytic and a simulated run of one benchmark share the GA
        # config and the gene bounds; the fitness function tells them
        # apart, so neither resumes the other's memo.
        path = self.checkpoint(tmp_path)
        cfg = small_config()
        GeneticAlgorithm(BOUNDS, good_fitness, cfg).run(checkpoint_path=path)
        fresh = GeneticAlgorithm(BOUNDS, flaky_fitness, cfg).run()
        resumed = GeneticAlgorithm(BOUNDS, flaky_fitness, cfg).run(
            checkpoint_path=path
        )
        assert resumed == fresh
        assert resumed.failed_evaluations > 0

    def test_corrupt_checkpoint_is_ignored(self, tmp_path):
        path = self.checkpoint(tmp_path)
        with open(path, "w") as fh:
            fh.write("{ not json")
        cfg = small_config()
        result = GeneticAlgorithm(BOUNDS, good_fitness, cfg).run(
            checkpoint_path=path
        )
        assert result.generations_run == cfg.generations
        with open(path) as fh:
            state = json.load(fh)  # overwritten with a valid checkpoint
        assert state["generations_run"] == cfg.generations

    def test_checkpoint_preserves_failure_accounting(self, tmp_path):
        path = self.checkpoint(tmp_path)
        GeneticAlgorithm(BOUNDS, flaky_fitness, small_config(generations=3)).run(
            checkpoint_path=path
        )
        resumed = GeneticAlgorithm(
            BOUNDS, flaky_fitness, small_config(generations=6)
        ).run(checkpoint_path=path)
        straight = GeneticAlgorithm(
            BOUNDS, flaky_fitness, small_config(generations=6)
        ).run()
        assert resumed.failed_evaluations == straight.failed_evaluations
        assert resumed.best_fitness == straight.best_fitness


@pytest.fixture(scope="module")
def fft_problem():
    """A two-core timer problem over fft traces that miss often enough
    to take the fast path: one pool unit per gene vector."""
    traces = splash_traces("fft", 2, scale=0.2, seed=0)
    config = cohort_config([1, 1])
    problem = TimerProblem(
        build_profiles(traces, config.l1), LatencyParams(), [True, True]
    )
    return problem, config, traces


@pytest.fixture
def fresh_pool():
    """Start the runner's workers after the test's monkeypatches; stop
    them after."""
    runner_mod.shutdown_pool()
    yield
    runner_mod.shutdown_pool()


def simulated_ga(fft_problem, jobs):
    """A GA scored by simulation on a fresh ``jobs``-worker runner."""
    problem, config, traces = fft_problem
    runner = SweepRunner(jobs=jobs, cache_dir=None, mp_context="fork")
    fit = SimulationFitness(problem, config, traces, runner)
    ga = GeneticAlgorithm(
        problem.gene_bounds(), fit.fitness,
        small_config(population_size=6, generations=2), map_fn=fit,
    )
    return ga, runner


@pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs POSIX signals"
)
@pytest.mark.usefixtures("fresh_pool")
class TestSimulatedFitnessOnThePool:
    def test_worker_death_costs_the_run_nothing(
        self, fft_problem, tmp_path, monkeypatch
    ):
        serial = simulated_ga(fft_problem, jobs=1)[0].run()
        real_simulate = runner_mod._simulate
        flag = str(tmp_path / "killed-once")

        def kill_once(engine, config, traces, record):
            in_worker = multiprocessing.parent_process() is not None
            if in_worker and not os.path.exists(flag):
                open(flag, "w").close()
                os.kill(os.getpid(), signal.SIGKILL)
            return real_simulate(engine, config, traces, record)

        monkeypatch.setattr(runner_mod, "_simulate", kill_once)
        ga, runner = simulated_ga(fft_problem, jobs=2)
        result = ga.run()
        assert os.path.exists(flag), "no simulation ran on the pool"
        assert result == serial
        assert runner.worker_failures >= 1
        assert result.failed_evaluations == 0

    def test_simulation_error_scores_worst(
        self, fft_problem, monkeypatch
    ):
        real_simulate = runner_mod._simulate
        poison = [40, 40]

        def broken_sim(engine, config, traces, record):
            if list(config.thetas) == poison:
                raise ValueError("deterministic simulation defect")
            return real_simulate(engine, config, traces, record)

        monkeypatch.setattr(runner_mod, "_simulate", broken_sim)
        ga, runner = simulated_ga(fft_problem, jobs=2)
        result = ga.run(initial=[poison])
        assert runner.parallel_batches >= 1
        assert result.generations_run == ga.config.generations
        assert math.isfinite(result.best_fitness)
        assert ga._memo[tuple(poison)] == math.inf
        errors = [f["error"] for f in result.failures if f["genes"] == poison]
        assert errors and "deterministic" in errors[0]
        # The failed batch keeps what the pool finished, so the serial
        # fallback simulates only the poison again.
        assert runner.cache_misses == len(ga._memo) + 1
