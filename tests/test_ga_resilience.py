"""Graceful degradation and checkpoint/resume tests for the GA.

A fitness evaluation that raises — or a batch evaluator that dies
wholesale — must cost the GA one worst-fitness individual (plus a
failure record), never the run.  A checkpointed run interrupted at any
generation must resume to exactly the result an uninterrupted run
produces.
"""

import json
import math
import os
import signal

import pytest

from repro.opt.engine import _PoolEvaluator
from repro.opt.ga import GAConfig, GeneticAlgorithm

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
        first = GeneticAlgorithm(BOUNDS, good_fitness, cfg).run(
            checkpoint_path=path
        )

        def exploding(genes):
            raise AssertionError("must not re-evaluate anything")

        again = GeneticAlgorithm(BOUNDS, exploding, cfg).run(
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


class DummyProblem:
    """Stands in for TimerProblem: pure, picklable, per-gene control."""

    def fitness(self, genes):
        import multiprocessing

        in_worker = multiprocessing.parent_process() is not None
        if genes[0] == 13 and in_worker:
            os.kill(os.getpid(), signal.SIGKILL)
        if genes[0] == 7:
            raise ValueError("bad gene")
        return float(sum(genes))


@pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs POSIX signals"
)
class TestPoolEvaluator:
    def test_per_gene_exceptions_come_back_in_slot(self):
        evaluator = _PoolEvaluator(DummyProblem(), jobs=2)
        try:
            out = evaluator([[7, 1, 1], [1, 1, 1], [2, 2, 2]])
        finally:
            evaluator.close()
        assert isinstance(out[0], ValueError)
        assert out[1:] == [3.0, 6.0]

    def test_worker_death_falls_back_in_process(self):
        evaluator = _PoolEvaluator(DummyProblem(), jobs=2)
        try:
            out = evaluator([[13, 2, 2], [1, 1, 1], [2, 2, 2]])
            assert out == [17.0, 3.0, 6.0]
            # The pool was rebuilt; the evaluator keeps working.
            assert evaluator([[3, 3, 3]]) == [9.0]
        finally:
            evaluator.close()

    def test_pool_breaking_during_submission_falls_back_in_process(
        self, monkeypatch
    ):
        # A worker that dies while the batch is still being submitted
        # makes the next submit() raise, not the result() calls.
        from concurrent.futures.process import BrokenProcessPool

        evaluator = _PoolEvaluator(DummyProblem(), jobs=2)
        pool = evaluator._ensure_pool()
        submitted = []

        def submit(fn, *args):
            if submitted:
                raise BrokenProcessPool("a child process terminated")
            submitted.append(args)
            return pool.__class__.submit(pool, fn, *args)

        monkeypatch.setattr(pool, "submit", submit)
        try:
            assert evaluator([[1, 1, 1], [2, 2, 2], [3, 3, 3]]) == [
                3.0, 6.0, 9.0,
            ]
        finally:
            evaluator.close()
