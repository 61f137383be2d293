"""Tests for the parallel sweep runner, its worker pool and result cache."""

import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import repro.runner as runner_mod
from repro.params import (
    CacheGeometry,
    cohort_config,
    msi_fcfs_config,
    pcc_config,
)
from repro.runner import (
    SweepJob,
    SweepRunner,
    predicted_miss_rate,
    stats_to_dict,
)
from repro.sim.system import run_simulation
from repro.sim.trace import Trace, decode_trace
from repro.workloads import splash_traces, timer_sweep


@pytest.fixture(scope="module")
def traces():
    return splash_traces("fft", 4, scale=0.3, seed=0)


def named_configs():
    return {
        "cohort": cohort_config([60, 20, 5, 120]),
        "msi": msi_fcfs_config(4),
        "pcc": pcc_config(4),
    }


class TestResultFidelity:
    def test_matches_direct_simulation(self, traces):
        cfg = cohort_config([60] * 4)
        runner = SweepRunner(jobs=1, cache_dir=None)
        result = runner.run_one(cfg, traces)
        stats = run_simulation(cfg, traces)
        assert result["final_cycle"] == stats.final_cycle
        assert result["execution_time"] == stats.execution_time
        for got, core in zip(result["cores"], stats.cores):
            assert got["hits"] == core.hits
            assert got["misses"] == core.misses
            assert got["total_memory_latency"] == core.total_memory_latency

    def test_stats_to_dict_is_json_native(self, traces):
        import json

        stats = run_simulation(cohort_config([60] * 4), traces)
        d = stats_to_dict(stats)
        assert json.loads(json.dumps(d)) == d


class TestParallelDeterminism:
    def test_jobs4_equals_jobs1(self, traces):
        serial = SweepRunner(jobs=1, cache_dir=None)
        parallel = SweepRunner(jobs=4, cache_dir=None)
        a = serial.run_systems(named_configs(), traces)
        b = parallel.run_systems(named_configs(), traces)
        assert a == b
        assert serial.cache_misses == parallel.cache_misses == 3

    def test_record_latencies_cross_process(self, traces):
        cfg = replace(cohort_config([60] * 4), check_coherence=True)
        a = SweepRunner(jobs=1, cache_dir=None).run_one(
            cfg, traces, record_latencies=True
        )
        b = SweepRunner(jobs=2, cache_dir=None).run_one(
            cfg, traces, record_latencies=True
        )
        assert a == b
        assert any(c["request_latencies"] for c in a["cores"])


class TestCache:
    def test_second_run_is_served_from_cache(self, traces, tmp_path):
        cache = str(tmp_path / "sweeps")
        first = SweepRunner(jobs=1, cache_dir=cache)
        a = first.run_systems(named_configs(), traces)
        assert (first.cache_hits, first.cache_misses) == (0, 3)
        second = SweepRunner(jobs=1, cache_dir=cache)
        b = second.run_systems(named_configs(), traces)
        assert (second.cache_hits, second.cache_misses) == (3, 0)
        assert a == b

    def test_in_memory_memo_within_one_runner(self, traces):
        runner = SweepRunner(jobs=1, cache_dir=None)
        cfg = cohort_config([60] * 4)
        a = runner.run_one(cfg, traces)
        b = runner.run_one(cfg, traces)
        assert a == b
        assert (runner.cache_hits, runner.cache_misses) == (1, 1)

    def test_key_depends_on_config_and_traces(self, traces):
        cfg = cohort_config([60] * 4)
        base = SweepJob(cfg, tuple(traces)).digest()
        assert SweepJob(cohort_config([61] + [60] * 3), tuple(traces)).digest() != base
        assert SweepJob(cfg, tuple(traces[:3]) + (traces[0],)).digest() != base
        assert (
            SweepJob(replace(cfg, check_coherence=True), tuple(traces)).digest()
            != base
        )
        assert SweepJob(cfg, tuple(traces), record_latencies=True).digest() != base
        assert SweepJob(cfg, tuple(traces)).digest() == base

    def test_corrupt_cache_entry_is_recomputed(self, traces, tmp_path):
        cache = str(tmp_path / "sweeps")
        cfg = cohort_config([60] * 4)
        first = SweepRunner(jobs=1, cache_dir=cache)
        a = first.run_one(cfg, traces)
        key = SweepJob(cfg, tuple(traces)).digest()
        path = tmp_path / "sweeps" / f"{key}.json"
        path.write_text("{not json")
        second = SweepRunner(jobs=1, cache_dir=cache)
        b = second.run_one(cfg, traces)
        assert a == b
        assert second.cache_misses == 1

    def test_rejects_invalid_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_results_carry_stats_schema_version(self, traces):
        from repro.sim.stats import STATS_SCHEMA_VERSION

        result = SweepRunner(jobs=1, cache_dir=None).run_one(
            cohort_config([60] * 4), traces
        )
        assert result["schema"] == STATS_SCHEMA_VERSION

    def test_digest_depends_on_stats_schema_version(self, traces, monkeypatch):
        """A stats-schema bump must invalidate on-disk cache entries."""
        import repro.runner as runner_mod

        cfg = cohort_config([60] * 4)
        base = SweepJob(cfg, tuple(traces)).digest()
        monkeypatch.setattr(
            runner_mod, "STATS_SCHEMA_VERSION",
            runner_mod.STATS_SCHEMA_VERSION + 1,
        )
        assert SweepJob(cfg, tuple(traces)).digest() != base

    def test_stale_schema_cache_entry_is_not_replayed(self, traces, tmp_path,
                                                      monkeypatch):
        """Entries written under an older schema miss instead of serving
        dicts that lack the new telemetry fields."""
        import repro.runner as runner_mod

        cache = str(tmp_path / "sweeps")
        cfg = cohort_config([60] * 4)
        monkeypatch.setattr(runner_mod, "STATS_SCHEMA_VERSION", 1)
        old = SweepRunner(jobs=1, cache_dir=cache)
        old.run_one(cfg, traces)
        assert old.cache_misses == 1
        monkeypatch.undo()
        new = SweepRunner(jobs=1, cache_dir=cache)
        result = new.run_one(cfg, traces)
        assert new.cache_misses == 1  # the v1 entry did not hit
        assert result["schema"] == runner_mod.STATS_SCHEMA_VERSION

    def test_telemetry_counters(self, traces, tmp_path):
        cache = str(tmp_path / "sweeps")
        runner = SweepRunner(jobs=1, cache_dir=cache)
        runner.run_systems(named_configs(), traces)
        runner.run_systems(named_configs(), traces)
        tel = runner.telemetry()
        assert tel["cache_misses"] == 3
        assert tel["cache_hits"] == 3
        assert tel["cache_hit_rate"] == 0.5
        assert tel["jobs_executed"] == 3
        assert tel["exec_seconds"] > 0.0
        assert tel["parallel_batches"] == 0


class TestMissRatePredictor:
    """The routing predictor is a plain direct-mapped cache, vectorised."""

    @staticmethod
    def direct_mapped_misses(lines, num_sets):
        resident = {}
        misses = 0
        for line in lines:
            if resident.get(line % num_sets) != line:
                misses += 1
                resident[line % num_sets] = line
        return misses

    @staticmethod
    def random_trace(rng):
        n = int(rng.integers(0, 2000))
        # A small footprint with reuse, so both hits and misses occur.
        lines = rng.integers(0, int(rng.integers(1, 600)), size=n)
        return Trace.from_arrays(
            rng.integers(0, 5, size=n),
            rng.integers(0, 2, size=n),
            lines * 64 + rng.integers(0, 64, size=n),
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_a_per_access_model_on_random_traces(self, seed):
        rng = np.random.default_rng(seed)
        trace = self.random_trace(rng)
        decoded = decode_trace(trace, 64)
        for num_sets in (1, 4, 64, 256):
            assert decoded.isolation_misses(num_sets) == (
                self.direct_mapped_misses(
                    (trace.addrs // 64).tolist(), num_sets
                )
            )

    def test_group_rate_is_weighted_by_accesses(self):
        rng = np.random.default_rng(99)
        traces = [self.random_trace(rng) for _ in range(3)]
        l1 = CacheGeometry(size_bytes=64 * 64, line_bytes=64)
        misses = sum(
            self.direct_mapped_misses((t.addrs // 64).tolist(), 64)
            for t in traces
        )
        accesses = sum(len(t) for t in traces)
        assert predicted_miss_rate(traces, l1) == misses / accesses
        assert predicted_miss_rate([Trace()], l1) == 0.0


class TestWorkerPool:
    """One long-lived pool per process, shared by every runner."""

    @pytest.fixture
    def worker_pids(self, tmp_path, monkeypatch):
        """Pids of the processes that ran simulations since the last call.

        Each simulation also sleeps a little, so a batch of several
        units reaches every worker of the pool.
        """
        log = tmp_path / "pids"
        real_simulate = runner_mod._simulate

        def recording(engine, config, traces, record):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            time.sleep(0.2)
            return real_simulate(engine, config, traces, record)

        runner_mod.shutdown_pool()
        monkeypatch.setattr(runner_mod, "_simulate", recording)

        def read():
            pids = {int(p) for p in log.read_text().split()}
            log.unlink()
            return pids

        yield read
        runner_mod.shutdown_pool()

    @staticmethod
    def runner():
        return SweepRunner(jobs=2, cache_dir=None, mp_context="fork")

    def test_two_runners_reuse_the_same_workers(self, traces, worker_pids):
        jobs = [
            SweepJob(cohort_config([theta] * 4), tuple(traces))
            for theta in (5, 17, 60, 200)
        ]
        first = self.runner().run(jobs)
        first_pids = worker_pids()
        second = self.runner().run(jobs)
        second_pids = worker_pids()
        assert first == second
        assert len(first_pids) == 2 and os.getpid() not in first_pids
        assert second_pids == first_pids

    def test_concurrent_runners_share_one_pool(self, traces, worker_pids):
        # Serve shards call `run` from executor threads: four threads
        # racing for the pool table, with thread switches forced every
        # microsecond, must still end up on one pool of two workers.
        import sys
        import threading

        jobs = [
            SweepJob(cohort_config([theta] * 4), tuple(traces))
            for theta in (5, 17)
        ]
        expected = [stats_to_dict(run_simulation(j.config, traces))
                    for j in jobs]
        results, errors = [], []

        def sweep():
            try:
                results.append(self.runner().run(jobs))
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sweep) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and results == [expected] * 4
        assert len(worker_pids()) <= 2

    @pytest.mark.parametrize(
        "method", multiprocessing.get_all_start_methods()
    )
    def test_a_sweep_runs_under_every_start_method(self, traces, method):
        # Under forkserver a worker's parent is the fork server, not the
        # pool's owner; the worker's watch on its parent must not take
        # that for the owner's death.  The batch holds a lock-step group
        # (two shares) and two fast-path jobs.
        hit_traces = tuple(timer_sweep(2, 8000, seed=0))
        jobs = [
            SweepJob(cohort_config([theta] * 2), hit_traces)
            for theta in (60, 120)
        ] + [
            SweepJob(cohort_config([theta] * 4), tuple(traces))
            for theta in (5, 17)
        ]
        runner = SweepRunner(jobs=2, cache_dir=None, mp_context=method)
        runner_mod.shutdown_pool()
        try:
            results = runner.run(jobs)
        finally:
            runner_mod.shutdown_pool()
        direct = [
            stats_to_dict(run_simulation(job.config, job.traces))
            for job in jobs
        ]
        assert results == direct
        assert (runner.lockstep_jobs, runner.fast_jobs) == (2, 2)
        assert runner.parallel_batches == 1
        assert (runner.worker_failures, runner.job_retries) == (0, 0)

    def test_protocol_registered_after_the_pool_started(
        self, traces, worker_pids
    ):
        from repro.sim.protocols import (
            MSI,
            CoherenceProtocol,
            register,
            unregister,
        )

        self.runner().run([
            SweepJob(cohort_config([theta] * 4), tuple(traces))
            for theta in (5, 17)
        ])
        started = worker_pids()
        register(CoherenceProtocol("late_msi", MSI.tables,
                                   heterogeneous=False))
        try:
            configs = [
                replace(msi_fcfs_config(4), protocol="late_msi"),
                replace(pcc_config(4), protocol="late_msi"),
            ]
            results = self.runner().run(
                [SweepJob(c, tuple(traces)) for c in configs]
            )
            direct = [
                stats_to_dict(run_simulation(c, traces)) for c in configs
            ]
        finally:
            unregister("late_msi")
        late = worker_pids()
        assert results == direct
        # The registry changed, so the batch ran on a fresh pool.
        assert late and os.getpid() not in late and not late & started


class TestWithinBatchDedup:
    def test_duplicate_jobs_in_one_batch_execute_once(self, traces):
        job = SweepJob(cohort_config([60] * 4), tuple(traces))
        runner = SweepRunner(jobs=1, cache_dir=None)
        a, b, c = runner.run([job, job, job])
        assert a == b == c
        assert runner.cache_misses == 1
        assert runner.cache_hits == 2
        assert runner.jobs_executed == 1


class TestCacheStoreFailures:
    def test_unserialisable_result_reraises_and_leaves_no_tmp(self, tmp_path):
        # Regression: a TypeError from json.dump used to be swallowed by
        # an `except OSError` that never matched, leaking the mkstemp
        # temp file and silently dropping the store.
        import os

        cache = str(tmp_path / "sweeps")
        runner = SweepRunner(jobs=1, cache_dir=cache)
        with pytest.raises(TypeError):
            runner._cache_store("0" * 16, {"final_cycle": object()})
        assert [n for n in os.listdir(cache) if n.endswith(".tmp")] == []
        tel = runner.telemetry()
        assert tel["cache_store_failures"] == 1
        assert "TypeError" in tel["cache_store_last_error"]

    def test_os_error_is_swallowed_but_counted(self, tmp_path, monkeypatch):
        import os

        cache = str(tmp_path / "sweeps")
        runner = SweepRunner(jobs=1, cache_dir=cache)

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", exploding_replace)
        runner._cache_store("0" * 16, {"final_cycle": 1})  # must not raise
        tel = runner.telemetry()
        assert tel["cache_store_failures"] == 1
        assert "disk full" in tel["cache_store_last_error"]
        monkeypatch.undo()
        assert [n for n in os.listdir(cache) if n.endswith(".tmp")] == []
        # The in-memory copy still serves this runner.
        assert runner._memory["0" * 16] == {"final_cycle": 1}

    def test_orphan_tmp_swept_at_init(self, tmp_path):
        cache = tmp_path / "sweeps"
        cache.mkdir(parents=True)
        (cache / "deadbeef.tmp").write_text("partial store from a crash")
        (cache / "entry.json").write_text("{}")
        runner = SweepRunner(jobs=1, cache_dir=str(cache))
        assert runner.cache_tmp_swept == 1
        assert runner.telemetry()["cache_tmp_swept"] == 1
        assert not (cache / "deadbeef.tmp").exists()
        assert (cache / "entry.json").exists()


def _race_worker(cache_dir, barrier, out_queue):
    # Module-level so the "fork"/"spawn" child can import it.
    import json

    traces = splash_traces("fft", 4, scale=0.2, seed=0)
    cfg = cohort_config([60, 20, 5, 120])
    runner = SweepRunner(jobs=1, cache_dir=cache_dir)
    barrier.wait(timeout=60)
    result = runner.run_one(cfg, traces)
    out_queue.put(json.dumps(result, sort_keys=True))


class TestCacheContention:
    def test_two_runners_race_on_same_key(self, tmp_path):
        # The exact contention pattern `cohort serve` creates: two runner
        # processes, same cache dir, same job digest, simultaneous runs.
        # Both must succeed and agree byte-for-byte.
        import json
        import multiprocessing

        cache = tmp_path / "sweeps"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        out_queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_race_worker, args=(str(cache), barrier, out_queue)
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        payloads = [out_queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert payloads[0] == payloads[1]

        traces = splash_traces("fft", 4, scale=0.2, seed=0)
        cfg = cohort_config([60, 20, 5, 120])
        direct = SweepRunner(jobs=1, cache_dir=None).run_one(cfg, traces)
        assert json.loads(payloads[0]) == direct

        # Exactly one envelope survives, it is valid, and no temp files
        # were left behind by the losing writer.
        files = sorted(cache.glob("*.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert doc["result"] == direct
        assert doc["digest"] == files[0].name[: -len(".json")]
        assert list(cache.glob("*.tmp")) == []
        # A fresh runner replays the surviving envelope as a hit.
        reader = SweepRunner(jobs=1, cache_dir=str(cache))
        assert reader.run_one(cfg, traces) == direct
        assert reader.cache_hits == 1 and reader.cache_misses == 0


class TestExperimentIntegration:
    def test_wcml_experiment_parallel_equals_serial(self, traces):
        from repro.experiments.wcml import run_wcml_experiment
        from repro.opt import GAConfig

        ga = GAConfig(population_size=6, generations=3, seed=1)
        kwargs = dict(critical=[True, True, False, False], scale=0.3,
                      ga_config=ga)
        serial = run_wcml_experiment(
            "fft", runner=SweepRunner(jobs=1, cache_dir=None), **kwargs
        )
        parallel = run_wcml_experiment(
            "fft", runner=SweepRunner(jobs=4, cache_dir=None), **kwargs
        )
        assert serial.to_dict() == parallel.to_dict()

    def test_performance_benchmark_parallel_equals_serial(self, traces):
        from repro.experiments.performance import run_performance_benchmark
        from repro.opt import GAConfig

        ga = GAConfig(population_size=6, generations=3, seed=1)
        kwargs = dict(critical=[True] * 4, scale=0.3, ga_config=ga)
        serial = run_performance_benchmark(
            "fft", runner=SweepRunner(jobs=1, cache_dir=None), **kwargs
        )
        parallel = run_performance_benchmark(
            "fft", runner=SweepRunner(jobs=4, cache_dir=None), **kwargs
        )
        assert serial.execution_time == parallel.execution_time
        assert serial.bus_utilization == parallel.bus_utilization
