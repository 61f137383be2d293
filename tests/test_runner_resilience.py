"""Crash-containment tests for the sweep runner's parallel path.

These tests really kill worker processes (``SIGKILL`` mid-batch) and
really time jobs out, then assert that the batch survives: completed
results are kept, only the affected jobs are retried, retry budgets are
honoured, and the telemetry counters account for everything.

The runner is pointed at ``mp_context="fork"`` so that monkeypatched
module state (the instrumented ``_execute``) is inherited by workers.
"""

import json
import os
import signal
import time
from dataclasses import replace

import pytest

import repro.runner as runner_mod
from repro.params import cohort_config
from repro.runner import (
    SweepExecutionError,
    SweepJob,
    SweepRunner,
)
from repro.sim.system import run_simulation
from repro.workloads import splash_traces

pytestmark = pytest.mark.skipif(
    not (hasattr(signal, "SIGKILL") and hasattr(signal, "SIGALRM")),
    reason="resilience tests need POSIX signals",
)

#: Smuggled through ``SimConfig.max_cycles`` (position 2 of the worker
#: payload) to mark the job the instrumented ``_execute`` should sabotage.
#: Far above any cycle count these workloads reach, so it never trips
#: the simulation watchdog and the poison job's *result* stays correct.
POISON_MAX_CYCLES = 987_654_321


@pytest.fixture(scope="module")
def traces():
    return splash_traces("fft", 2, scale=0.2, seed=0)


def batch_with_poison(traces):
    """Three innocent jobs plus one poison-marked job (slot 1).

    Each job replays its own trace prefix: jobs that share no trace set
    are the traffic that reaches the process pool (a shared one would
    run in-process on the lock-step engine).
    """
    configs = [
        cohort_config([60, 20]),
        replace(cohort_config([80, 25]), max_cycles=POISON_MAX_CYCLES),
        cohort_config([100, 30]),
        cohort_config([120, 35]),
    ]
    return [
        SweepJob(cfg, tuple(t.slice(0, len(t) - i) for t in traces))
        for i, cfg in enumerate(configs)
    ]


def is_poison(payload) -> bool:
    return payload[2] == POISON_MAX_CYCLES


def resilient_runner(**kw) -> SweepRunner:
    kw.setdefault("jobs", 2)
    kw.setdefault("cache_dir", None)
    kw.setdefault("mp_context", "fork")
    kw.setdefault("backoff_base", 0.001)
    return SweepRunner(**kw)


class TestWorkerDeath:
    def test_sigkilled_worker_does_not_fail_the_batch(
        self, traces, tmp_path, monkeypatch
    ):
        flag = str(tmp_path / "killed-once")
        real_execute = runner_mod._execute

        def kill_once(payload):
            if is_poison(payload) and not os.path.exists(flag):
                open(flag, "w").close()
                os.kill(os.getpid(), signal.SIGKILL)
            return real_execute(payload)

        monkeypatch.setattr(runner_mod, "_execute", kill_once)
        runner = resilient_runner()
        jobs = batch_with_poison(traces)
        results = runner.run(jobs)

        assert os.path.exists(flag), "the poison job never ran"
        expected = [
            json.loads(json.dumps(
                runner_mod.stats_to_dict(
                    run_simulation(job.config, job.traces)
                )
            ))
            for job in jobs
        ]
        assert results == expected
        assert runner.worker_failures >= 1
        assert runner.job_retries >= 1
        tele = runner.telemetry()
        assert tele["worker_failures"] == runner.worker_failures
        assert tele["job_retries"] == runner.job_retries
        assert tele["backoff_seconds"] == runner.backoff_seconds > 0

    def test_deterministic_killer_exhausts_retry_budget(
        self, traces, monkeypatch
    ):
        real_execute = runner_mod._execute

        def always_kill(payload):
            if is_poison(payload):
                os.kill(os.getpid(), signal.SIGKILL)
            return real_execute(payload)

        monkeypatch.setattr(runner_mod, "_execute", always_kill)
        runner = resilient_runner(max_retries=1)
        with pytest.raises(SweepExecutionError, match="worker process died"):
            runner.run(batch_with_poison(traces))
        assert runner.worker_failures >= 2  # initial attempt + retry


class TestTimeouts:
    def test_timed_out_job_is_retried_and_recovers(
        self, traces, tmp_path, monkeypatch
    ):
        flag = str(tmp_path / "slept-once")
        real_execute = runner_mod._execute

        def hang_once(payload):
            if is_poison(payload) and not os.path.exists(flag):
                open(flag, "w").close()
                time.sleep(60)
            return real_execute(payload)

        monkeypatch.setattr(runner_mod, "_execute", hang_once)
        runner = resilient_runner(timeout=0.5)
        jobs = batch_with_poison(traces)
        results = runner.run(jobs)
        assert all(r["final_cycle"] > 0 for r in results)
        assert runner.job_timeouts >= 1
        assert runner.job_retries >= 1
        assert runner.worker_failures == 0  # pool survived the timeout

    def test_permanently_stuck_job_fails_loudly(self, traces, monkeypatch):
        real_execute = runner_mod._execute

        def always_hang(payload):
            if is_poison(payload):
                time.sleep(60)
            return real_execute(payload)

        monkeypatch.setattr(runner_mod, "_execute", always_hang)
        runner = resilient_runner(timeout=0.3, max_retries=1)
        with pytest.raises(SweepExecutionError, match="timeout"):
            runner.run(batch_with_poison(traces))
        assert runner.job_timeouts == 2  # initial attempt + one retry


class TestSimulationErrorsAreNotRetried:
    def test_deterministic_sim_error_propagates_without_retry(
        self, traces, monkeypatch
    ):
        real_execute = runner_mod._execute

        def broken_sim(payload):
            if is_poison(payload):
                raise ValueError("deterministic simulation defect")
            return real_execute(payload)

        monkeypatch.setattr(runner_mod, "_execute", broken_sim)
        runner = resilient_runner()
        with pytest.raises(ValueError, match="deterministic"):
            runner.run(batch_with_poison(traces))
        assert runner.parallel_batches == 1
        assert runner.job_retries == 0
        assert runner.worker_failures == 0


class TestCacheEnvelope:
    """Satellite: cache entries are self-describing and verified on load."""

    def entry_path(self, cache_dir, job):
        return os.path.join(cache_dir, f"{job.digest()}.json")

    def test_renamed_entry_is_a_miss_not_a_wrong_result(
        self, traces, tmp_path
    ):
        cache = str(tmp_path / "sweeps")
        job_a = SweepJob(cohort_config([60, 20]), tuple(traces))
        job_b = SweepJob(cohort_config([90, 20]), tuple(traces))
        SweepRunner(jobs=1, cache_dir=cache).run([job_a])
        # Masquerade A's entry under B's key (e.g. a bad cache sync).
        os.rename(self.entry_path(cache, job_a), self.entry_path(cache, job_b))
        runner = SweepRunner(jobs=1, cache_dir=cache)
        result = runner.run([job_b])[0]
        assert (runner.cache_hits, runner.cache_misses) == (0, 1)
        direct = run_simulation(job_b.config, job_b.traces)
        assert result["final_cycle"] == direct.final_cycle

    def test_tampered_schema_tag_is_a_miss(self, traces, tmp_path):
        cache = str(tmp_path / "sweeps")
        job = SweepJob(cohort_config([60, 20]), tuple(traces))
        SweepRunner(jobs=1, cache_dir=cache).run([job])
        path = self.entry_path(cache, job)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["digest"] == job.digest()
        assert doc["cache_version"] == runner_mod.CACHE_VERSION
        doc["stats_schema"] = -1
        with open(path, "w") as fh:
            json.dump(doc, fh)
        runner = SweepRunner(jobs=1, cache_dir=cache)
        runner.run([job])
        assert (runner.cache_hits, runner.cache_misses) == (0, 1)

    def test_intact_entry_is_a_hit(self, traces, tmp_path):
        cache = str(tmp_path / "sweeps")
        job = SweepJob(cohort_config([60, 20]), tuple(traces))
        first = SweepRunner(jobs=1, cache_dir=cache).run([job])[0]
        runner = SweepRunner(jobs=1, cache_dir=cache)
        assert runner.run([job])[0] == first
        assert (runner.cache_hits, runner.cache_misses) == (1, 0)
