"""Crash-containment tests for the sweep runner's parallel path.

These tests really kill worker processes (``SIGKILL`` mid-batch) and
really time simulations out, then assert that the batch survives:
completed results are kept, only the affected units are retried, retry
budgets are honoured, and the telemetry counters account for
everything.  Every case runs twice: once with each job a fast-path
unit of its own, and once with the poison job inside a lock-step share.

The runner is pointed at ``mp_context="fork"`` and each test starts and
ends with :func:`repro.runner.shutdown_pool`, so the workers are forked
after the test instruments ``_simulate`` and do not outlive it.  The
retry budget and backoff are module constants, read only in the parent
process, so a test sets them with ``monkeypatch``.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest

import repro.runner as runner_mod
from repro.params import cohort_config
from repro.runner import (
    LOCKSTEP_MISS_RATE,
    SweepExecutionError,
    SweepJob,
    SweepRunner,
    predicted_miss_rate,
)
from repro.sim.system import run_simulation
from repro.workloads import splash_traces, timer_sweep

pytestmark = pytest.mark.skipif(
    not (hasattr(signal, "SIGKILL") and hasattr(signal, "SIGALRM")),
    reason="resilience tests need POSIX signals",
)

#: Smuggled through ``SimConfig.max_cycles`` to mark the job the
#: instrumented ``_simulate`` should sabotage.  Far above any cycle
#: count these workloads reach, so it never trips the simulation
#: watchdog and the poison job's *result* stays correct.
POISON_MAX_CYCLES = 987_654_321

#: Where the poison job runs: a fast-path unit of its own, or a share
#: of a lock-step group split over the two workers.
LAYOUTS = ("fast", "lockstep")


@pytest.fixture(scope="module")
def traces():
    return splash_traces("fft", 2, scale=0.2, seed=0)


@pytest.fixture(scope="module")
def hit_traces():
    traces = timer_sweep(2, 8000, seed=0)
    assert predicted_miss_rate(traces, cohort_config([60, 20]).l1) < (
        LOCKSTEP_MISS_RATE
    )
    return traces


@pytest.fixture(autouse=True)
def fresh_pool():
    """Fork the workers after the test's monkeypatches; stop them after."""
    runner_mod.shutdown_pool()
    yield
    runner_mod.shutdown_pool()


@pytest.fixture(autouse=True)
def short_backoff(monkeypatch):
    monkeypatch.setattr(runner_mod, "BACKOFF_BASE", 0.001)


def batch_with_poison(layout, traces, hit_traces):
    """Three innocent jobs plus one poison-marked job (slot 1).

    In the ``fast`` layout each job replays its own trace prefix, so no
    two share a trace set and each is a fast-path unit of its own.  In
    the ``lockstep`` layout all four share one hit-dominated trace set:
    one lock-step group, split into two shares.
    """
    configs = [
        cohort_config([60, 20]),
        replace(cohort_config([80, 25]), max_cycles=POISON_MAX_CYCLES),
        cohort_config([100, 30]),
        cohort_config([120, 35]),
    ]
    if layout == "lockstep":
        return [SweepJob(cfg, tuple(hit_traces)) for cfg in configs]
    return [
        SweepJob(cfg, tuple(t.slice(0, len(t) - i) for t in traces))
        for i, cfg in enumerate(configs)
    ]


def is_poison(config) -> bool:
    return config.max_cycles == POISON_MAX_CYCLES


def resilient_runner(**kw) -> SweepRunner:
    kw.setdefault("jobs", 2)
    kw.setdefault("cache_dir", None)
    kw.setdefault("mp_context", "fork")
    return SweepRunner(**kw)


def expected_engine_jobs(runner, layout) -> None:
    """Every job of the batch ran on the engine its layout names."""
    assert runner.jobs_executed == 4
    if layout == "lockstep":
        assert (runner.lockstep_jobs, runner.fast_jobs) == (4, 0)
    else:
        assert (runner.lockstep_jobs, runner.fast_jobs) == (0, 4)


class TestWorkerDeath:
    def test_sigkilled_worker_does_not_fail_the_batch(
        self, traces, hit_traces, tmp_path, monkeypatch
    ):
        real_simulate = runner_mod._simulate
        for layout in LAYOUTS:
            runner_mod.shutdown_pool()
            flag = str(tmp_path / f"killed-once-{layout}")

            def kill_once(engine, config, traces, record):
                if is_poison(config) and not os.path.exists(flag):
                    open(flag, "w").close()
                    os.kill(os.getpid(), signal.SIGKILL)
                return real_simulate(engine, config, traces, record)

            monkeypatch.setattr(runner_mod, "_simulate", kill_once)
            runner = resilient_runner()
            jobs = batch_with_poison(layout, traces, hit_traces)
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
            expected_engine_jobs(runner, layout)

    def test_deterministic_killer_exhausts_retry_budget(
        self, traces, hit_traces, monkeypatch
    ):
        real_simulate = runner_mod._simulate

        def always_kill(engine, config, traces, record):
            if is_poison(config):
                os.kill(os.getpid(), signal.SIGKILL)
            return real_simulate(engine, config, traces, record)

        monkeypatch.setattr(runner_mod, "_simulate", always_kill)
        monkeypatch.setattr(runner_mod, "MAX_RETRIES", 1)
        for layout in LAYOUTS:
            runner = resilient_runner()
            with pytest.raises(
                SweepExecutionError, match="worker process died"
            ):
                runner.run(batch_with_poison(layout, traces, hit_traces))
            assert runner.worker_failures >= 2  # initial attempt + retry

    def test_pool_broken_in_submission_completes_the_batch(
        self, traces, hit_traces, monkeypatch
    ):
        # A worker that dies while the batch is still being submitted
        # makes the next submit() raise, not a future: the units it
        # refused run on a fresh pool.
        for layout in LAYOUTS:
            runner_mod.shutdown_pool()
            pool = runner_mod._pool(2, "fork")
            submitted = []

            def submit(fn, *args):
                if submitted:
                    raise BrokenProcessPool("a child process terminated")
                submitted.append(args)
                return type(pool).submit(pool, fn, *args)

            monkeypatch.setattr(pool, "submit", submit)
            jobs = batch_with_poison(layout, traces, hit_traces)
            runner = resilient_runner()
            results = runner.run(jobs)
            assert len(submitted) == 1
            assert results == SweepRunner(jobs=1, cache_dir=None).run(jobs)
            assert runner.worker_failures == 1
            assert runner.job_retries >= 1
            expected_engine_jobs(runner, layout)


class TestTimeouts:
    def test_timed_out_job_is_retried_and_recovers(
        self, traces, hit_traces, tmp_path, monkeypatch
    ):
        real_simulate = runner_mod._simulate
        for layout in LAYOUTS:
            runner_mod.shutdown_pool()
            flag = str(tmp_path / f"slept-once-{layout}")

            def hang_once(engine, config, traces, record):
                if is_poison(config) and not os.path.exists(flag):
                    open(flag, "w").close()
                    time.sleep(60)
                return real_simulate(engine, config, traces, record)

            monkeypatch.setattr(runner_mod, "_simulate", hang_once)
            runner = resilient_runner(timeout=0.5)
            jobs = batch_with_poison(layout, traces, hit_traces)
            results = runner.run(jobs)
            assert all(r["final_cycle"] > 0 for r in results)
            assert runner.job_timeouts >= 1
            assert runner.job_retries >= 1
            assert runner.worker_failures == 0  # pool survived the timeout
            expected_engine_jobs(runner, layout)

    def test_permanently_stuck_job_fails_loudly(
        self, traces, hit_traces, monkeypatch
    ):
        real_simulate = runner_mod._simulate

        def always_hang(engine, config, traces, record):
            if is_poison(config):
                time.sleep(60)
            return real_simulate(engine, config, traces, record)

        monkeypatch.setattr(runner_mod, "_simulate", always_hang)
        monkeypatch.setattr(runner_mod, "MAX_RETRIES", 1)
        for layout in LAYOUTS:
            runner = resilient_runner(timeout=0.3)
            with pytest.raises(SweepExecutionError, match="timeout"):
                runner.run(batch_with_poison(layout, traces, hit_traces))
            assert runner.job_timeouts == 2  # initial attempt + one retry

    def test_timeout_bounds_each_simulation_of_a_lockstep_share(
        self, hit_traces, monkeypatch
    ):
        # Every simulation takes 0.6 s and the timeout is 1 s: a share
        # of two runs 1.2 s, yet none times out, because the alarm is
        # re-armed for each simulation.  A simulation that sleeps past
        # it times out inside its share.
        real_simulate = runner_mod._simulate

        def slow(engine, config, traces, record):
            time.sleep(5 if is_poison(config) else 0.6)
            return real_simulate(engine, config, traces, record)

        monkeypatch.setattr(runner_mod, "_simulate", slow)
        monkeypatch.setattr(runner_mod, "MAX_RETRIES", 0)
        jobs = batch_with_poison("lockstep", None, hit_traces)
        runner = resilient_runner(timeout=1.0)
        # Three distinct jobs: shares of two and one simulations.
        results = runner.run([jobs[0], jobs[2], jobs[3]])
        assert all(r["final_cycle"] > 0 for r in results)
        assert runner.lockstep_jobs == 3 and runner.job_timeouts == 0
        runner = resilient_runner(timeout=1.0)
        with pytest.raises(SweepExecutionError, match="timeout"):
            runner.run(jobs)
        assert runner.job_timeouts == 1


#: A pool owner in a fresh interpreter: one parallel batch on a pool of
#: two workers started by the method named in ``argv[1]``, then the
#: workers' pids as the last line of stdout, then death by SIGKILL.
SWEEP_OWNER = """
import multiprocessing, os, signal, sys
from repro.params import cohort_config
from repro.runner import SweepJob, SweepRunner
from repro.workloads import splash_traces

traces = tuple(splash_traces("fft", 2, scale=0.2, seed=0))
SweepRunner(jobs=2, cache_dir=None, mp_context=sys.argv[1]).run(
    [SweepJob(cohort_config([t, t]), traces) for t in (5, 17, 60, 200)]
)
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""

#: The same, with the pool started by a measured-fitness GA run: the
#: command's generations are batches on the runner's pool, whose
#: workers start by the process's default method, set from ``argv[1]``.
GA_OWNER = """
import multiprocessing, os, signal, sys
multiprocessing.set_start_method(sys.argv[1])
from repro.cli import main

assert main(["optimize", "-b", "fft", "--scale", "0.2", "--sim-fitness",
             "--jobs", "2", "--population", "4", "--generations", "1"]) == 0
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _exited(pid) -> bool:
    """Whether ``pid`` is gone or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestPoolOutlivesNoParent:
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    @pytest.mark.parametrize(
        "script", [SWEEP_OWNER, GA_OWNER], ids=["sweep", "optimize"]
    )
    @pytest.mark.parametrize(
        "method", multiprocessing.get_all_start_methods()
    )
    def test_workers_exit_when_their_parent_is_killed(
        self, method, script, tmp_path
    ):
        # An idle worker blocks on a task pipe that a SIGKILLed owner
        # never closes; the long-lived pool must not leak its workers,
        # whichever process (the owner, or its fork server) started them.
        src = os.path.dirname(os.path.dirname(runner_mod.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([path] if path else [])
        ))
        out = tmp_path / "pids"
        # stdout is a file, not a pipe: a leaked worker would hold a
        # pipe open and hang this run.
        with open(out, "w") as fh:
            owner = subprocess.run(
                [sys.executable, "-c", script, method],
                stdout=fh, env=env, timeout=120,
            )
        assert owner.returncode == -signal.SIGKILL
        last_line = out.read_text().splitlines()[-1]
        workers = {int(pid) for pid in last_line.split()}
        assert len(workers) == 2
        deadline = time.monotonic() + 10
        try:
            while time.monotonic() < deadline and not all(
                map(_exited, workers)
            ):
                time.sleep(0.1)
            assert all(map(_exited, workers))
        finally:
            for pid in workers:
                if not _exited(pid):
                    os.kill(pid, signal.SIGKILL)


class TestSimulationErrorsAreNotRetried:
    def test_deterministic_sim_error_propagates_without_retry(
        self, traces, hit_traces, monkeypatch
    ):
        real_simulate = runner_mod._simulate

        def broken_sim(engine, config, traces, record):
            if is_poison(config):
                raise ValueError("deterministic simulation defect")
            return real_simulate(engine, config, traces, record)

        monkeypatch.setattr(runner_mod, "_simulate", broken_sim)
        for layout in LAYOUTS:
            runner = resilient_runner()
            with pytest.raises(ValueError, match="deterministic"):
                runner.run(batch_with_poison(layout, traces, hit_traces))
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
