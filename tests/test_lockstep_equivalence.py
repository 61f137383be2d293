"""Cross-engine equivalence of the lock-step engine.

The lock-step engine (:mod:`repro.sim.lockstep`) plans whole runs of
cache hits at once; its contract is that every result is
*bit-identical* to the per-event engines.  These tests check that
contract property-style — randomized timer vectors over all registered
protocols and arbiters, compared as full ``stats_to_dict`` documents —
plus the peeling rules (unsupported configs run on the per-event path
transparently) and the sweep runner's same-trace group routing: a
hit-dominated group runs lock-step, a miss-heavy one on the fast path.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.params import (
    MSI_THETA,
    ArbiterKind,
    cohort_config,
    msi_fcfs_config,
)
from repro.runner import (
    LOCKSTEP_MISS_RATE,
    SweepJob,
    SweepRunner,
    predicted_miss_rate,
    stats_to_dict,
)
from repro.sim.lockstep import (
    LockstepSystem,
    LockstepUnsupported,
    lockstep_unsupported_reason,
)
from repro.sim.system import run_simulation
from repro.workloads import timer_sweep, uniform_shared_mix


@pytest.fixture(scope="module")
def traces():
    """Miss-heavy (35% predicted): the runner routes it to the fast path."""
    return uniform_shared_mix(4, 400, seed=3)


@pytest.fixture(scope="module")
def hit_traces():
    """Hit-dominated (0.7% predicted): the runner lock-steps a group."""
    traces = timer_sweep(4, 8000, seed=0)
    assert predicted_miss_rate(traces, cohort_config([60] * 4).l1) < (
        LOCKSTEP_MISS_RATE
    )
    return traces


def random_thetas(rng) -> list:
    grid = [MSI_THETA, 1, 3, 9, 27, 81, 243, 1000]
    return [int(grid[rng.integers(0, len(grid))]) for _ in range(4)]


class TestRandomizedCrossEngine:
    """seed == fast == lockstep on randomized configurations."""

    @pytest.mark.parametrize("trial", range(6))
    def test_random_timer_vectors_all_engines_agree(self, traces, trial):
        rng = np.random.default_rng(100 + trial)
        config = cohort_config(random_thetas(rng))
        seed = run_simulation(config, traces, fast_path=False)
        fast = run_simulation(config, traces, fast_path=True)
        lock = LockstepSystem(config, traces).run()
        assert stats_to_dict(seed) == stats_to_dict(fast)
        assert stats_to_dict(fast) == stats_to_dict(lock)

    @pytest.mark.parametrize("protocol", ["timed_msi", "msi", "pmsi"])
    @pytest.mark.parametrize(
        "arbiter", [ArbiterKind.RROF, ArbiterKind.FCFS, ArbiterKind.TDM]
    )
    def test_protocol_arbiter_matrix(self, traces, protocol, arbiter):
        thetas = [60, 20, MSI_THETA, 5]
        if protocol != "timed_msi":
            thetas = [MSI_THETA] * 4
        config = replace(
            cohort_config(thetas), protocol=protocol, arbiter=arbiter
        )
        fast = run_simulation(config, traces, fast_path=True)
        lock = LockstepSystem(config, traces).run()
        assert stats_to_dict(fast) == stats_to_dict(lock)

    def test_record_latencies_survive_lockstep(self, traces):
        config = cohort_config([60, 20, 20, 20])
        fast = run_simulation(config, traces, record_latencies=True)
        lock = LockstepSystem(config, traces, record_latencies=True).run()
        assert stats_to_dict(fast) == stats_to_dict(lock)


class TestBatchPeeling:
    def test_batch_peels_unsupported_configs_in_slot(self, hit_traces):
        traces = hit_traces
        supported = cohort_config([60, 20, 20, 20])
        checked = replace(cohort_config([30] * 4), check_coherence=True)
        pmsi = replace(msi_fcfs_config(4), protocol="pmsi")
        assert lockstep_unsupported_reason(supported) is None
        assert lockstep_unsupported_reason(checked) is not None
        # PMSI keeps the standard hit predicate, so it is lock-steppable.
        assert lockstep_unsupported_reason(pmsi) is None
        with pytest.raises(LockstepUnsupported, match="check_coherence"):
            LockstepSystem(checked, traces)
        configs = [supported, checked, pmsi]
        runner = SweepRunner(jobs=1, cache_dir=None)
        batch = runner.run([SweepJob(c, tuple(traces)) for c in configs])
        assert (runner.lockstep_jobs, runner.lockstep_peeled) == (2, 1)
        for config, result in zip(configs, batch):
            direct = run_simulation(config, traces)
            assert result == stats_to_dict(direct)


class TestSweepRunnerRouting:
    def make_jobs(self, traces, thetas_list):
        return [
            SweepJob(cohort_config(th), tuple(traces)) for th in thetas_list
        ]

    def test_same_trace_group_runs_in_lockstep(self, hit_traces):
        runner = SweepRunner(jobs=1, cache_dir=None)
        jobs = self.make_jobs(
            hit_traces, [[60] * 4, [20] * 4, [5, 60, 200, MSI_THETA]]
        )
        results = runner.run(jobs)
        assert runner.lockstep_groups == 1
        assert runner.lockstep_jobs == 3
        assert runner.jobs_executed == 3
        tele = runner.telemetry()
        assert tele["lockstep_group_sizes"] == {"3": 1}
        assert tele["trace_decode_misses"] >= 0
        assert (tele["fast_jobs"], tele["engine"]) == (0, "lockstep")
        for job, result in zip(jobs, results):
            direct = run_simulation(job.config, job.traces)
            assert result == stats_to_dict(direct)

    def test_miss_heavy_group_runs_on_the_fast_path(self, traces):
        runner = SweepRunner(jobs=1, cache_dir=None)
        jobs = self.make_jobs(
            traces, [[60] * 4, [20] * 4, [5, 60, 200, MSI_THETA]]
        )
        assert predicted_miss_rate(traces, jobs[0].config.l1) >= (
            LOCKSTEP_MISS_RATE
        )
        results = runner.run(jobs)
        assert runner.lockstep_groups == runner.lockstep_jobs == 0
        assert runner.fast_jobs == runner.jobs_executed == 3
        assert runner.telemetry()["engine"] == "fast"
        for job, result in zip(jobs, results):
            direct = run_simulation(job.config, job.traces)
            assert result == stats_to_dict(direct)

    def test_unsupported_jobs_are_peeled_to_the_normal_path(self, hit_traces):
        runner = SweepRunner(jobs=1, cache_dir=None)
        checked = replace(cohort_config([30] * 4), check_coherence=True)
        jobs = self.make_jobs(hit_traces, [[60] * 4, [20] * 4])
        jobs.append(SweepJob(checked, tuple(hit_traces)))
        runner.run(jobs)
        assert runner.lockstep_jobs == 2
        assert runner.lockstep_peeled == 1
        assert runner.jobs_executed == 3
        assert runner.telemetry()["engine"] == "mixed"

    def test_distinct_traces_bypass_grouping(self, traces):
        # Each job replays its own trace prefix, so no two share a
        # trace set and every job takes the per-event fast path.
        jobs = [
            SweepJob(
                cohort_config(thetas),
                tuple(t.slice(0, len(t) - i) for t in traces),
            )
            for i, thetas in enumerate([[60] * 4, [20] * 4])
        ]
        runner = SweepRunner(jobs=1, cache_dir=None)
        results = runner.run(jobs)
        assert runner.lockstep_groups == runner.lockstep_jobs == 0
        assert runner.jobs_executed == 2
        for job, result in zip(jobs, results):
            direct = run_simulation(job.config, job.traces)
            assert result == stats_to_dict(direct)

    def test_execute_events_name_the_engine_that_ran(
        self, traces, hit_traces, tmp_path
    ):
        from repro.obs.ops import OpLogger, read_oplog

        own = tuple(t.slice(0, len(t) - 1) for t in hit_traces)
        checked = replace(cohort_config([30] * 4), check_coherence=True)
        jobs = self.make_jobs(hit_traces, [[60] * 4, [20] * 4])
        jobs += [
            SweepJob(cohort_config([5] * 4), own),
            SweepJob(checked, tuple(hit_traces)),
        ]
        jobs += self.make_jobs(traces, [[60] * 4, [20] * 4])
        path = str(tmp_path / "oplog.jsonl")
        with OpLogger(path=path) as log:
            runner = SweepRunner(jobs=1, cache_dir=None, oplog=log)
            runner.run(jobs)
        events = {
            event["digest"]: event
            for event in read_oplog(path)
            if event["event"] == "execute"
        }
        assert [events[job.digest()]["engine"] for job in jobs] == [
            "lockstep", "lockstep", "fast", "fast", "fast", "fast",
        ]
        assert runner.lockstep_jobs == 2
        # The predicted miss rate behind each group's engine; a job that
        # belongs to no group (a singleton, a peeled config) logs none.
        rates = [events[job.digest()].get("miss_rate") for job in jobs]
        assert rates[0] == rates[1] < LOCKSTEP_MISS_RATE
        assert rates[2] is None and rates[3] is None
        assert rates[4] == rates[5] >= LOCKSTEP_MISS_RATE

    def test_lockstep_results_fill_the_shared_cache(
        self, hit_traces, tmp_path
    ):
        cache = str(tmp_path / "sweeps")
        first = SweepRunner(jobs=1, cache_dir=cache)
        jobs = self.make_jobs(hit_traces, [[60] * 4, [20] * 4])
        first.run(jobs)
        assert first.lockstep_jobs == 2
        second = SweepRunner(jobs=1, cache_dir=cache)
        second.run(jobs)
        assert second.cache_hits == 2
        assert second.jobs_executed == 0


class TestTimerSweepWorkload:
    """The benchmark workload has the regime it advertises."""

    def test_hit_dominated_and_deterministic(self):
        a = timer_sweep(2, 20_000, seed=5)
        b = timer_sweep(2, 20_000, seed=5)
        for ta, tb in zip(a, b):
            assert ta.content_digest() == tb.content_digest()
        stats = run_simulation(cohort_config([60, 60]), a)
        hits = sum(c.hits for c in stats.cores)
        misses = sum(c.misses for c in stats.cores)
        assert misses / (hits + misses) < 0.02
