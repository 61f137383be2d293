"""Tests for the shard fleet (repro.serve.fleet).

Unit tests cover the routing ring, the circuit breaker and the fleet's
Prometheus exposition without any processes.  Integration tests run a
real :class:`FleetThread` — actual ``cohort serve`` subprocesses under
a supervising router — and exercise the failure paths the fleet exists
for: a SIGKILLed shard mid-flight must lose nothing, and a restarting
endpoint must be survivable by a retrying client.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.obs import FLEET_METRICS_SCHEMA
from repro.obs.promexport import (
    parse_prometheus_text,
    prometheus_from_fleet_metrics,
)
from repro.serve import (
    CircuitBreaker,
    FleetThread,
    HashRing,
    ServeClient,
    ServeClientError,
    ServerThread,
)

TINY = dict(benchmark="fft", thetas=[60, 20, 20, 20], scale=0.05, seed=0)


def tiny_specs(count):
    return [
        dict(TINY, thetas=[60 + 10 * i, 20, 20, 20]) for i in range(count)
    ]


class TestHashRing:
    def test_assignment_is_deterministic(self):
        ring = HashRing([0, 1, 2])
        keys = [f"job-{i}" for i in range(64)]
        first = [ring.assign(key) for key in keys]
        second = [ring.assign(key) for key in keys]
        assert first == second

    def test_spreads_keys_across_shards(self):
        ring = HashRing([0, 1, 2])
        owners = {ring.assign(f"job-{i}") for i in range(200)}
        assert owners == {0, 1, 2}

    def test_removing_a_shard_only_moves_its_keys(self):
        ring = HashRing([0, 1, 2])
        keys = [f"job-{i}" for i in range(200)]
        before = {key: ring.assign(key) for key in keys}
        after = {key: ring.assign(key, allowed={0, 1}) for key in keys}
        for key in keys:
            if before[key] != 2:
                assert after[key] == before[key]
            else:
                assert after[key] in (0, 1)

    def test_empty_allowed_set_returns_none(self):
        ring = HashRing([0, 1])
        assert ring.assign("job", allowed=set()) is None

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            HashRing([])


class TestCircuitBreaker:
    def _clocked(self, **kwargs):
        now = [0.0]
        breaker = CircuitBreaker(clock=lambda: now[0], **kwargs)
        return breaker, now

    def test_trips_after_threshold_failures(self):
        breaker, _ = self._clocked(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allows()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allows()

    def test_cooldown_lets_one_probe_through(self):
        breaker, now = self._clocked(threshold=1, cooldown=5.0)
        breaker.record_failure()
        assert not breaker.allows()
        now[0] = 5.1
        assert breaker.allows()
        assert breaker.state == "half_open"

    def test_half_open_failure_doubles_cooldown(self):
        breaker, now = self._clocked(threshold=1, cooldown=2.0)
        breaker.record_failure()
        now[0] = 2.1
        assert breaker.allows()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        assert breaker.cooldown == 4.0
        now[0] = 2.1 + 3.9
        assert not breaker.allows()

    def test_success_closes_and_resets(self):
        breaker, now = self._clocked(threshold=1, cooldown=2.0)
        breaker.record_failure()
        now[0] = 2.1
        assert breaker.allows()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.cooldown == 2.0

    def test_cooldown_is_capped(self):
        breaker, now = self._clocked(
            threshold=1, cooldown=2.0, max_cooldown=5.0
        )
        for _ in range(5):
            breaker.record_failure()
            now[0] += breaker.cooldown + 0.1
            assert breaker.allows()
        assert breaker.cooldown <= 5.0


class TestSupervisorFailover:
    """Supervisor bookkeeping on the fault paths, without processes.

    These drive :meth:`ShardSupervisor._on_shard_down`, the dispatch
    chunk error paths, and the health loop directly against dead ports
    and hand-built job records — the cascading-failure orderings here
    are deterministic where the chaos soak's are not.
    """

    def _supervisor(self, tmp_path, shards=2, **kwargs):
        from repro.serve.fleet import ShardSupervisor

        sup = ShardSupervisor(
            shards=shards,
            fleet_dir=str(tmp_path / "fleet"),
            cache_dir=str(tmp_path / "cache"),
            **kwargs,
        )
        for shard in sup.shards:
            shard.state = "up"
        return sup

    def _admit_one(self, sup):
        import asyncio

        from repro.serve import JobSpec

        (record,) = asyncio.run(sup.submit([JobSpec.from_dict(TINY)]))
        return record

    def test_failed_over_job_survives_second_shard_death(self, tmp_path):
        # Admit on A, fail over to B, then kill B: the admit record
        # lives in A's journal, so replay must also sweep in-memory
        # jobs owned by B — the 202 must never be lost.
        sup = self._supervisor(tmp_path)
        record = self._admit_one(sup)
        a = record.shard
        b = 1 - a
        sup._on_shard_down(sup.shards[a], "test kill A")
        assert record.shard == b and record.status == "queued"
        sup.shards[a].state = "up"  # A restarted
        # B dispatched the job (its dispatch loop took it off the queue).
        sup._queues[b].remove(record)
        record.status = "dispatched"
        record.remote_id = "remote-1"
        sup._on_shard_down(sup.shards[b], "test kill B")
        assert record.status == "queued"
        assert record.shard == a
        assert record in sup._queues[a]
        assert record.failovers == 2

    def test_replay_skips_jobs_already_failed_over_elsewhere(self, tmp_path):
        # A's journal still holds the admit for a job that failed over
        # to B and is mid-flight there; A dying again must not reset it.
        sup = self._supervisor(tmp_path)
        record = self._admit_one(sup)
        a = record.shard
        b = 1 - a
        sup._on_shard_down(sup.shards[a], "test kill A")
        sup.shards[a].state = "up"  # A restarted
        sup._queues[b].remove(record)
        record.status = "dispatched"
        record.remote_id = "remote-1"
        failovers = record.failovers
        sup._on_shard_down(sup.shards[a], "test kill A again")
        assert record.status == "dispatched"
        assert record.shard == b
        assert record.failovers == failovers
        # A's queue may still hold a stale entry from the original
        # admit (dropped lazily by _take_chunk) — what matters is that
        # neither dispatch loop would pick the job up again.
        assert sup._take_chunk(a) == []
        assert record not in sup._queues[b]

    def _hand_built_chunk(self, sup, count):
        from repro.serve import JobSpec
        from repro.serve.fleet import FleetJob

        chunk = [
            FleetJob(
                id=f"job-{i}", spec=JobSpec.from_dict(TINY), shard=0,
                submitted_at=time.time(),
            )
            for i in range(count)
        ]
        for record in chunk:
            sup._jobs[record.id] = record
        return chunk

    def test_unreachable_shard_requeues_whole_chunk(self, tmp_path):
        # _take_chunk already removed the chunk from the queue; a POST
        # failure must put every still-queued member back, not just the
        # record that hit the error.
        from repro.serve.fleet import free_port

        sup = self._supervisor(tmp_path, shards=1)
        shard = sup.shards[0]
        shard.port = free_port()  # nothing listening
        chunk = self._hand_built_chunk(sup, 3)
        asyncio.run(sup._dispatch_chunk(shard, chunk))
        assert all(r.status == "queued" for r in chunk)
        assert [r.id for r in sup._queues[0]] == [r.id for r in chunk]

    def test_collect_retries_while_shard_marked_up(self, tmp_path):
        # A transient poll failure must not abandon dispatched jobs:
        # _collect keeps polling until the health loop flips the state,
        # at which point journal replay owns the records.
        from repro.serve.fleet import FleetJob, free_port

        sup = self._supervisor(tmp_path, shards=1, health_interval=0.05)
        shard = sup.shards[0]
        shard.port = free_port()
        (record,) = self._hand_built_chunk(sup, 1)
        record.status = "dispatched"
        record.remote_id = "remote-1"

        async def drive():
            task = asyncio.ensure_future(sup._collect(shard, [record]))
            await asyncio.sleep(0.4)
            assert not task.done(), "gave up on a dispatched job"
            shard.state = "down"
            await asyncio.wait_for(task, timeout=5)

        asyncio.run(drive())
        assert record.status == "dispatched"  # replay's job now

    def test_restarts_run_concurrently_per_shard(self, tmp_path):
        # A slow restart of one shard must not stop the health loop
        # noticing (and restarting) another.
        sup = self._supervisor(tmp_path, shards=2, health_interval=0.02)
        started = []

        async def slow_restart(shard):
            started.append(shard.index)
            await asyncio.sleep(30)

        sup._restart_shard = slow_restart
        for shard in sup.shards:
            shard.state = "down"

        async def drive():
            task = asyncio.ensure_future(sup._health_loop())
            try:
                deadline = asyncio.get_running_loop().time() + 2
                while (
                    len(started) < 2
                    and asyncio.get_running_loop().time() < deadline
                ):
                    await asyncio.sleep(0.02)
            finally:
                task.cancel()
                for shard in sup.shards:
                    if shard.restart_task is not None:
                        shard.restart_task.cancel()
                await asyncio.gather(
                    task,
                    *(
                        s.restart_task
                        for s in sup.shards
                        if s.restart_task is not None
                    ),
                    return_exceptions=True,
                )

        asyncio.run(drive())
        assert sorted(started) == [0, 1]

    def test_spawn_timeout_kills_half_booted_child(self, tmp_path):
        # A child that boots too slowly must be killed when the spawn
        # window closes, not left running while a sibling is respawned.
        from repro.serve.fleet import free_port

        sup = self._supervisor(tmp_path, shards=1, spawn_timeout=0.5)
        shard = sup.shards[0]

        def fake_spawn(target):
            target.port = free_port()
            target.proc = subprocess.Popen(
                [sys.executable, "-c", "import time; time.sleep(60)"]
            )

        sup._spawn = fake_spawn
        with pytest.raises(RuntimeError):
            asyncio.run(sup._start_shard(shard))
        shard.proc.wait(timeout=10)  # raises TimeoutExpired if leaked
        assert shard.proc.poll() is not None

    @pytest.mark.parametrize("check", ["_probe", "_start_shard"])
    def test_one_healthy_check_closes_an_open_breaker(
        self, tmp_path, monkeypatch, check
    ):
        # The breaker does not hold a shard off for its cooldown or wait
        # for a half-open request: the first successful /healthz, from
        # the health loop or from a (re)start, closes it on the spot.
        from repro.serve import fleet

        class LiveProcess:
            pid = 4242

            def poll(self):
                return None

        async def healthy(host, port, method, path, **kwargs):
            assert (method, path) == ("GET", "/healthz")
            return 200, {"status": "ok"}

        monkeypatch.setattr(fleet, "_http_json", healthy)
        sup = self._supervisor(tmp_path, shards=1)
        shard = sup.shards[0]
        shard.breaker = fleet.CircuitBreaker(
            threshold=3, cooldown=1.0, clock=lambda: 0.0
        )
        shard.proc = LiveProcess()
        sup._spawn = lambda target: None
        sup._wakeups = {0: asyncio.Event()}
        for _ in range(3):
            shard.breaker.record_failure()
        assert shard.breaker.state == "open"
        assert shard.breaker.cooldown == 1.0
        assert not shard.breaker.allows()  # the clock never moves
        asyncio.run(getattr(sup, check)(shard))
        assert shard.breaker.state == "closed"
        assert shard.breaker.allows()


class TestDrain:
    """Drain ends every supervisor loop without relying on cancellation."""

    def test_drain_returns_when_a_probe_loses_a_cancel(
        self, tmp_path, monkeypatch
    ):
        # On Python 3.11, the asyncio.wait_for inside _http_json can
        # lose a cancel that lands just as the probe completes.  Here
        # the probe loses the first cancel it sees; drain must still
        # return and stop the shard.
        from repro.serve import fleet

        class LiveProcess:
            pid = 4242
            returncode = None

            def poll(self):
                return self.returncode

            def terminate(self):
                self.returncode = -signal.SIGTERM

            kill = terminate

            def wait(self, timeout=None):
                return self.returncode

        probing = asyncio.Event()
        cancels = []

        async def lossy_probe(host, port, method, path, **kwargs):
            assert (method, path) == ("GET", "/healthz")
            probing.set()
            try:
                await asyncio.sleep(0.05)
            except asyncio.CancelledError:
                cancels.append(True)
                if len(cancels) > 1:
                    raise
            return 200, {"status": "ok"}

        async def start_shard(shard):
            shard.proc = LiveProcess()
            shard.state = "up"
            shard.last_healthy = time.monotonic()

        monkeypatch.setattr(fleet, "_http_json", lossy_probe)
        sup = fleet.ShardSupervisor(
            shards=1,
            fleet_dir=str(tmp_path / "fleet"),
            cache_dir=str(tmp_path / "cache"),
            health_interval=0.01,
        )
        sup._start_shard = start_shard

        async def drive():
            await sup.start()
            await probing.wait()  # a probe is in flight
            await asyncio.wait_for(sup.drain(), timeout=3)

        asyncio.run(drive())
        shard = sup.shards[0]
        assert shard.state == "down"
        assert shard.proc.returncode == -signal.SIGTERM
        assert sup._tasks == []


class TestFleetPrometheus:
    def _doc(self):
        return {
            "schema": FLEET_METRICS_SCHEMA,
            "label": "fleet",
            "uptime_seconds": 1.5,
            "fleet": {
                "shards_total": 2, "shards_up": 1, "draining": False,
                "admission_pending": 3, "admission_limit": 256,
                "jobs_submitted": 10, "jobs_completed": 7,
                "jobs_failed": 0, "jobs_rejected": 1, "failovers": 2,
                "replayed_jobs": 2, "restarts_total": 1, "recoveries": 1,
                "recovery_seconds_max": 1.25, "recovery_seconds_mean": 1.25,
                "journal_live": 3, "journal_torn_lines": 0,
                "cache": {
                    "evictions": 4, "evicted_bytes": 4096,
                    "quarantined": 1, "hits": 5, "misses": 5,
                    "size_bytes": 2048, "budget_bytes": 8192,
                },
            },
            "shards": [
                {"index": 0, "state": "up"},
                {"index": 1, "state": "down"},
            ],
        }

    def test_renders_parseable_exposition(self):
        text = prometheus_from_fleet_metrics(self._doc())
        samples = parse_prometheus_text(text)
        assert "cohort_fleet_jobs_submitted_total" in samples
        assert "cohort_fleet_failovers_total" in samples
        assert "cohort_fleet_cache_quarantined_total" in samples
        assert "cohort_fleet_shard_up" in samples

    def test_per_shard_up_gauge(self):
        text = prometheus_from_fleet_metrics(self._doc())
        assert 'cohort_fleet_shard_up{service="fleet",shard="0"} 1' in text
        assert 'cohort_fleet_shard_up{service="fleet",shard="1"} 0' in text


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet")
    thread = FleetThread(
        shards=2,
        fleet_dir=str(root / "state"),
        cache_dir=str(root / "cache"),
        batch_window=0.02,
        health_interval=0.1,
        heartbeat_timeout=0.5,
        heartbeat_deadline=1.5,
        restart_backoff_base=0.2,
    )
    thread.start()
    yield thread
    thread.stop()


class TestFleetIntegration:
    def test_healthz_reports_all_shards_up(self, fleet):
        client = ServeClient(fleet.base_url)
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["shards_up"] == doc["shards_total"] == 2

    def test_round_trip_matches_direct_runner(self, fleet, tmp_path):
        from repro.runner import SweepRunner
        from repro.serve import JobSpec

        client = ServeClient(fleet.base_url, connect_retries=3)
        records = client.submit_and_wait([TINY], timeout=300)
        assert records[0]["status"] == "done"
        runner = SweepRunner(jobs=1, cache_dir=str(tmp_path / "ref"))
        direct = runner.run([JobSpec.from_dict(TINY).to_sweep_job()])[0]
        assert json.dumps(records[0]["result"], sort_keys=True) == (
            json.dumps(direct, sort_keys=True)
        )

    def test_metrics_document_shape(self, fleet):
        client = ServeClient(fleet.base_url)
        doc = client.metrics()
        assert doc["schema"] == FLEET_METRICS_SCHEMA
        assert doc["fleet"]["shards_total"] == 2
        assert len(doc["shards"]) == 2
        for shard in doc["shards"]:
            assert shard["journal"]["path"]

    def test_duplicate_specs_route_to_the_same_shard(self, fleet):
        client = ServeClient(fleet.base_url, connect_retries=3)
        first = client.submit([TINY])
        second = client.submit([TINY])
        client.wait([first[0]["id"], second[0]["id"]], timeout=300)
        assert (
            client.job(first[0]["id"])["shard"]
            == client.job(second[0]["id"])["shard"]
        )

    def test_sigkilled_shard_loses_no_accepted_jobs(self, fleet):
        client = ServeClient(fleet.base_url, connect_retries=5)
        accepted = client.submit(tiny_specs(6))
        ids = [doc["id"] for doc in accepted]
        victim = fleet.supervisor.shards[0]
        os.kill(victim.pid, signal.SIGKILL)
        records = client.wait(ids, timeout=300)
        assert all(
            records[job_id]["status"] == "done" for job_id in ids
        )
        # The supervisor must bring the dead shard back.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            doc = client.metrics()
            if all(s["state"] == "up" for s in doc["shards"]):
                break
            time.sleep(0.3)
        else:
            pytest.fail("killed shard was not restarted")
        fleet_doc = doc["fleet"]
        assert fleet_doc["restarts_total"] >= 1
        assert fleet_doc["recoveries"] >= 1
        assert fleet_doc["recovery_seconds_max"] > 0


class TestClientConnectRetry:
    def _free_port(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def test_no_retries_fails_fast_when_nothing_listens(self):
        port = self._free_port()
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=2.0)
        with pytest.raises(ServeClientError):
            client.healthz()

    def test_retries_exhausted_raises_serve_client_error(self):
        port = self._free_port()
        client = ServeClient(
            f"http://127.0.0.1:{port}", timeout=2.0,
            connect_retries=2, connect_backoff=0.01,
        )
        started = time.monotonic()
        with pytest.raises(ServeClientError, match="3 attempt"):
            client.healthz()
        # Two backoff sleeps must actually have happened.
        assert time.monotonic() - started >= 0.01

    def test_rejects_negative_retry_budget(self):
        with pytest.raises(ValueError):
            ServeClient("http://127.0.0.1:1", connect_retries=-1)

    def test_survives_server_arriving_late(self):
        """ECONNREFUSED during a shard restart window is retried."""
        port = self._free_port()
        server_box = []

        def bring_up():
            time.sleep(0.4)
            thread = ServerThread(port=port, batch_window=0.01)
            thread.start()
            server_box.append(thread)

        starter = threading.Thread(target=bring_up)
        starter.start()
        try:
            client = ServeClient(
                f"http://127.0.0.1:{port}", timeout=30.0,
                connect_retries=10, connect_backoff=0.1,
            )
            doc = client.healthz()
            assert doc["status"] == "ok"
            reconnects = client.oplog.event_counts.get("client_reconnect", 0)
            assert reconnects >= 1
        finally:
            starter.join()
            for thread in server_box:
                thread.stop()


class TestLastHealthyAge:
    def _supervisor(self, tmp_path):
        from repro.serve.fleet import ShardSupervisor

        return ShardSupervisor(
            shards=1,
            fleet_dir=str(tmp_path / "fleet"),
            cache_dir=str(tmp_path / "cache"),
        )

    def test_zero_monotonic_reading_is_a_real_age(self, tmp_path):
        # last_healthy == 0.0 is a legitimate monotonic timestamp (the
        # clock's epoch is arbitrary); only None means "never healthy".
        # The old truthiness test conflated the two and reported a
        # healthy shard as ageless.
        sup = self._supervisor(tmp_path)
        shard = sup.shards[0]
        shard.state = "up"
        shard.last_healthy = 0.0
        age = sup.metrics()["shards"][0]["last_healthy_age_s"]
        assert age is not None
        assert age > 0

    def test_never_healthy_reports_none(self, tmp_path):
        sup = self._supervisor(tmp_path)
        assert sup.shards[0].last_healthy is None
        assert sup.metrics()["shards"][0]["last_healthy_age_s"] is None

    def test_never_healthy_shard_misses_heartbeat_deadline(self, tmp_path):
        # A shard that never answered a single probe must be declared
        # down once probing starts failing — last_healthy=None cannot
        # be treated as "healthy at monotonic zero" (which, early after
        # boot, would sit inside the deadline window forever).
        sup = self._supervisor(tmp_path)
        shard = sup.shards[0]
        shard.state = "up"
        down = []
        sup._on_shard_down = lambda s, reason: down.append(reason)
        shard.proc_alive = lambda: True

        async def scenario():
            await sup._probe(shard)

        asyncio.run(scenario())
        assert down, "never-healthy shard survived a failed probe"


class TestAtomicFleetAdmission:
    def test_concurrent_oversize_submissions_cannot_both_pass(
        self, tmp_path, monkeypatch
    ):
        # submit() journals each job with an fsync on an executor
        # thread, so it yields between the admission check and the
        # record registrations.  Without reserve-before-await, two
        # concurrent 3-job submissions against admission_limit=4 both
        # read pending=0, both pass, and 6 jobs are admitted.  The
        # reservation makes exactly one lose.
        from repro.serve import JobSpec
        from repro.serve.fleet import (
            QueueFullError,
            ShardSupervisor,
            WriteAheadJournal,
        )

        sup = ShardSupervisor(
            shards=2,
            fleet_dir=str(tmp_path / "fleet"),
            cache_dir=str(tmp_path / "cache"),
            admission_limit=4,
        )
        for shard in sup.shards:
            shard.state = "up"

        real_admit = WriteAheadJournal.admit

        def slow_admit(self, job, shard):
            time.sleep(0.05)  # a slow disk widens the race window
            return real_admit(self, job, shard)

        monkeypatch.setattr(WriteAheadJournal, "admit", slow_admit)

        def burst(base):
            return [
                JobSpec.from_dict(dict(TINY, seed=base + i))
                for i in range(3)
            ]

        async def scenario():
            return await asyncio.gather(
                sup.submit(burst(0)),
                sup.submit(burst(100)),
                return_exceptions=True,
            )

        results = asyncio.run(scenario())
        rejected = [r for r in results if isinstance(r, QueueFullError)]
        admitted = [r for r in results if isinstance(r, list)]
        assert len(rejected) == 1 and len(admitted) == 1, results
        assert sup._pending_count() == 3
        assert sup.jobs_submitted == 3
        assert sup.jobs_rejected == 3


class TestFleetMonotonicDurations:
    def test_wall_clock_step_cannot_corrupt_retire_duration(
        self, tmp_path, monkeypatch
    ):
        # Same NTP-step scenario as the serve-layer test, at the fleet
        # layer: duration_ms in the retire oplog event must come from
        # the monotonic clock.  Pre-fix it was wall-clock and clamped
        # with max(0, ...) — a forward step inflated it by the step.
        import repro.serve.fleet as fleet_mod
        from repro.obs import OpLogger
        from repro.serve import JobSpec

        class SteppedTime:
            def __init__(self):
                self._real = time
                self.offset = 0.0

            def time(self):
                return self._real.time() + self.offset

            def monotonic(self):
                return self._real.monotonic()

            def __getattr__(self, name):
                return getattr(self._real, name)

        clock = SteppedTime()
        monkeypatch.setattr(fleet_mod, "time", clock)
        oplog_path = tmp_path / "fleet.oplog.jsonl"
        sup = fleet_mod.ShardSupervisor(
            shards=1,
            fleet_dir=str(tmp_path / "fleet"),
            cache_dir=str(tmp_path / "cache"),
            oplog=OpLogger(path=str(oplog_path), component="fleet"),
        )
        sup.shards[0].state = "up"
        (record,) = asyncio.run(sup.submit([JobSpec.from_dict(TINY)]))
        clock.offset = 3600.0  # NTP steps +1h while the job is queued
        sup._finish(record, result={"final_cycle": 1})
        assert record.status == "done"
        assert sup._pending_count() == 0
        retires = [
            json.loads(line)
            for line in oplog_path.read_text().splitlines()
            if '"retire"' in line
        ]
        assert retires
        assert all(0 <= e["duration_ms"] < 60_000 for e in retires)
        # The journal/display stamp keeps wall time.
        assert record.finished_at - record.submitted_at >= 3600
