"""Tests for the shard fleet (repro.serve.fleet).

Unit tests cover the routing ring, the fleet's Prometheus exposition
and the router's dispatch loop and collector without any processes:
the shards are an in-memory stand-in behind a stubbed ``_http_json``.
Integration tests run a real :class:`FleetThread` — actual ``cohort
serve`` subprocesses under a supervising router — and exercise the
failure paths the fleet exists for: a SIGKILLed shard mid-flight must
lose nothing, and a restarting endpoint must be survivable by a
retrying client.
"""

import asyncio
import collections
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


class LiveProcess:
    """A shard process stand-in: alive until terminated or killed."""

    pid = 4242
    returncode = None

    def poll(self):
        return self.returncode

    def terminate(self):
        self.returncode = -signal.SIGTERM

    kill = terminate

    def wait(self, timeout=None):
        return self.returncode


#: One request the router sent a shard, as FakeShards logs it.
Request = collections.namedtuple(
    "Request", "port method path doc headers at"
)

#: Every request the router may send a shard.
ROUTER_REQUESTS = {
    ("GET", "/healthz"), ("GET", "/metrics"),
    ("POST", "/jobs"), ("POST", "/jobs/poll"),
}


class FakeShards:
    """In-memory shards behind a stubbed ``repro.serve.fleet._http_json``.

    Models the shard HTTP API per port and logs every request as a
    :data:`Request` stamped with monotonic time.  A job is
    ``done`` on its first poll unless its remote id is in ``held``; an
    id in ``forget`` is dropped and answered as unknown.  ``refuse``
    makes every POST fail as if the shard were unreachable;
    ``queue_limit`` answers 429 to a POST that would leave more than
    that many uncollected jobs on one shard; ``refusals`` holds statuses
    to answer the next ``POST /jobs`` requests with; ``on_request``
    runs while each request is in flight.
    """

    def __init__(self):
        self.log = []
        self.open = {}  # remote id -> port: accepted, not yet collected
        self.minted = 0
        self.held = set()
        self.forget = set()
        self.refuse = False
        self.queue_limit = None
        self.refusals = []
        self.rejected = 0
        self.on_request = None

    def requests(self, method, path):
        return [r for r in self.log if (r.method, r.path) == (method, path)]

    def _record(self, remote_id):
        if remote_id in self.held:
            return {"id": remote_id, "status": "running"}
        self.open.pop(remote_id, None)
        return {
            "id": remote_id, "status": "done", "digest": remote_id,
            "result": {"final_cycle": 1},
        }

    async def __call__(
        self, host, port, method, path, doc=None, timeout=5.0, headers=None
    ):
        from repro.serve.fleet import ShardUnreachableError

        request = Request(
            port, method, path, doc, headers or {}, time.monotonic()
        )
        self.log.append(request)
        if self.on_request is not None:
            self.on_request(request)
        if method == "POST" and self.refuse:
            raise ShardUnreachableError("connection refused")
        if (method, path) in (("GET", "/healthz"), ("GET", "/metrics")):
            return 200, {"status": "ok"}
        if (method, path) == ("POST", "/jobs"):
            if self.refusals:
                return self.refusals.pop(0), {"error": "refused"}
            specs = doc["jobs"] if "jobs" in doc else [doc]
            uncollected = sum(1 for p in self.open.values() if p == port)
            if self.queue_limit and uncollected + len(specs) > self.queue_limit:
                self.rejected += 1
                return 429, {"error": "queue full", "retry_after": 0.01}
            ids = [f"remote-{self.minted + i}" for i in range(len(specs))]
            self.minted += len(specs)
            self.open.update(dict.fromkeys(ids, port))
            return 202, {"jobs": [{"id": i, "status": "queued"} for i in ids]}
        if (method, path) == ("POST", "/jobs/poll"):
            unknown = [i for i in doc["ids"] if i in self.forget]
            for remote_id in unknown:
                self.open.pop(remote_id, None)
            return 200, {
                "jobs": {
                    i: self._record(i) for i in doc["ids"] if i not in unknown
                },
                "unknown": unknown,
            }
        if method == "GET" and path.startswith("/jobs/"):
            return 200, self._record(path[len("/jobs/"):])
        return 404, {"error": f"no route for {path}"}


@pytest.fixture
def fake_fleet(tmp_path, monkeypatch):
    """Build an unstarted supervisor whose shards are a FakeShards.

    Its ``_start_shard`` marks a shard up on a fake port without
    spawning anything, and a 0.05 s health interval keeps ``drain``
    short.  After the test, every request the router sent must be one
    of :data:`ROUTER_REQUESTS`.
    """
    from repro.serve import fleet

    made = []

    def make(shards=1, **kwargs):
        fake = FakeShards()
        monkeypatch.setattr(fleet, "_http_json", fake)
        sup = fleet.ShardSupervisor(
            shards=shards,
            fleet_dir=str(tmp_path / "fleet"),
            cache_dir=str(tmp_path / "cache"),
            health_interval=0.05,
            **kwargs,
        )

        async def start_shard(shard):
            shard.proc = LiveProcess()
            shard.port = 9000 + shard.index
            shard.state = "up"
            shard.last_healthy = time.monotonic()
            sup._wakeups[shard.index].set()

        sup._start_shard = start_shard
        made.append(fake)
        return sup, fake

    yield make
    for fake in made:
        assert {(r.method, r.path) for r in fake.log} <= ROUTER_REQUESTS


async def until(predicate, timeout=2.0):
    """Yield to the event loop until ``predicate()`` holds."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition not met in time"
        await asyncio.sleep(0.005)


def fleet_specs(count, base=0):
    from repro.serve import JobSpec

    return [
        JobSpec.from_dict(dict(TINY, seed=base + i)) for i in range(count)
    ]


def all_done(records):
    return all(r.status == "done" for r in records)


def hold(sup):
    """Keep the forwarding loops off every shard: they skip non-up ones."""
    for shard in sup.shards:
        shard.state = "starting"


def release(sup):
    for shard in sup.shards:
        shard.state = "up"
    sup._wake_all()


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


class TestSupervisorFailover:
    """Supervisor bookkeeping on the fault paths, without processes.

    These drive :meth:`ShardSupervisor._on_shard_down`, the forwarding
    loops' error paths and the health loop directly against dead ports,
    hand-built job records and fake processes — the cascading-failure
    orderings here are deterministic where the chaos soak's are not.
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
        record.status = "dispatched"  # B's dispatch loop sent it
        record.remote_id = "remote-1"
        sup._on_shard_down(sup.shards[b], "test kill B")
        assert record.status == "queued"
        assert record.shard == a
        assert record.remote_id is None
        assert sup._owned(sup.shards[a], "queued") == [record]
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
        record.status = "dispatched"
        record.remote_id = "remote-1"
        failovers = record.failovers
        sup._on_shard_down(sup.shards[a], "test kill A again")
        assert record.status == "dispatched"
        assert record.shard == b
        assert record.remote_id == "remote-1"
        assert record.failovers == failovers
        # Neither dispatch loop would send the job again.
        assert all(not sup._owned(shard, "queued") for shard in sup.shards)

    def test_unreachable_shard_requeues_whole_chunk(self, tmp_path):
        # A POST that cannot reach the shard must leave every job it
        # carried queued on that shard, in order, for the dispatch loop
        # to send again — not just the first, and none failed.
        from repro.serve import JobSpec
        from repro.serve.fleet import free_port

        sup = self._supervisor(tmp_path, shards=1, health_interval=0.01)
        shard = sup.shards[0]
        shard.port = free_port()  # nothing listening
        chunk = asyncio.run(sup.submit([
            JobSpec.from_dict(dict(TINY, seed=i)) for i in range(3)
        ]))
        asyncio.run(sup._post(shard, chunk))
        assert all(
            (r.status, r.remote_id, r.attempts) == ("queued", None, 0)
            for r in chunk
        )
        assert sup._owned(shard, "queued") == chunk
        assert sup.jobs_failed == 0

    def test_collect_retries_while_shard_marked_up(
        self, tmp_path, monkeypatch
    ):
        # A transient poll failure must not abandon dispatched jobs: the
        # collector keeps polling until the health loop flips the state,
        # at which point replay owns the records.
        from repro.serve import fleet
        from repro.serve.fleet import free_port

        polls = []
        real_http_json = fleet._http_json

        async def counting(host, port, method, path, **kwargs):
            polls.append((method, path))
            return await real_http_json(host, port, method, path, **kwargs)

        monkeypatch.setattr(fleet, "_http_json", counting)
        sup = self._supervisor(tmp_path, shards=1, health_interval=0.05)
        shard = sup.shards[0]
        shard.port = free_port()  # nothing listening
        record = self._admit_one(sup)
        record.status = "dispatched"
        record.remote_id = "remote-1"

        async def drive():
            task = asyncio.ensure_future(sup._collect_loop(shard))
            try:
                await asyncio.sleep(0.4)
                assert not task.done(), "gave up on a dispatched job"
                assert (record.status, record.remote_id) == (
                    "dispatched", "remote-1"
                )
                sup._on_shard_down(shard, "heartbeat deadline missed")
            finally:
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)

        asyncio.run(drive())
        assert len(polls) >= 3
        assert set(polls) == {("POST", "/jobs/poll")}
        assert sup.jobs_failed == 0
        # Replay took the record back: the dispatch loop sends it again.
        assert (record.status, record.remote_id) == ("queued", None)
        assert sup._owned(shard, "queued") == [record]

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


class TestForwardPath:
    """The per-shard dispatch loop and collector, against FakeShards."""

    def test_one_post_per_trace_id(self, fake_fleet):
        sup, shards = fake_fleet()

        async def scenario():
            await sup.start()
            hold(sup)  # the dispatch loop sees both submissions at once
            first = await sup.submit(fleet_specs(3), trace_id="trace-a")
            second = await sup.submit(fleet_specs(2, 3), trace_id="trace-b")
            release(sup)
            await until(lambda: all_done(first + second))
            await sup.drain()

        asyncio.run(scenario())
        posts = shards.requests("POST", "/jobs")
        assert [
            (len(r.doc["jobs"]), r.headers["X-Trace-Id"]) for r in posts
        ] == [(3, "trace-a"), (2, "trace-b")]

    def test_one_poll_covers_every_dispatched_job(self, fake_fleet):
        # The shard forgets the second job: the router sends it again.
        sup, shards = fake_fleet()
        shards.forget.add("remote-1")

        async def scenario():
            await sup.start()
            hold(sup)
            records = await sup.submit(fleet_specs(3), trace_id="trace-a")
            release(sup)
            await until(lambda: all_done(records))
            await sup.drain()
            return records

        records = asyncio.run(scenario())
        first_poll = shards.requests("POST", "/jobs/poll")[0]
        assert first_poll.doc["ids"] == ["remote-0", "remote-1", "remote-2"]
        posts = [r.doc["jobs"] for r in shards.requests("POST", "/jobs")]
        assert posts == [
            [r.spec.to_dict() for r in records], [records[1].spec.to_dict()],
        ]
        assert [r.attempts for r in records] == [1, 2, 1]
        assert [r.digest for r in records] == [
            "remote-0", "remote-3", "remote-2",
        ]

    def test_head_of_line_job_does_not_hold_back_the_next(self, fake_fleet):
        # A job submitted while the shard still runs an earlier one is
        # sent and collected without waiting for that job to finish.
        sup, shards = fake_fleet()
        shards.held.add("remote-0")  # the shard never finishes job one

        async def scenario():
            await sup.start()
            (slow,) = await sup.submit(fleet_specs(1), trace_id="trace-a")
            await until(lambda: slow.status == "dispatched")
            (fast,) = await sup.submit(fleet_specs(1, 1), trace_id="trace-b")
            await until(lambda: fast.status == "done", timeout=2.0)
            assert slow.status == "dispatched"
            shards.held.clear()
            await sup.drain()

        asyncio.run(scenario())

    @pytest.mark.parametrize("path", ["/jobs", "/jobs/poll"])
    def test_job_finishes_when_its_shard_goes_down_mid_request(
        self, fake_fleet, path
    ):
        # The health loop declares shard A down while A is answering the
        # job's POST /jobs (with a 202) or POST /jobs/poll (with done).
        # The job has failed over to B by then, so A's answer must not
        # touch it: B sends and collects it.
        sup, shards = fake_fleet(shards=2, restart_backoff_base=0.01)
        down = []

        def shard_goes_down(request):
            if request.path == path and not down:
                (victim,) = [s for s in sup.shards if s.port == request.port]
                down.append(victim.index)
                sup._on_shard_down(victim, "heartbeat deadline missed")

        shards.on_request = shard_goes_down

        async def scenario():
            await sup.start()
            (record,) = await sup.submit(fleet_specs(1), trace_id="trace-a")
            await until(lambda: record.status == "done", timeout=5.0)
            await sup.drain()
            return record

        record = asyncio.run(scenario())
        assert record.shard == 1 - down[0]
        assert record.failovers == 1
        assert record.digest == "remote-1"  # B's answer, not A's
        assert [r.port for r in shards.requests("POST", "/jobs")] == [
            9000 + down[0], 9000 + record.shard,
        ]
        assert all(s.journal.live_count == 0 for s in sup.shards)

    def test_unreachable_shard_costs_one_request_per_health_interval(
        self, fake_fleet
    ):
        # The shard is marked up but refuses every POST: both loops back
        # off for one health interval (0.05 s) per attempt, and no job
        # fails — declaring the shard down is the health loop's call.
        sup, shards = fake_fleet()
        shards.refuse = True

        async def scenario():
            await sup.start()
            hold(sup)
            queued, dispatched = await sup.submit(fleet_specs(2))
            dispatched.status = "dispatched"
            dispatched.remote_id = "remote-0"
            release(sup)
            await until(
                lambda: len(shards.requests("POST", "/jobs")) >= 3
                and len(shards.requests("POST", "/jobs/poll")) >= 3
            )
            assert (queued.status, dispatched.status) == (
                "queued", "dispatched"
            )
            shards.refuse = False
            await sup.drain()

        asyncio.run(scenario())
        assert sup.jobs_failed == 0
        for path in ("/jobs", "/jobs/poll"):
            times = [r.at for r in shards.requests("POST", path)][:3]
            gaps = [later - earlier for earlier, later in zip(times, times[1:])]
            assert min(gaps) >= 0.045, (path, gaps)

    @pytest.mark.parametrize(
        "status, outcome, posts", [(429, "done", 2), (503, "done", 2),
                                   (400, "failed", 1)],
    )
    def test_refused_post_is_retried_only_when_retryable(
        self, fake_fleet, status, outcome, posts
    ):
        # 429 and 503 wait retry_after and send the job again; any other
        # refusal fails the job.
        sup, shards = fake_fleet(retry_after=0.01)
        shards.refusals.append(status)

        async def scenario():
            await sup.start()
            (record,) = await sup.submit(fleet_specs(1), trace_id="trace-a")
            await until(lambda: record.status in ("done", "failed"))
            await sup.drain()
            return record

        record = asyncio.run(scenario())
        assert record.status == outcome
        assert len(shards.requests("POST", "/jobs")) == posts
        if outcome == "failed":
            assert record.error == "shard 0 refused job (400): refused"

    def test_window_never_provokes_a_429(self, fake_fleet):
        sup, shards = fake_fleet(shard_queue_limit=4)
        shards.queue_limit = 4

        async def scenario():
            await sup.start()
            records = await sup.submit(fleet_specs(6), trace_id="trace-a")
            await until(lambda: all_done(records))
            await sup.drain()

        asyncio.run(scenario())
        posts = shards.requests("POST", "/jobs")
        assert shards.rejected == 0
        assert sum(len(r.doc["jobs"]) for r in posts) == 6
        assert max(len(r.doc["jobs"]) for r in posts) <= 4


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
        assert sup.healthz()["pending"] == 3
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
        assert sup.healthz()["pending"] == 0
        retires = [
            json.loads(line)
            for line in oplog_path.read_text().splitlines()
            if '"retire"' in line
        ]
        assert retires
        assert all(0 <= e["duration_ms"] < 60_000 for e in retires)
        # The journal/display stamp keeps wall time.
        assert record.finished_at - record.submitted_at >= 3600
