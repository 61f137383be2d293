"""Tests for the shard fleet (repro.serve.fleet).

Unit tests cover the routing ring, the fleet's Prometheus exposition
and the supervisor itself without processes or real time: the shards
are an in-memory stand-in behind stubbed ``_http_json`` and ``_watch``
seams, a spawned shard is a stand-in process object, and the
supervisor's clock is a :class:`ManualClock` that advances virtual
time.  They drive failover, the dispatch loop and the collector's watch
streams, the per-hop stamps, drain, health probes, restart backoff,
flap detection, admission and the cold-start replay of the intake
journal.  Integration tests run a real :class:`FleetThread`
— actual ``cohort serve`` subprocesses under a supervising router —
where a SIGKILLed shard mid-flight must lose nothing, and a client on
real sockets must survive a restarting endpoint.
"""

import asyncio
import collections
import errno
import heapq
import io
import itertools
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.obs import FLEET_METRICS_SCHEMA, OpLogger
from repro.obs.schema import INTAKE_JOURNAL_SCHEMA
from repro.obs.promexport import (
    parse_prometheus_text,
    prometheus_from_fleet_metrics,
)
from repro.serve import (
    FleetThread,
    JobSpec,
    ServeClient,
    ServeClientError,
    ServerThread,
)
from repro.serve.fleet import (
    RESTART_BACKOFF_BASE,
    SPAWN_TIMEOUT,
    STABILITY_WINDOW,
    HashRing,
    QueueFullError,
    ShardSupervisor,
    ShardUnreachableError,
    WriteAheadJournal,
)

TINY = dict(benchmark="fft", thetas=[60, 20, 20, 20], scale=0.05, seed=0)


class ManualClock:
    """Virtual monotonic time, swapped in for ``repro.serve.fleet._clock``.

    ``sleep`` parks its caller until virtual time reaches the deadline.
    :meth:`advance`, :meth:`until` and :meth:`run` move time forward one
    deadline at a time and let the event loop settle after each, so the
    supervisor's loops wake in deadline order and nothing waits on real
    time.
    """

    #: Event-loop passes that let woken tasks run on to their next await.
    SETTLE = 20

    def __init__(self):
        self.time = 0.0
        self._sleepers = []  # heap of (deadline, seq, future)
        self._seq = itertools.count()

    def now(self):
        return self.time

    async def sleep(self, seconds):
        future = asyncio.get_running_loop().create_future()
        heapq.heappush(
            self._sleepers, (self.time + seconds, next(self._seq), future)
        )
        await future

    async def _settle(self):
        for _ in range(self.SETTLE):
            await asyncio.sleep(0)
        # A cancelled sleeper's future is done: it never wakes.
        while self._sleepers and self._sleepers[0][2].done():
            heapq.heappop(self._sleepers)

    def _wake_next(self, end):
        """Jump to the earliest deadline up to ``end`` and wake it."""
        if not self._sleepers or self._sleepers[0][0] > end:
            return False
        self.time = max(self.time, self._sleepers[0][0])
        while self._sleepers and self._sleepers[0][0] <= self.time:
            future = heapq.heappop(self._sleepers)[2]
            if not future.done():
                future.set_result(None)
        return True

    async def advance(self, seconds):
        """Move ``seconds`` ahead, waking every sleeper on the way."""
        end = self.time + seconds
        await self._settle()
        while self._wake_next(end):
            await self._settle()
        self.time = max(self.time, end)

    async def until(self, predicate, limit=60.0):
        """Advance deadline by deadline until ``predicate()`` holds."""
        end = self.time + limit
        idle = 0
        await self._settle()
        while not predicate():
            if not self._wake_next(end):
                # Nothing sleeps before the limit: only executor work
                # (a journal fsync, a process wait) can still finish.
                assert not self._sleepers, f"not met within {limit}s"
                idle += 1
                assert idle < 5000, "nothing left to wake"
            await self._settle()

    async def run(self, awaitable, limit=60.0):
        """Advance until ``awaitable`` finishes; its result."""
        task = asyncio.ensure_future(awaitable)
        await self.until(task.done, limit)
        return task.result()


class LiveProcess:
    """A shard process stand-in: alive until terminated or killed."""

    pid = 4242
    returncode = None

    def poll(self):
        return self.returncode

    def terminate(self):
        self.returncode = -signal.SIGTERM

    def kill(self):
        self.returncode = -signal.SIGKILL

    def wait(self, timeout=None):
        return self.returncode


#: One request the router sent a shard, as FakeShards logs it.
Request = collections.namedtuple(
    "Request", "port method path doc headers at"
)

#: Every request the router may send a shard.
ROUTER_REQUESTS = {
    ("GET", "/healthz"), ("GET", "/metrics"),
    ("POST", "/jobs"), ("POST", "/jobs/watch"),
}


class FakeStream:
    """One watch stream of :class:`FakeShards`, as the router reads it."""

    def __init__(self, first):
        self.lines = asyncio.Queue()
        self.closed = False  # by the router
        for doc in first:
            self.lines.put_nowait(doc)

    def __aiter__(self):
        return self

    async def __anext__(self):
        doc = await self.lines.get()
        if doc is None:
            raise StopAsyncIteration
        return doc

    def close(self):
        self.closed = True
        self.lines.put_nowait(None)


class FakeShards:
    """In-memory shards behind stubbed ``_http_json`` and ``_watch``.

    Models the shard HTTP API per port and logs every request (a watch
    stream's opening included) as a :data:`Request` stamped with the
    clock's virtual time.  A job finishes ``run_time`` virtual seconds
    after its shard accepts it, and its line goes out on every stream
    open on that port, unless its remote id is in ``held`` (finished by
    :meth:`release`) or in ``forget`` (dropped: a stream opened for it
    answers unknown).  With ``early_lines`` a ``POST /jobs`` finishes
    its jobs and lets the router read their lines before it answers;
    with ``post_time`` its 202 takes that many virtual seconds, while
    its jobs run.  ``refuse`` holds HTTP methods answered as if the shard were
    unreachable; ``queue_limit`` answers 429 to a POST that would leave
    more than that many unfinished jobs on one shard; ``refusals``
    holds statuses to answer the next ``POST /jobs`` requests with;
    ``on_request`` runs while each request is in flight, and
    ``on_line`` after each line goes out.
    """

    def __init__(self, clock):
        self.clock = clock
        self.log = []
        self.open = {}  # remote id -> port: accepted, not yet finished
        self.finished = {}  # remote id -> its line
        self.done_at = {}  # remote id -> virtual time it finished
        self.streams = {}  # port -> the streams open there
        self.opened = []  # every stream, in opening order
        self.minted = 0
        self.run_time = 0.0
        self.post_time = 0.0
        self.held = set()
        self.forget = set()
        self.refuse = set()
        self.early_lines = False
        self.queue_limit = None
        self.refusals = []
        self.rejected = 0
        self.on_request = None
        self.on_line = None

    def requests(self, method, path):
        return [r for r in self.log if (r.method, r.path) == (method, path)]

    def _receive(self, port, method, path, doc=None, headers=None):
        request = Request(
            port, method, path, doc, headers or {}, self.clock.now()
        )
        self.log.append(request)
        if self.on_request is not None:
            self.on_request(request)
        if method in self.refuse:
            raise ShardUnreachableError("connection refused")

    def _finish(self, remote_id):
        port = self.open.pop(remote_id)
        line = {
            "id": remote_id, "status": "done", "digest": remote_id,
            "result": {"final_cycle": 1},
        }
        self.finished[remote_id] = line
        self.done_at[remote_id] = self.clock.now()
        for stream in self.streams.get(port, ()):
            if not stream.closed:
                stream.lines.put_nowait(line)
        if self.on_line is not None:
            self.on_line(port, line)

    async def _run(self, remote_id):
        await self.clock.sleep(self.run_time)
        if remote_id not in self.held:
            self._finish(remote_id)

    def release(self):
        """Finish every held job now."""
        for remote_id in sorted(self.held & set(self.open)):
            self._finish(remote_id)
        self.held.clear()

    def drop(self, port):
        """End every stream open on ``port`` from the shard's side."""
        for stream in self.streams.pop(port, ()):
            stream.lines.put_nowait(None)

    async def watch(self, host, port, ids):
        self._receive(port, "POST", "/jobs/watch", {"ids": list(ids)})
        first = [
            self.finished[i] if i in self.finished
            else {"id": i, "status": "unknown"}
            for i in ids if i not in self.open
        ]
        stream = FakeStream(first)
        self.streams.setdefault(port, []).append(stream)
        self.opened.append(stream)
        return stream

    async def __call__(
        self, host, port, method, path, doc=None, timeout=5.0, headers=None
    ):
        self._receive(port, method, path, doc, headers)
        if (method, path) in (("GET", "/healthz"), ("GET", "/metrics")):
            return 200, {"status": "ok"}
        if (method, path) != ("POST", "/jobs"):
            return 404, {"error": f"no route for {path}"}
        if self.refusals:
            return self.refusals.pop(0), {"error": "refused"}
        specs = doc["jobs"] if "jobs" in doc else [doc]
        unfinished = sum(1 for p in self.open.values() if p == port)
        if self.queue_limit and unfinished + len(specs) > self.queue_limit:
            self.rejected += 1
            return 429, {"error": "queue full", "retry_after": 0.01}
        ids = [f"remote-{self.minted + i}" for i in range(len(specs))]
        self.minted += len(specs)
        for remote_id in ids:
            if remote_id in self.forget:
                continue
            self.open[remote_id] = port
            if self.early_lines:
                self._finish(remote_id)
            else:
                asyncio.ensure_future(self._run(remote_id))
        if self.early_lines:
            for _ in range(ManualClock.SETTLE):
                await asyncio.sleep(0)  # the router reads the lines
        if self.post_time:
            await self.clock.sleep(self.post_time)
        return 202, {"jobs": [{"id": i, "status": "queued"} for i in ids]}


@pytest.fixture
def clock(monkeypatch):
    """A :class:`ManualClock` installed as the fleet's clock."""
    from repro.serve import fleet

    manual = ManualClock()
    monkeypatch.setattr(fleet, "_clock", manual)
    return manual


@pytest.fixture
def fake_fleet(tmp_path, monkeypatch, clock):
    """Build an unstarted supervisor on the manual clock over FakeShards.

    Spawning a shard gives it a :class:`LiveProcess` on port 9000 plus
    its index; from the first health probe on, the supervisor runs its
    own code.  After the test, every request the router sent must be
    one of :data:`ROUTER_REQUESTS`, and each supervisor's journal is
    closed.
    """
    from repro.serve import fleet

    made = []

    def make(shards=1, **kwargs):
        fake = FakeShards(clock)
        monkeypatch.setattr(fleet, "_http_json", fake)
        monkeypatch.setattr(fleet, "_watch", fake.watch)
        sup = ShardSupervisor(
            shards=shards,
            fleet_dir=str(tmp_path / "fleet"),
            cache_dir=str(tmp_path / "cache"),
            **kwargs,
        )

        def spawn(shard):
            shard.proc = LiveProcess()
            shard.port = 9000 + shard.index

        sup._spawn = spawn
        made.append((sup, fake))
        return sup, fake

    yield make
    for sup, fake in made:
        sup.journal.close()
        assert {(r.method, r.path) for r in fake.log} <= ROUTER_REQUESTS


def fleet_specs(count, base=0):
    return [
        JobSpec.from_dict(dict(TINY, seed=base + i)) for i in range(count)
    ]


def all_done(records):
    return all(r.status == "done" for r in records)


def journaled(job_id, seed, **spec):
    """One journal entry's job document, as the router writes it."""
    return {
        "id": job_id,
        "spec": dict(TINY, seed=seed, **spec),
        "trace_id": f"trace-{job_id}",
        "submitted_at": 1000.0 + seed,
    }


def write_per_shard_journal(path, shard, live=(), retired=()):
    """A journal as routers that kept one per shard wrote it.

    Every admit line names its ``shard``; each ``retired`` job also has
    a retire line.
    """
    lines = [
        {"op": "admit", "shard": shard, "job": doc}
        for doc in (*live, *retired)
    ] + [{"op": "retire", "job_id": doc["id"]} for doc in retired]
    with open(path, "w") as fh:
        for seq, line in enumerate(lines):
            fh.write(json.dumps(dict(
                line, schema=INTAKE_JOURNAL_SCHEMA, seq=seq, ts=1000.0,
            )) + "\n")


def hold(sup):
    """Keep the forwarding loops off every shard: they skip non-up ones."""
    for shard in sup.shards:
        shard.state = "starting"


def release(sup):
    for shard in sup.shards:
        shard.state = "up"
    sup._wake_all()


def oplog_events(stream, event):
    """The ``event`` records an OpLogger wrote to ``stream``."""
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    return [r for r in records if r["event"] == event]


async def cancel(*tasks):
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


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
    """Supervisor bookkeeping on the fault paths, on the manual clock.

    These drive :meth:`ShardSupervisor._on_shard_down`, the forwarding
    loops' error paths and the health loop directly against FakeShards,
    hand-built job records and stand-in processes — the
    cascading-failure orderings here are deterministic where the chaos
    soak's are not.
    """

    def _supervisor(self, fake_fleet, shards=2):
        sup, fake = fake_fleet(shards=shards)
        release(sup)
        return sup, fake

    def _admit_one(self, sup):
        (record,) = asyncio.run(sup.submit(fleet_specs(1)))
        return record

    def test_failed_over_job_survives_second_shard_death(self, fake_fleet):
        # Admit on A, fail over to B, then kill B: the job must be
        # requeued on A — the 202 must never be lost.
        sup, _ = self._supervisor(fake_fleet)
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

    def test_replay_skips_jobs_already_failed_over_elsewhere(
        self, fake_fleet
    ):
        # A job admitted on A failed over to B and is mid-flight there;
        # A dying again must not reset it.
        sup, _ = self._supervisor(fake_fleet)
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

    def test_unreachable_shard_requeues_whole_chunk(self, fake_fleet, clock):
        # A POST that cannot reach the shard must leave every job it
        # carried queued on that shard, in order, for the dispatch loop
        # to send again one health interval later — not just the
        # first, and none failed.
        sup, shards = self._supervisor(fake_fleet, shards=1)
        shards.refuse = {"POST"}
        shard = sup.shards[0]
        chunk = asyncio.run(sup.submit(fleet_specs(3)))
        asyncio.run(clock.run(sup._post(shard, chunk)))
        assert all(
            (r.status, r.remote_id, r.attempts) == ("queued", None, 0)
            for r in chunk
        )
        assert sup._owned(shard, "queued") == chunk
        assert sup.jobs_failed == 0
        assert clock.now() == sup.health_interval

    def test_collect_retries_while_shard_marked_up(self, fake_fleet, clock):
        # A watch stream that cannot open must not abandon dispatched
        # jobs: the collector tries once per health interval, with the
        # dispatched ids, until the health loop flips the state, at
        # which point replay owns the records.
        sup, shards = self._supervisor(fake_fleet, shards=1)
        shards.refuse = {"POST"}
        shard = sup.shards[0]
        record = self._admit_one(sup)
        record.status = "dispatched"
        record.remote_id = "remote-1"
        shard.remote["remote-1"] = record

        async def drive():
            task = asyncio.ensure_future(sup._collect_loop(shard))
            await clock.advance(4 * sup.health_interval)
            assert not task.done(), "gave up on a dispatched job"
            assert (record.status, record.remote_id) == (
                "dispatched", "remote-1"
            )
            sup._on_shard_down(shard, "heartbeat deadline missed")
            await cancel(task)

        asyncio.run(drive())
        opens = shards.requests("POST", "/jobs/watch")
        assert shards.log == opens
        assert [(r.at, r.doc["ids"]) for r in opens] == [
            (k * sup.health_interval, ["remote-1"]) for k in range(5)
        ]
        assert sup.jobs_failed == 0
        # Replay took the record back: the dispatch loop sends it again.
        assert (record.status, record.remote_id) == ("queued", None)
        assert sup._owned(shard, "queued") == [record]
        assert shard.remote == {}

    def test_restarts_run_concurrently_per_shard(self, fake_fleet, clock):
        # A slow restart of one shard must not stop the health loop
        # noticing (and restarting) another: both start in one pass.
        sup, _ = fake_fleet(shards=2)
        started = []

        async def slow_restart(shard):
            started.append(shard.index)
            await clock.sleep(30)

        sup._restart_shard = slow_restart
        for shard in sup.shards:
            shard.state = "down"

        async def drive():
            task = asyncio.ensure_future(sup._health_loop())
            await clock.until(lambda: len(started) == 2)
            await cancel(task, *(s.restart_task for s in sup.shards))

        asyncio.run(drive())
        assert sorted(started) == [0, 1]
        assert clock.now() == 0.0

    def test_spawn_timeout_kills_half_booted_child(self, fake_fleet, clock):
        # A child that never answers its first probe must be killed when
        # the spawn window closes, not left running while a sibling is
        # respawned.
        sup, shards = fake_fleet()
        shards.refuse = {"GET"}
        shard = sup.shards[0]
        with pytest.raises(RuntimeError, match="did not become healthy"):
            asyncio.run(
                clock.run(sup._start_shard(shard), limit=2 * SPAWN_TIMEOUT)
            )
        assert shard.proc.returncode == -signal.SIGKILL
        assert SPAWN_TIMEOUT <= clock.now() < SPAWN_TIMEOUT + 0.2


class TestRestartBackoff:
    """Restart backoff and flap detection, on the manual clock."""

    def test_backoff_doubles_per_consecutive_crash_up_to_the_cap(
        self, fake_fleet, clock
    ):
        log = io.StringIO()
        sup, _ = fake_fleet(oplog=OpLogger(stream=log, component="fleet"))
        shard = sup.shards[0]
        ladder = [0.25, 0.5, 1.0, 2.0, 4.0, 5.0, 5.0]

        async def scenario():
            await sup.start()
            for crash in range(1, len(ladder) + 1):
                shard.proc.kill()
                await clock.until(
                    lambda: shard.restarts == crash and shard.state == "up"
                )
            await clock.run(sup.drain())

        asyncio.run(scenario())
        restarts = oplog_events(log, "shard_restart")
        assert [(e["attempt"], e["backoff_s"]) for e in restarts] == list(
            enumerate(ladder, start=1)
        )
        # Each crash is seen by one health pass, the restart starts at
        # the next and waits its backoff on the clock.
        assert sup.recovery_seconds == pytest.approx(
            [sup.health_interval + backoff for backoff in ladder]
        )
        assert shard.consecutive_restarts == len(ladder)

    def test_flap_counter_resets_only_after_the_stability_window(
        self, fake_fleet, clock
    ):
        log = io.StringIO()
        sup, _ = fake_fleet(oplog=OpLogger(stream=log, component="fleet"))
        shard = sup.shards[0]

        async def scenario():
            await sup.start()
            shard.proc.kill()
            await clock.until(
                lambda: shard.restarts == 1 and shard.state == "up"
            )
            up_since = clock.now()
            await clock.advance(STABILITY_WINDOW - sup.health_interval)
            assert shard.consecutive_restarts == 1
            await clock.until(lambda: shard.consecutive_restarts == 0)
            assert clock.now() - up_since == pytest.approx(STABILITY_WINDOW)
            # The next crash starts the ladder from the bottom again.
            shard.proc.kill()
            await clock.until(
                lambda: shard.restarts == 2 and shard.state == "up"
            )
            await clock.run(sup.drain())

        asyncio.run(scenario())
        assert [e["backoff_s"] for e in oplog_events(log, "shard_restart")] \
            == [RESTART_BACKOFF_BASE, RESTART_BACKOFF_BASE]

    def test_recovery_is_recorded_for_a_shard_down_at_clock_zero(
        self, fake_fleet, clock
    ):
        # 0.0 is a legitimate monotonic reading (the manual clock starts
        # there): a shard declared down then must still report its
        # recovery, which feeds the chaos gate's bounded-recovery check.
        sup, _ = fake_fleet()
        shard = sup.shards[0]

        async def scenario():
            await sup.start()
            shard.proc.kill()
            await clock.until(lambda: shard.state == "down")
            assert clock.now() == 0.0
            await clock.until(
                lambda: shard.restarts == 1 and shard.state == "up"
            )
            await clock.run(sup.drain())

        asyncio.run(scenario())
        fleet_doc = sup.metrics()["fleet"]
        assert fleet_doc["recoveries"] == 1
        assert fleet_doc["recovery_seconds_max"] == (
            sup.health_interval + RESTART_BACKOFF_BASE
        )


class TestDrain:
    """Drain ends every supervisor loop without relying on cancellation."""

    def test_drain_returns_when_a_probe_loses_a_cancel(
        self, fake_fleet, clock, monkeypatch
    ):
        # On Python 3.11, the asyncio.wait_for inside _http_json can
        # lose a cancel that lands just as the probe completes.  Here
        # the probe loses the first cancel it sees; drain must still
        # return and stop the shard.
        from repro.serve import fleet

        sup, _ = fake_fleet()
        probes = []
        cancels = []

        async def lossy_probe(host, port, method, path, **kwargs):
            assert (method, path) == ("GET", "/healthz")
            probes.append(clock.now())
            try:
                await clock.sleep(0.05)
            except asyncio.CancelledError:
                cancels.append(True)
                if len(cancels) > 1:
                    raise
            return 200, {"status": "ok"}

        monkeypatch.setattr(fleet, "_http_json", lossy_probe)

        async def drive():
            await clock.run(sup.start())
            # The boot probe, then a health-loop probe in flight.
            await clock.until(lambda: len(probes) == 2)
            await clock.run(sup.drain(), limit=3)

        asyncio.run(drive())
        shard = sup.shards[0]
        assert shard.state == "down"
        assert shard.proc.returncode == -signal.SIGTERM
        assert sup._tasks == []

    def test_drain_runs_a_submission_whose_journal_write_spans_it(
        self, fake_fleet, clock
    ):
        # A submission passes the draining check, then its journal
        # fsync (on an executor thread) is still running when drain
        # starts.  It gets its 202, so drain must run it before the
        # fleet stops, and its admit must not reopen a closed journal.
        sup, _ = fake_fleet()
        entered, proceed = threading.Event(), threading.Event()
        admit = sup.journal.admit

        def slow_admit(docs):
            entered.set()
            assert proceed.wait(30)
            admit(docs)

        sup.journal.admit = slow_admit

        async def scenario():
            loop = asyncio.get_running_loop()
            await clock.run(sup.start())
            submit = asyncio.ensure_future(sup.submit(fleet_specs(2)))
            assert await loop.run_in_executor(None, entered.wait, 30)
            drain = asyncio.ensure_future(sup.drain())
            await clock.advance(1.0)
            drained_early = drain.done()
            proceed.set()
            records = await submit
            await clock.run(drain)
            return drained_early, records

        drained_early, records = asyncio.run(scenario())
        assert not drained_early
        assert all_done(records)
        assert sup.journal.live_count == 0
        assert sup.journal._fh is None  # closed by drain, not reopened

    def test_drain_ends_every_stream(self, fake_fleet, clock):
        # The router closes its watch streams once it has drained, so
        # every collector returns and drain stops the shards.
        sup, shards = fake_fleet(shards=2)

        async def scenario():
            await sup.start()
            records = await sup.submit(fleet_specs(4))
            await clock.until(lambda: all_done(records))
            await clock.run(sup.drain(), limit=1.0)

        asyncio.run(scenario())
        assert len(shards.opened) == 2
        assert all(stream.closed for stream in shards.opened)
        assert all(shard.watch is None for shard in sup.shards)
        assert sup._tasks == []
        assert all(shard.state == "down" for shard in sup.shards)

    def test_a_failed_retire_finishes_the_job_and_the_collector_goes_on(
        self, fake_fleet, clock, monkeypatch
    ):
        # The disk fills as the first finished job is retired.  That job
        # still finishes, the collector lives on to finish the others,
        # and drain returns; the entry stays live for the next start.
        log = io.StringIO()
        sup, _ = fake_fleet(oplog=OpLogger(stream=log, component="fleet"))
        real_fsync = os.fsync
        failures = []

        def fsync_fails_once(fd):
            if not failures:
                failures.append(fd)
                raise OSError(errno.ENOSPC, "No space left on device")
            real_fsync(fd)

        async def scenario():
            await clock.run(sup.start())
            hold(sup)
            records = await sup.submit(fleet_specs(3))
            monkeypatch.setattr(os, "fsync", fsync_fails_once)
            release(sup)
            await clock.until(lambda: all_done(records), limit=10)
            await clock.run(sup.drain(), limit=10)
            return records

        records = asyncio.run(scenario())
        assert failures and all_done(records)
        errors = oplog_events(log, "journal_error")
        assert [e["job_id"] for e in errors] == [records[0].id]
        assert "No space left" in errors[0]["error"]
        assert [doc["id"] for doc in sup.journal.live_jobs()] == [
            records[0].id
        ]


class TestForwardPath:
    """The per-shard dispatch loop and collector, against FakeShards."""

    def test_one_post_per_trace_id(self, fake_fleet, clock):
        sup, shards = fake_fleet()

        async def scenario():
            await sup.start()
            hold(sup)  # the dispatch loop sees both submissions at once
            first = await sup.submit(fleet_specs(3), trace_id="trace-a")
            second = await sup.submit(fleet_specs(2, 3), trace_id="trace-b")
            release(sup)
            await clock.until(lambda: all_done(first + second))
            await clock.run(sup.drain())

        asyncio.run(scenario())
        posts = shards.requests("POST", "/jobs")
        assert [
            (len(r.doc["jobs"]), r.headers["X-Trace-Id"]) for r in posts
        ] == [(3, "trace-a"), (2, "trace-b")]

    def test_unknown_id_at_stream_open_is_sent_again(self, fake_fleet, clock):
        # The shard forgets the second job.  Its stream drops, and the
        # reopened stream reports that id unknown: the router sends the
        # job again.
        sup, shards = fake_fleet()
        shards.forget.add("remote-1")

        async def scenario():
            await sup.start()
            records = await sup.submit(fleet_specs(3), trace_id="trace-a")
            await clock.until(
                lambda: records[0].status == records[2].status == "done"
            )
            shards.drop(9000)
            await clock.until(lambda: all_done(records))
            await clock.run(sup.drain())
            return records

        records = asyncio.run(scenario())
        opens = shards.requests("POST", "/jobs/watch")
        assert [r.doc["ids"] for r in opens] == [[], ["remote-1"]]
        posts = [r.doc["jobs"] for r in shards.requests("POST", "/jobs")]
        assert posts == [
            [r.spec.to_dict() for r in records], [records[1].spec.to_dict()],
        ]
        assert [r.attempts for r in records] == [1, 2, 1]
        assert [r.digest for r in records] == [
            "remote-0", "remote-3", "remote-2",
        ]

    def test_head_of_line_job_does_not_hold_back_the_next(
        self, fake_fleet, clock
    ):
        # A job submitted while the shard still runs an earlier one is
        # sent and collected without waiting for that job to finish.
        sup, shards = fake_fleet()
        shards.held.add("remote-0")  # the shard never finishes job one

        async def scenario():
            await sup.start()
            (slow,) = await sup.submit(fleet_specs(1), trace_id="trace-a")
            await clock.until(lambda: slow.status == "dispatched")
            (fast,) = await sup.submit(fleet_specs(1, 1), trace_id="trace-b")
            await clock.until(lambda: fast.status == "done", limit=2.0)
            assert slow.status == "dispatched"
            shards.release()
            await clock.run(sup.drain())

        asyncio.run(scenario())

    @pytest.mark.parametrize("path", ["/jobs", "/jobs/watch"])
    def test_job_finishes_when_its_shard_goes_down_mid_request(
        self, fake_fleet, clock, path
    ):
        # The health loop declares shard A down while A is answering the
        # job's POST /jobs (with a 202) or while the job's line is on
        # its way up A's watch stream.  The job has failed over to B by
        # then, so A's answer must not touch it: B sends and collects it.
        sup, shards = fake_fleet(shards=2)
        down = []

        def shard_goes_down(port):
            if not down:
                (victim,) = [s for s in sup.shards if s.port == port]
                down.append(victim.index)
                sup._on_shard_down(victim, "heartbeat deadline missed")

        def during_post(request):
            if request.path == "/jobs":
                shard_goes_down(request.port)

        if path == "/jobs":
            shards.on_request = during_post
        else:
            shards.on_line = lambda port, line: shard_goes_down(port)

        async def scenario():
            await sup.start()
            (record,) = await sup.submit(fleet_specs(1), trace_id="trace-a")
            await clock.until(lambda: record.status == "done")
            await clock.run(sup.drain())
            return record

        record = asyncio.run(scenario())
        assert record.shard == 1 - down[0]
        assert record.failovers == 1
        assert record.digest == "remote-1"  # B's answer, not A's
        assert [r.port for r in shards.requests("POST", "/jobs")] == [
            9000 + down[0], 9000 + record.shard,
        ]
        assert sup.journal.live_count == 0

    def test_job_waiting_for_its_shard_is_sent_when_the_shard_is_up(
        self, fake_fleet, clock
    ):
        # With every shard down, a new job waits on its ring owner; the
        # shard coming back up wakes the dispatch loop, which sends the
        # job at once.
        sup, shards = fake_fleet()
        shard = sup.shards[0]

        async def scenario():
            await sup.start()
            shard.proc.kill()
            await clock.until(lambda: shard.state == "down")
            (record,) = await sup.submit(fleet_specs(1), trace_id="trace-a")
            await clock.until(lambda: record.status == "done")
            await clock.run(sup.drain())

        asyncio.run(scenario())
        (post,) = shards.requests("POST", "/jobs")
        assert shard.restarts == 1
        assert post.at == sup.health_interval + RESTART_BACKOFF_BASE

    def test_unreachable_shard_costs_one_request_per_health_interval(
        self, fake_fleet, clock
    ):
        # The shard is marked up but refuses every POST: the dispatch
        # loop and the collector each back off exactly one health
        # interval per attempt, and no job fails — declaring the shard
        # down is the health loop's call.
        sup, shards = fake_fleet()

        async def scenario():
            await sup.start()
            shards.refuse = {"POST"}  # before either loop's first try
            (record,) = await sup.submit(fleet_specs(1))
            await clock.until(
                lambda: len(shards.requests("POST", "/jobs")) >= 3
                and len(shards.requests("POST", "/jobs/watch")) >= 3
            )
            assert record.status == "queued"
            shards.refuse = set()
            await clock.until(lambda: record.status == "done")
            await clock.run(sup.drain())

        asyncio.run(scenario())
        assert sup.jobs_failed == 0
        for path in ("/jobs", "/jobs/watch"):
            times = [r.at for r in shards.requests("POST", path)][:3]
            gaps = [later - earlier for earlier, later in zip(times, times[1:])]
            assert gaps == pytest.approx([sup.health_interval] * 2), path

    @pytest.mark.parametrize(
        "status, outcome, posts", [(429, "done", 2), (503, "done", 2),
                                   (400, "failed", 1)],
    )
    def test_refused_post_is_retried_only_when_retryable(
        self, fake_fleet, clock, status, outcome, posts
    ):
        # 429 and 503 wait retry_after and send the job again; any other
        # refusal fails the job.
        sup, shards = fake_fleet()
        shards.refusals.append(status)

        async def scenario():
            await sup.start()
            (record,) = await sup.submit(fleet_specs(1), trace_id="trace-a")
            await clock.until(lambda: record.status in ("done", "failed"))
            await clock.run(sup.drain())
            return record

        record = asyncio.run(scenario())
        assert record.status == outcome
        sent = shards.requests("POST", "/jobs")
        assert len(sent) == posts
        if outcome == "failed":
            assert record.error == "shard 0 refused job (400): refused"
        else:
            assert sent[1].at - sent[0].at == sup.retry_after

    def test_window_never_provokes_a_429(self, fake_fleet, clock):
        sup, shards = fake_fleet(shard_queue_limit=4)
        shards.queue_limit = 4

        async def scenario():
            await sup.start()
            records = await sup.submit(fleet_specs(6), trace_id="trace-a")
            await clock.until(lambda: all_done(records))
            await clock.run(sup.drain())

        asyncio.run(scenario())
        posts = shards.requests("POST", "/jobs")
        assert shards.rejected == 0
        assert sum(len(r.doc["jobs"]) for r in posts) == 6
        assert max(len(r.doc["jobs"]) for r in posts) <= 4

    def test_line_before_its_202_lands_the_job_once(self, fake_fleet, clock):
        # The shard finishes the job and the router reads its line
        # before the POST's 202 is handled: the line is kept until the
        # 202 lands the job, once.
        log = io.StringIO()
        sup, shards = fake_fleet(oplog=OpLogger(stream=log, component="fleet"))
        shards.early_lines = True
        shard = sup.shards[0]
        kept = []
        accept = sup._accept

        def accept_and_look(shard, records, status, doc):
            kept.append(set(shard.early))
            accept(shard, records, status, doc)

        sup._accept = accept_and_look

        async def scenario():
            await sup.start()
            (record,) = await sup.submit(fleet_specs(1), trace_id="trace-a")
            await clock.until(lambda: record.status == "done")
            await clock.run(sup.drain())
            return record

        record = asyncio.run(scenario())
        assert kept == [{"remote-0"}]
        assert record.digest == "remote-0" and record.attempts == 1
        assert [e["job_id"] for e in oplog_events(log, "retire")] == [
            record.id
        ]
        assert (sup.jobs_completed, shard.completed) == (1, 1)
        assert shard.early == {} and shard.remote == {}

    def test_dropped_stream_is_reopened_with_the_dispatched_ids(
        self, fake_fleet, clock
    ):
        # The shard ends its stream while it is still up and a job runs
        # there: the router opens a new one a health interval later,
        # asking for that job, and the job lands on it.
        sup, shards = fake_fleet()
        shards.held.add("remote-0")

        async def scenario():
            await sup.start()
            (record,) = await sup.submit(fleet_specs(1))
            await clock.until(lambda: record.status == "dispatched")
            shards.drop(9000)
            dropped = clock.now()
            await clock.until(
                lambda: len(shards.requests("POST", "/jobs/watch")) == 2
            )
            shards.release()
            await clock.until(lambda: record.status == "done")
            await clock.run(sup.drain())
            return record, dropped

        record, dropped = asyncio.run(scenario())
        opens = shards.requests("POST", "/jobs/watch")
        assert [(r.at, r.doc["ids"]) for r in opens] == [
            (0.0, []), (dropped + sup.health_interval, ["remote-0"]),
        ]
        assert sup.jobs_failed == 0
        assert (record.attempts, record.digest) == (1, "remote-0")


    def test_stream_does_not_open_while_a_post_is_in_flight(
        self, fake_fleet, clock
    ):
        # The stream drops as a job's POST goes out, and the shard
        # finishes the job while its slow 202 is on the way.  The
        # stream reopens only once that 202 has landed, so it asks for
        # the job and the shard reports it finished.
        sup, shards = fake_fleet()
        shards.post_time = 2 * sup.health_interval

        async def scenario():
            await sup.start()
            await clock.advance(0)  # the first stream opens
            shards.drop(9000)
            (record,) = await sup.submit(fleet_specs(1))
            await clock.until(lambda: record.status == "done", limit=5.0)
            await clock.run(sup.drain())
            return record

        record = asyncio.run(scenario())
        (post,) = shards.requests("POST", "/jobs")
        landed = post.at + shards.post_time
        assert shards.done_at["remote-0"] < landed
        opens = shards.requests("POST", "/jobs/watch")
        assert [(r.at, r.doc["ids"]) for r in opens] == [
            (0.0, []), (landed, ["remote-0"]),
        ]
        assert record.finished_mono == landed


class TestServedJobHops:
    """The router's per-hop stamps of a served job, on the manual clock."""

    def test_hops_add_up_and_a_job_lands_when_its_shard_finishes(
        self, fake_fleet, clock
    ):
        # A one-job window: each job runs 0.3 virtual seconds on the
        # shard and the next waits in the router's queue until it is
        # landed.  The router finishes each job the moment the shard
        # does, and its retire event splits the job time into the two
        # hops exactly.
        log = io.StringIO()
        sup, shards = fake_fleet(
            shard_queue_limit=1,
            oplog=OpLogger(stream=log, component="fleet"),
        )
        shards.run_time = 0.3

        async def scenario():
            await sup.start()
            records = await sup.submit(fleet_specs(3), trace_id="trace-a")
            await clock.until(lambda: all_done(records))
            await clock.run(sup.drain())
            return records

        records = asyncio.run(scenario())
        retires = {e["job_id"]: e for e in oplog_events(log, "retire")}
        for i, record in enumerate(records):
            event = retires[record.id]
            assert event["queue_ms"] + event["remote_ms"] == (
                event["duration_ms"]
            )
            assert event["queue_ms"] == pytest.approx(300 * i)
            assert event["remote_ms"] == pytest.approx(300)
            assert record.finished_mono == shards.done_at[record.digest]
            assert record.finished_mono == pytest.approx(0.3 * (i + 1))


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


@pytest.fixture(scope="class")
def fleet(tmp_path_factory):
    """A real 2-shard fleet for one test class.

    Class scope stops it before any later test swaps the module's
    ``_clock`` or ``_http_json``, which its loops also read.
    """
    root = tmp_path_factory.mktemp("fleet")
    thread = FleetThread(
        shards=2,
        fleet_dir=str(root / "state"),
        cache_dir=str(root / "cache"),
        heartbeat_deadline=1.5,
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
        assert doc["fleet"]["journal"]["path"].endswith(
            "intake.journal.jsonl"
        )
        assert all("journal" not in shard for shard in doc["shards"])

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
        # SIGKILL a shard holding journaled work: every accepted job
        # still finishes, the dead shard's jobs are replayed, the
        # journal drains, and the shard comes back.  Seed 1 keeps
        # every spec out of the cache the other tests warmed.
        client = ServeClient(fleet.base_url, connect_retries=5)
        supervisor = fleet.supervisor
        before = client.metrics()["fleet"]
        accepted = client.submit([
            dict(TINY, thetas=[60 + 10 * i, 20, 20, 20], seed=1)
            for i in range(6)
        ])
        ids = [doc["id"] for doc in accepted]
        # The journal holds every accepted job until it retires.
        assert sorted(
            doc["id"] for doc in supervisor.journal.live_jobs()
        ) == sorted(ids)
        victim = supervisor.shards[0]
        victim_live = [doc for doc in accepted if doc["shard"] == victim.index]
        os.kill(victim.pid, signal.SIGKILL)
        records = client.wait(ids, timeout=300)
        assert all(
            records[job_id]["status"] == "done" for job_id in ids
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            doc = client.metrics()
            if all(s["state"] == "up" for s in doc["shards"]):
                break
            time.sleep(0.3)
        else:
            pytest.fail("killed shard was not restarted")
        fleet_doc = doc["fleet"]
        assert fleet_doc["journal_live"] == 0
        assert os.path.getsize(supervisor.journal.path) == 0
        assert fleet_doc["replayed_jobs"] - before["replayed_jobs"] >= len(
            victim_live
        )
        assert fleet_doc["restarts_total"] > before["restarts_total"]
        assert fleet_doc["recoveries"] > before["recoveries"]
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
        with pytest.raises(ServeClientError, match="3 attempt"):
            client.healthz()
        # One backoff sleep before each of the two retries.
        assert client.oplog.event_counts["client_reconnect"] == 2

    def test_rejects_negative_retry_budget(self):
        with pytest.raises(ValueError):
            ServeClient("http://127.0.0.1:1", connect_retries=-1)

    def test_survives_server_arriving_late(self):
        """ECONNREFUSED during a shard restart window is retried."""
        port = self._free_port()
        refused = threading.Event()

        class RefusalWatch(OpLogger):
            def emit(self, event, **fields):
                if event == "client_reconnect":
                    refused.set()
                return super().emit(event, **fields)

        server_box = []

        def bring_up():
            # The server arrives only after the client was refused.
            refused.wait(timeout=30)
            thread = ServerThread(port=port)
            thread.start()
            server_box.append(thread)

        starter = threading.Thread(target=bring_up)
        starter.start()
        try:
            client = ServeClient(
                f"http://127.0.0.1:{port}", timeout=30.0,
                oplog=RefusalWatch(component="client"),
                connect_retries=10, connect_backoff=0.1,
            )
            doc = client.healthz()
            assert doc["status"] == "ok"
            reconnects = client.oplog.event_counts.get("client_reconnect", 0)
            assert reconnects >= 1
        finally:
            refused.set()
            starter.join()
            for thread in server_box:
                thread.stop()


class TestLastHealthyAge:
    def test_zero_monotonic_reading_is_a_real_age(self, fake_fleet, clock):
        # last_healthy == 0.0 is a legitimate monotonic timestamp (the
        # clock's epoch is arbitrary); only None means "never healthy".
        # The old truthiness test conflated the two and reported a
        # healthy shard as ageless.
        sup, _ = fake_fleet()
        shard = sup.shards[0]
        shard.state = "up"
        shard.last_healthy = 0.0
        asyncio.run(clock.advance(1.5))
        assert sup.metrics()["shards"][0]["last_healthy_age_s"] == 1.5

    def test_never_healthy_reports_none(self, fake_fleet):
        sup, _ = fake_fleet()
        assert sup.shards[0].last_healthy is None
        assert sup.metrics()["shards"][0]["last_healthy_age_s"] is None

    def test_never_healthy_shard_misses_heartbeat_deadline(
        self, fake_fleet, clock
    ):
        # A shard that never answered a single probe must be declared
        # down once probing starts failing — last_healthy=None cannot
        # be treated as "healthy at monotonic zero", which at the
        # clock's 0.0 would sit inside the deadline window.
        sup, shards = fake_fleet()
        shards.refuse = {"GET"}
        shard = sup.shards[0]
        sup._spawn(shard)
        shard.state = "up"
        asyncio.run(sup._probe(shard))
        assert clock.now() == 0.0
        assert shard.state == "down", "never-healthy shard survived"


class TestAtomicFleetAdmission:
    def test_concurrent_oversize_submissions_cannot_both_pass(
        self, fake_fleet
    ):
        # submit() journals a submission with an fsync on an executor
        # thread, so it yields between the admission check and the
        # record registrations.  Without reserve-before-await, two
        # concurrent 3-job submissions against admission_limit=4 both
        # read pending=0, both pass, and 6 jobs are admitted.  The
        # reservation makes exactly one lose.
        sup, _ = fake_fleet(shards=2, admission_limit=4)
        for shard in sup.shards:
            shard.state = "up"

        async def scenario():
            return await asyncio.gather(
                sup.submit(fleet_specs(3)),
                sup.submit(fleet_specs(3, 100)),
                return_exceptions=True,
            )

        results = asyncio.run(scenario())
        rejected = [r for r in results if isinstance(r, QueueFullError)]
        admitted = [r for r in results if isinstance(r, list)]
        assert len(rejected) == 1 and len(admitted) == 1, results
        assert sup.healthz()["pending"] == 3
        assert sup.jobs_submitted == 3
        assert sup.jobs_rejected == 3


    def test_failed_journal_write_admits_no_job_of_the_submission(
        self, fake_fleet, monkeypatch
    ):
        # The disk fills while the journal writes the second admit line
        # of a 3-job submission.  The caller gets the error (a 500), so
        # no job of it may be registered, counted, dispatched or left
        # in the file, and its admission slots are free again.
        log = io.StringIO()
        sup, _ = fake_fleet(
            shards=2, admission_limit=3,
            oplog=OpLogger(stream=log, component="fleet"),
        )
        writes = []
        open_sink = WriteAheadJournal._sink

        class FullDisk:
            """The journal's file, failing its second write."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                writes.append(text)
                if len(writes) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(text)

            def __getattr__(self, name):
                return getattr(self.fh, name)

        monkeypatch.setattr(
            WriteAheadJournal, "_sink", lambda self: FullDisk(open_sink(self))
        )
        with pytest.raises(OSError):
            asyncio.run(sup.submit(fleet_specs(3)))
        assert sup.healthz()["pending"] == 0
        assert sup.jobs_submitted == 0
        assert oplog_events(log, "admit") == []
        admitted = asyncio.run(sup.submit(fleet_specs(3, 3)))
        # No line of the refused submission is left in the file for a
        # later cold start to replay.
        on_disk = WriteAheadJournal(sup.journal.path).live_jobs()
        assert [doc["id"] for doc in on_disk] == [r.id for r in admitted]


class TestColdStart:
    """A router started over a fleet dir runs what it accepted before."""

    def test_live_entries_are_replayed_on_their_ring_owner(
        self, fake_fleet, clock, tmp_path
    ):
        journal = WriteAheadJournal(
            str(tmp_path / "fleet" / "intake.journal.jsonl")
        )
        live = [journaled("job-0", 0), journaled("job-2", 2),
                journaled("job-3", 3)]
        journal.admit([live[0], journaled("job-1", 1)])
        journal.admit(live[1:])
        journal.retire("job-1")
        journal.close()
        with open(journal.path, "a") as fh:  # a crash tore the last append
            fh.write('{"schema": "%s", "op": "adm' % INTAKE_JOURNAL_SCHEMA)
        log = io.StringIO()
        sup, shards = fake_fleet(
            shards=2, oplog=OpLogger(stream=log, component="fleet"),
        )

        async def scenario():
            start = asyncio.ensure_future(sup.start())
            await asyncio.sleep(0)  # the replay runs before any shard is up
            records = [sup.get(doc["id"]) for doc in live]
            assert [r.status for r in records] == ["queued"] * 3
            await clock.run(start)
            await clock.until(lambda: all_done(records))
            await clock.run(sup.drain())
            return records

        records = asyncio.run(scenario())
        for record, doc in zip(records, live):
            assert (record.trace_id, record.submitted_at) == (
                doc["trace_id"], doc["submitted_at"]
            )
            assert record.spec == JobSpec.from_dict(doc["spec"])
            assert record.shard == sup.ring.assign(record.spec.spec_key())
        posts = shards.requests("POST", "/jobs")
        assert sorted((r.port, r.headers["X-Trace-Id"]) for r in posts) == (
            sorted((9000 + r.shard, r.trace_id) for r in records)
        )
        assert sup.get("job-1") is None
        assert sup.replayed_jobs == 3
        assert [
            (e["job_id"], e["shard"], e["phase"])
            for e in oplog_events(log, "journal_replay")
        ] == [(r.id, r.shard, "cold_start") for r in records]
        fleet_doc = sup.metrics()["fleet"]
        assert fleet_doc["journal_live"] == 0
        assert fleet_doc["journal_torn_lines"] == 1
        assert os.path.getsize(sup.journal.path) == 0

    def test_an_entry_that_can_never_run_is_retired(
        self, fake_fleet, clock, tmp_path
    ):
        # Routers that admitted θ = 0 journaled it; no router can build
        # it now.  It is skipped once and retired, so the journal drains
        # instead of skipping it again on every restart.
        (tmp_path / "fleet").mkdir()
        write_per_shard_journal(
            tmp_path / "fleet" / "shard-0.journal.jsonl", shard=0,
            live=[journaled("never", 0, thetas=[0, 20, 20, 20])],
        )
        log = io.StringIO()
        sup, _ = fake_fleet(oplog=OpLogger(stream=log, component="fleet"))

        async def scenario():
            await clock.run(sup.start())
            await clock.run(sup.drain())

        asyncio.run(scenario())
        assert sup.metrics()["fleet"]["journal_live"] == 0
        (skip,) = oplog_events(log, "journal_skip")
        assert skip["job_id"] == "never" and "shard" not in skip
        assert sup.replayed_jobs == 0 and sup.get("never") is None
        assert os.path.getsize(sup.journal.path) == 0

    def test_per_shard_journals_are_folded_into_the_journal(
        self, fake_fleet, clock, tmp_path
    ):
        # A fleet dir written by a router that kept one journal per
        # shard: its live job still runs, and the old file is gone.
        (tmp_path / "fleet").mkdir()
        per_shard = tmp_path / "fleet" / "shard-1.journal.jsonl"
        write_per_shard_journal(
            per_shard, shard=1,
            live=[journaled("kept", 0)], retired=[journaled("done", 1)],
        )
        sup, _ = fake_fleet(shards=2)

        async def scenario():
            await clock.run(sup.start())
            assert not per_shard.exists()
            record = sup.get("kept")
            await clock.until(lambda: record.status == "done")
            await clock.run(sup.drain())
            return record

        record = asyncio.run(scenario())
        assert record.trace_id == "trace-kept"
        assert sup.get("done") is None
        assert sup.replayed_jobs == 1
        assert sup.journal.live_count == 0
        assert os.path.getsize(sup.journal.path) == 0


class TestFleetMonotonicDurations:
    def test_wall_clock_step_cannot_corrupt_retire_duration(
        self, fake_fleet, clock, tmp_path, monkeypatch
    ):
        # Same NTP-step scenario as the serve-layer test, at the fleet
        # layer: duration_ms in the retire oplog event must come from
        # the monotonic clock.  Pre-fix it was wall-clock and clamped
        # with max(0, ...) — a forward step inflated it by the step.
        import repro.serve.fleet as fleet_mod

        class SteppedTime:
            def __init__(self):
                self._real = time
                self.offset = 0.0

            def time(self):
                return self._real.time() + self.offset

            def __getattr__(self, name):
                return getattr(self._real, name)

        wall = SteppedTime()
        monkeypatch.setattr(fleet_mod, "time", wall)
        oplog_path = tmp_path / "fleet.oplog.jsonl"
        with OpLogger(path=str(oplog_path), component="fleet") as oplog:
            sup, _ = fake_fleet(oplog=oplog)
            sup.shards[0].state = "up"
            (record,) = asyncio.run(sup.submit(fleet_specs(1)))
            asyncio.run(clock.advance(2.5))
            wall.offset = 3600.0  # NTP steps +1h while the job is queued
            sup._finish(record, result={"final_cycle": 1})
        assert record.status == "done"
        assert sup.healthz()["pending"] == 0
        retires = [
            json.loads(line)
            for line in oplog_path.read_text().splitlines()
            if '"retire"' in line
        ]
        assert [e["duration_ms"] for e in retires] == [2500.0]
        # The journal/display stamp keeps wall time.
        assert record.finished_at - record.submitted_at >= 3600
