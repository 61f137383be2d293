"""Self-healing sharded serving: a supervised fleet of ``cohort serve``.

``cohort fleet`` scales the single-process serving layer out to N
*shard* subprocesses — each one a full ``cohort serve`` (a
:class:`~repro.serve.service.BatchingService` over its own
:class:`~repro.runner.SweepRunner`) on its own port, all sharing one
hardened on-disk result cache — and puts a supervising router in front:

* **Routing** — jobs are routed to shards by consistent hash of the
  job's content key (:meth:`JobSpec.spec_key`), so repeated
  submissions of the same spec land on the same shard and its warm
  in-process memo, while the shared cache directory backstops every
  shard with cross-shard warm replication.
* **Durability** — every accepted submission is appended to the
  router's one write-ahead intake journal (schema-versioned JSONL,
  :data:`repro.obs.schema.INTAKE_JOURNAL_SCHEMA`) and ``fsync``'d
  *before* the 202 is sent; an entry is retired when its job finishes
  and the file is truncated once no live entries remain.  An accepted
  202 is never lost: a crashed shard's unfinished jobs are requeued
  from the router's job records, and a restarted router replays the
  journal's live entries on cold start.
* **Supervision** — each shard is health-checked over ``/healthz``
  with a heartbeat deadline, the one timing an operator sets: probes
  run every deadline/12 and time out after deadline/3.  A crashed
  (``SIGKILL``), hung (``SIGSTOP``), or flapping shard is declared
  down, new traffic fails over to live shards via the ring, its
  unfinished jobs are replayed, and the supervisor restarts it with
  capped exponential backoff.
* **Forwarding** — each shard has one dispatch loop and one collector.
  The dispatch loop posts the shard's queued jobs as one ``POST /jobs``
  per trace id and never leaves more than the shard's queue limit
  uncollected there; the collector keeps one ``POST /jobs/watch``
  stream open to the shard and lands each job as soon as the shard
  streams its line.  Neither keeps a queue of its own: both read a
  job's owner and status from its record, which the collector finds
  through the shard's remote-id index.

Everything is asyncio + stdlib, single event-loop-thread state like
:class:`BatchingService`.  Journal fsyncs run on an executor thread so
a slow disk never stalls the event loop; because that makes ``submit``
yield mid-admission, admission slots are reserved atomically *before*
the await (see :meth:`ShardSupervisor.submit`).  See
``docs/serving.md`` for the architecture and ``docs/resilience.md``
for the failure-mode map.
"""

from __future__ import annotations

import asyncio
import glob
import json
import os
import socket
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import hashlib

from repro.obs.ops import OpLogger
from repro.obs.schema import FLEET_METRICS_SCHEMA, INTAKE_JOURNAL_SCHEMA
from repro.serve.server import MAX_BODY_BYTES, LoopThread, read_headers
from repro.serve.service import (
    RETRY_AFTER,
    DrainingError,
    JobSpec,
    JobSpecError,
    QueueFullError,
)

__all__ = [
    "FleetThread",
    "HashRing",
    "ShardSupervisor",
    "WriteAheadJournal",
]


#: Restart backoff: the first restart waits this long, and each
#: consecutive one doubles it, up to :data:`RESTART_BACKOFF_MAX`.
RESTART_BACKOFF_BASE = 0.25
RESTART_BACKOFF_MAX = 5.0
#: Seconds of health after a restart that reset the backoff ladder.
STABILITY_WINDOW = 10.0
#: Seconds a spawned shard has to answer its first ``/healthz``.
SPAWN_TIMEOUT = 60.0
#: Socket timeout of one dispatch request to a shard, and of opening
#: its watch stream.
REQUEST_TIMEOUT = 30.0


class _MonotonicClock:
    """Every time read and sleep of the supervisor's schedule.

    Tests swap the module's ``_clock`` for a manual clock, as they swap
    ``_http_json`` for in-memory shards.
    """

    now = staticmethod(time.monotonic)
    sleep = staticmethod(asyncio.sleep)


_clock = _MonotonicClock()


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (best-effort; bound then released)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return int(sock.getsockname()[1])


class ShardUnreachableError(ConnectionError):
    """A shard did not answer an HTTP request (down, hung, or refusing)."""


async def _request(
    host: str,
    port: int,
    method: str,
    path: str,
    doc: Optional[Any] = None,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter, int, Dict[str, str]]:
    """Send one request; the open connection, reply status and headers.

    The caller reads the body and closes the writer.  A line of the
    body may be as long as the largest request body a front-end takes.
    """
    reader, writer = await asyncio.open_connection(
        host, port, limit=MAX_BODY_BYTES
    )
    try:
        body = b"" if doc is None else json.dumps(doc).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Connection: close\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if body:
            head += "Content-Type: application/json\r\n"
        for key, value in (headers or {}).items():
            head += f"{key}: {value}\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.decode("latin-1", "replace").split()
        if len(parts) < 2 or not parts[1].isdigit():
            raise ShardUnreachableError("malformed status line")
        return reader, writer, int(parts[1]), await read_headers(reader)
    except BaseException:
        writer.close()
        raise


def _unreachable(
    method: str, path: str, host: str, port: int, exc: BaseException
) -> ShardUnreachableError:
    return ShardUnreachableError(
        f"{method} {path} on {host}:{port}: {type(exc).__name__}: {exc}"
    )


async def _http_json(
    host: str,
    port: int,
    method: str,
    path: str,
    doc: Optional[Any] = None,
    timeout: float = 5.0,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Any]:
    """One JSON-over-HTTP request on the event loop; ``(status, doc)``.

    Anything that smells like an unreachable peer — refused/reset
    connections, timeouts, a torn response — raises
    :class:`ShardUnreachableError` so callers have a single failure
    signal to back off on.
    """

    async def _talk() -> Tuple[int, Any]:
        reader, writer, status, reply_headers = await _request(
            host, port, method, path, doc, headers
        )
        try:
            try:
                length = int(reply_headers.get("content-length", 0))
            except ValueError:
                raise ShardUnreachableError("bad content-length")
            payload = (
                await reader.readexactly(length)
                if length
                else await reader.read()
            )
            parsed = json.loads(payload) if payload else None
            return status, parsed
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    try:
        return await asyncio.wait_for(_talk(), timeout)
    except ShardUnreachableError:
        raise
    except (
        OSError,
        asyncio.TimeoutError,
        asyncio.IncompleteReadError,
        ValueError,
    ) as exc:
        raise _unreachable(method, path, host, port, exc) from exc


class _WatchStream:
    """An open ``POST /jobs/watch``: the documents its shard streams.

    Iteration ends when the shard ends the stream or :meth:`close` is
    called; a torn or malformed line raises
    :class:`ShardUnreachableError`.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    def __aiter__(self) -> "_WatchStream":
        return self

    async def __anext__(self) -> Dict[str, Any]:
        try:
            line = await self._reader.readline()
            doc = json.loads(line) if line else None
        except (OSError, ValueError) as exc:
            raise ShardUnreachableError(
                f"watch stream: {type(exc).__name__}: {exc}"
            ) from exc
        if not line:
            raise StopAsyncIteration
        if not isinstance(doc, dict):
            raise ShardUnreachableError("watch stream: malformed line")
        return doc

    def close(self) -> None:
        self._writer.close()


async def _watch(host: str, port: int, ids: Sequence[str]) -> _WatchStream:
    """Open ``POST /jobs/watch`` on a shard for ``ids``.

    Returns once the shard has answered 200: from then on it streams
    the line of every job it finishes.  Tests swap this seam, as they
    swap :func:`_http_json`, for in-memory shards.
    """

    async def _open() -> _WatchStream:
        reader, writer, status, _ = await _request(
            host, port, "POST", "/jobs/watch", {"ids": list(ids)}
        )
        if status != 200:
            writer.close()
            raise ShardUnreachableError(
                f"POST /jobs/watch on {host}:{port}: status {status}"
            )
        return _WatchStream(reader, writer)

    try:
        return await asyncio.wait_for(_open(), REQUEST_TIMEOUT)
    except ShardUnreachableError:
        raise
    except (OSError, asyncio.TimeoutError, ValueError) as exc:
        raise _unreachable("POST", "/jobs/watch", host, port, exc) from exc


# -- write-ahead intake journal ---------------------------------------------


class WriteAheadJournal:
    """The router's durability log for accepted-but-unfinished jobs.

    Append-only JSONL, one schema-tagged record per line
    (:data:`INTAKE_JOURNAL_SCHEMA`): ``admit`` lines carry the full job
    document and are flushed + ``fsync``'d before :meth:`admit`
    returns — the caller only sends its 202 after that — and ``retire``
    lines close them.  When the last live entry retires the file is
    truncated to zero, so the journal's steady-state size is the
    in-flight window, not the service's lifetime.

    Loading an existing file (router cold start) tolerates a torn final
    line: a line that does not parse was never fully written, which
    means its ``admit`` never produced a 202 — dropping it loses
    nothing a client was promised.

    Thread-safe: the supervisor runs admits on an executor thread (the
    fsync must not stall the event loop under submission load) while
    retires run on the loop thread, so every mutation and every read of
    the live set takes the internal lock.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.admits = 0
        self.retires = 0
        self.truncations = 0
        self.torn_lines = 0
        self._seq = 0
        self._live: Dict[str, Dict[str, Any]] = {}
        self._fh: Optional[Any] = None
        self._lock = threading.Lock()
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._recover()

    def _recover(self) -> None:
        """Rebuild the live set from an existing journal file."""
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path) as fh:
                lines = fh.readlines()
        except OSError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                self.torn_lines += 1
                continue
            if not isinstance(record, dict):
                self.torn_lines += 1
                continue
            self._seq = max(self._seq, int(record.get("seq", 0)) + 1)
            op = record.get("op")
            if op == "admit" and isinstance(record.get("job"), dict):
                job = record["job"]
                if isinstance(job.get("id"), str):
                    self._live[job["id"]] = job
            elif op == "retire" and isinstance(record.get("job_id"), str):
                self._live.pop(record["job_id"], None)

    def _sink(self):
        if self._fh is None:
            self._fh = open(self.path, "a")
        return self._fh

    def _append(self, op: str, docs: Sequence[Dict[str, Any]]) -> None:
        """Write one ``op`` line per field dict, then flush and fsync once."""
        fh = self._sink()
        for doc in docs:
            record = {
                "schema": INTAKE_JOURNAL_SCHEMA, "op": op, "seq": self._seq,
                "ts": time.time(), **doc,
            }
            self._seq += 1
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())

    def admit(self, jobs: Sequence[Dict[str, Any]]) -> None:
        """Durably record one accepted submission's jobs.

        Each job must carry at least ``id`` and ``spec`` (the wire-format
        spec document).  Every record is on disk — fsync'd — when this
        returns, which is the precondition for sending the 202.  If it
        raises, none of the jobs is live and the file is cut back to
        where the submission began, so no later cold start replays part
        of a submission that was refused.
        """
        with self._lock:
            fh = self._sink()
            size = os.fstat(fh.fileno()).st_size
            try:
                self._append("admit", [{"job": job} for job in jobs])
            except OSError:
                # Lines may still sit in the write buffer, and closing
                # flushes them: close first, then cut the file back.
                self._fh = None
                try:
                    fh.close()
                except OSError:
                    pass
                os.truncate(self.path, size)
                raise
            for job in jobs:
                self._live[job["id"]] = job
            self.admits += len(jobs)

    def retire(self, job_id: str) -> bool:
        """Close one admitted entry; truncate when none remain live."""
        with self._lock:
            if job_id not in self._live:
                return False
            self._append("retire", [{"job_id": job_id}])
            del self._live[job_id]
            self.retires += 1
            if not self._live:
                fh = self._sink()
                fh.seek(0)
                fh.truncate()
                fh.flush()
                os.fsync(fh.fileno())
                self.truncations += 1
                self._seq = 0
            return True

    @property
    def live_count(self) -> int:
        return len(self._live)

    def live_jobs(self) -> List[Dict[str, Any]]:
        """Unretired job documents, in admission order."""
        with self._lock:
            return list(self._live.values())

    def counters(self) -> Dict[str, Any]:
        """Journal health counters for /metrics and the oplog."""
        with self._lock:
            return {
                "path": self.path,
                "live": self.live_count,
                "admits": self.admits,
                "retires": self.retires,
                "truncations": self.truncations,
                "torn_lines": self.torn_lines,
            }

    def close(self) -> None:
        """Close the append handle (the file itself is kept)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


# -- consistent-hash ring ----------------------------------------------------


class HashRing:
    """Consistent hashing of job keys onto shard indices.

    ``vnodes`` virtual nodes per shard smooth the distribution; a key's
    owner is the first virtual node clockwise from the key's hash whose
    shard is in the allowed set, so removing a dead shard only moves
    *its* keys — every other key keeps its (cache-warm) owner.
    """

    def __init__(self, shard_ids: Sequence[int], vnodes: int = 64) -> None:
        if not shard_ids:
            raise ValueError("ring needs at least one shard")
        self.shard_ids = list(shard_ids)
        self.vnodes = vnodes
        self._ring: List[Tuple[int, int]] = []
        for shard in self.shard_ids:
            for vnode in range(vnodes):
                point = self._hash(f"shard-{shard}#{vnode}")
                self._ring.append((point, shard))
        self._ring.sort()

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha256(value.encode()).digest()[:8], "big"
        )

    def assign(
        self, key: str, allowed: Optional[Set[int]] = None
    ) -> Optional[int]:
        """The shard owning ``key`` among ``allowed`` (None = all)."""
        candidates = (
            set(self.shard_ids) if allowed is None else allowed
        )
        if not candidates:
            return None
        point = self._hash(key)
        start = 0
        lo, hi = 0, len(self._ring)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._ring[mid][0] < point:
                lo = mid + 1
            else:
                hi = mid
        start = lo
        for offset in range(len(self._ring)):
            _, shard = self._ring[(start + offset) % len(self._ring)]
            if shard in candidates:
                return shard
        return None


# -- shard + job state -------------------------------------------------------


@dataclass
class FleetJob:
    """Lifecycle of one fleet-accepted job.

    ``queued`` (journaled, awaiting dispatch) → ``dispatched`` (accepted
    by a shard, remote id known) → ``done``/``failed``.  A shard death
    resets ``dispatched`` jobs back to ``queued`` (the journal entry is
    still live) and may reassign ``shard``; so does a shard that no
    longer knows the remote id.
    """

    id: str
    spec: JobSpec
    shard: int
    trace_id: Optional[str] = None
    status: str = "queued"
    remote_id: Optional[str] = None
    submitted_at: float = 0.0
    finished_at: Optional[float] = None
    #: Monotonic twins of the wall-clock stamps above: the ``*_at``
    #: fields are journal/display values, while ``duration_ms`` (and any
    #: other elapsed-time math) derives from these so an NTP step cannot
    #: corrupt it.
    submitted_mono: float = 0.0
    finished_mono: Optional[float] = None
    #: When the shard's 202 for the latest dispatch landed (monotonic).
    dispatched_mono: Optional[float] = None
    result: Optional[dict] = None
    error: Optional[str] = None
    digest: Optional[str] = None
    attempts: int = 0
    failovers: int = 0

    def to_dict(self, include_result: bool = True) -> Dict[str, Any]:
        """The job record served by ``GET /jobs/<id>``."""
        doc: Dict[str, Any] = {
            "id": self.id,
            "status": self.status,
            "spec": self.spec.to_dict(),
            "spec_key": self.spec.spec_key(),
            "shard": self.shard,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "digest": self.digest,
            "error": self.error,
            "trace_id": self.trace_id,
            "attempts": self.attempts,
            "failovers": self.failovers,
        }
        if include_result:
            doc["result"] = self.result
        return doc


@dataclass
class ShardState:
    """Everything the supervisor knows about one shard."""

    index: int
    port: int = 0
    proc: Optional[subprocess.Popen] = None
    state: str = "starting"  # starting | up | down | backoff
    restarts: int = 0
    consecutive_restarts: int = 0
    #: Monotonic time of the last successful health probe; ``None``
    #: means "never healthy" — distinct from a legitimate monotonic
    #: reading of ``0.0``, so never test this by truthiness.
    last_healthy: Optional[float] = None
    up_since: float = 0.0
    #: Monotonic time the shard was declared down; ``None`` while it is
    #: not down, never tested by truthiness for the same reason.
    down_since: Optional[float] = None
    routed: int = 0
    completed: int = 0
    log_path: str = ""
    restart_task: Optional["asyncio.Task"] = None
    #: The record of each job dispatched here, by its remote id.
    remote: Dict[str, "FleetJob"] = field(default_factory=dict)
    #: Watch-stream lines that arrived before their job's 202.
    early: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: The open watch stream, if any.
    watch: Optional[_WatchStream] = None
    #: Held while a ``POST /jobs`` is in flight and while the watch
    #: stream opens, so the two never overlap.
    posting: asyncio.Lock = field(default_factory=asyncio.Lock)

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def proc_alive(self) -> bool:
        """True while the shard subprocess exists and has not exited."""
        return self.proc is not None and self.proc.poll() is None


# -- the supervisor ----------------------------------------------------------


class ShardSupervisor:
    """Spawns, routes to, health-checks, and heals a shard fleet.

    All public methods must be called from the event loop thread (the
    HTTP handlers, dispatchers and the health monitor share one loop).
    Shards are real ``cohort serve`` subprocesses sharing one cache
    directory; the supervisor is the only writer of the intake journal,
    ``<fleet_dir>/intake.journal.jsonl``.
    """

    #: Names this backend in the ``cohort <command>:`` lines that
    #: :func:`repro.serve.server.run_server` prints and in the ``label``
    #: of its ``/metrics`` documents; ``exit_event`` is the oplog event
    #: it logs once the router's front-end has closed.
    command = "fleet"
    exit_event = "fleet_exit"
    #: The hint of every 429/503 and the wait after a shard refuses one.
    retry_after = RETRY_AFTER

    def __init__(
        self,
        *,
        shards: int = 2,
        host: str = "127.0.0.1",
        fleet_dir: str = ".cohort_fleet",
        cache_dir: Optional[str] = None,
        shard_jobs: int = 1,
        max_batch: int = 8,
        shard_queue_limit: int = 64,
        job_timeout: Optional[float] = None,
        cache_budget_bytes: int = 0,
        admission_limit: int = 256,
        heartbeat_deadline: float = 3.0,
        oplog: Optional[OpLogger] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if admission_limit < 1:
            raise ValueError("admission_limit must be >= 1")
        if heartbeat_deadline <= 0:
            raise ValueError("heartbeat_deadline must be > 0")
        self.host = host
        self.fleet_dir = fleet_dir
        self.cache_dir = (
            cache_dir
            if cache_dir is not None
            else os.path.join(fleet_dir, "cache")
        )
        self.shard_jobs = shard_jobs
        self.max_batch = max_batch
        self.shard_queue_limit = shard_queue_limit
        self.job_timeout = job_timeout
        self.cache_budget_bytes = cache_budget_bytes
        self.admission_limit = admission_limit
        self.heartbeat_deadline = heartbeat_deadline
        # Twelve probes per deadline, each allowed a third of it: a
        # shard is declared down only after several missed probes.
        self.health_interval = heartbeat_deadline / 12
        self.heartbeat_timeout = heartbeat_deadline / 3
        self.oplog = oplog if oplog is not None else OpLogger(
            component="fleet"
        )
        self.journal = WriteAheadJournal(
            os.path.join(self.fleet_dir, "intake.journal.jsonl")
        )
        self.shards = [
            ShardState(
                index=index,
                log_path=os.path.join(self.fleet_dir, f"shard-{index}.log"),
            )
            for index in range(shards)
        ]
        self.ring = HashRing([s.index for s in self.shards])
        self._jobs: Dict[str, FleetJob] = {}
        self._wakeups: Dict[int, asyncio.Event] = {}
        self._tasks: List[asyncio.Task] = []
        self._draining = False
        self._started_at = time.time()
        self._started_mono = _clock.now()
        # Admission accounting.  ``_unfinished`` holds the jobs in
        # "queued"/"dispatched" status, in admission order (the
        # forwarding loops find their shard's work there);
        # ``_reserved`` counts admission slots held by in-flight
        # ``submit`` calls that have passed the limit check but not yet
        # registered their records (journal fsyncs happen off-loop, so
        # submit yields between check and append).  The limit check
        # reads both, making check-and-reserve atomic.
        self._unfinished: Dict[str, FleetJob] = {}
        self._reserved = 0
        # Fleet-level counters surfaced through /metrics.
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_rejected = 0
        self.failovers = 0
        self.replayed_jobs = 0
        self.restarts_total = 0
        self.recovery_seconds: List[float] = []
        #: ``(host, port)`` of the router's HTTP front-end once listening.
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def shards_up(self) -> int:
        return sum(1 for s in self.shards if s.state == "up")

    def _drained(self) -> bool:
        """Draining with nothing pending: every supervisor loop ends.

        A submission whose journal write is in flight (``_reserved``)
        is pending too: it passed the draining check, so it gets its
        202 and must run before the fleet stops.
        """
        return self._draining and not (self._unfinished or self._reserved)

    async def start(self) -> None:
        """Cold-start: replay the journal, spawn shards, start the loops."""
        self._replay_cold_start()
        self._wakeups = {s.index: asyncio.Event() for s in self.shards}
        self.oplog.emit(
            "fleet_start", shards=len(self.shards),
            cache_dir=self.cache_dir, fleet_dir=self.fleet_dir,
        )
        await asyncio.gather(
            *(self._start_shard(shard) for shard in self.shards)
        )
        loop = asyncio.get_running_loop()
        for shard in self.shards:
            self._tasks.append(loop.create_task(self._dispatch_loop(shard)))
            self._tasks.append(loop.create_task(self._collect_loop(shard)))
        self._tasks.append(loop.create_task(self._health_loop()))

    def _replay_cold_start(self) -> None:
        """Re-register the accepted-but-unfinished jobs of the journal.

        A previous router crash (or hard kill) leaves live entries
        behind; every one of them was 202-acknowledged, so each becomes
        a queued :class:`FleetJob` again — same id, same trace context —
        on its ring owner, as a fresh admission would.  An entry whose
        spec no longer builds can never run, so it is retired.
        """
        # Fold in the per-shard journals of routers that kept one per
        # shard.  A crash between the admit and the remove is harmless:
        # the live set is keyed by job id.
        pattern = os.path.join(self.fleet_dir, "shard-*.journal.jsonl")
        for path in sorted(glob.glob(pattern)):
            live = WriteAheadJournal(path).live_jobs()
            if live:
                self.journal.admit(live)
            os.remove(path)
        for doc in self.journal.live_jobs():
            try:
                spec = JobSpec.from_dict(doc.get("spec"))
            except JobSpecError as exc:
                self.oplog.emit(
                    "journal_skip", job_id=doc["id"], reason=str(exc),
                )
                self.journal.retire(doc["id"])
                continue
            record = FleetJob(
                id=doc["id"],
                spec=spec,
                shard=self._route_key(spec.spec_key()),
                trace_id=doc.get("trace_id"),
                submitted_at=doc.get("submitted_at", time.time()),
                submitted_mono=_clock.now(),
            )
            self._jobs[record.id] = record
            self._unfinished[record.id] = record
            self.replayed_jobs += 1
            self.oplog.emit(
                "journal_replay", shard=record.shard, job_id=record.id,
                trace_id=record.trace_id, phase="cold_start",
            )

    async def drain(self) -> None:
        """Refuse new work, finish accepted jobs, stop shards cleanly."""
        self._draining = True
        self.oplog.emit("fleet_drain", pending=len(self._unfinished))
        self._wake_all()
        while not self._drained():
            await _clock.sleep(0.02)
        # Every loop ends by itself once drained; wait, never cancel: on
        # Python 3.11 the asyncio.wait_for in _http_json can lose a
        # cancel that lands as its request completes.  A collector ends
        # when its stream does.
        self._wake_all()
        for shard in self.shards:
            self._end_watch(shard)
        await asyncio.gather(
            *self._tasks,
            *(s.restart_task for s in self.shards if s.restart_task),
            return_exceptions=True,
        )
        self._tasks = []
        await asyncio.gather(
            *(self._stop_shard(shard) for shard in self.shards)
        )
        self.journal.close()
        self.oplog.emit("fleet_drained")

    async def _stop_shard(self, shard: ShardState) -> None:
        if shard.proc is None:
            return
        if shard.proc.poll() is None:
            shard.proc.terminate()
            try:
                await asyncio.wait_for(
                    asyncio.get_running_loop().run_in_executor(
                        None, shard.proc.wait
                    ),
                    timeout=15.0,
                )
            except asyncio.TimeoutError:
                shard.proc.kill()
                await asyncio.get_running_loop().run_in_executor(
                    None, shard.proc.wait
                )
        shard.state = "down"

    # -- shard process management --------------------------------------------

    def _spawn_command(self, shard: ShardState) -> List[str]:
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", self.host,
            "--port", str(shard.port),
            "--jobs", str(self.shard_jobs),
            "--max-batch", str(self.max_batch),
            "--queue-limit", str(self.shard_queue_limit),
            "--cache-dir", self.cache_dir,
            "--oplog",
            os.path.join(self.fleet_dir, f"shard-{shard.index}.oplog.jsonl"),
        ]
        if self.cache_budget_bytes:
            cmd += ["--cache-budget", str(self.cache_budget_bytes)]
        if self.job_timeout:
            cmd += ["--job-timeout", str(self.job_timeout)]
        return cmd

    def _spawn(self, shard: ShardState) -> None:
        shard.port = free_port(self.host)
        env = dict(os.environ)
        src_dir = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        src_root = os.path.dirname(src_dir)  # .../src
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing
            else src_root + os.pathsep + existing
        )
        log = open(shard.log_path, "ab")
        try:
            shard.proc = subprocess.Popen(
                self._spawn_command(shard),
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                start_new_session=True,
            )
        finally:
            log.close()
        self.oplog.emit(
            "shard_spawn", shard=shard.index, port=shard.port,
            pid=shard.proc.pid, restarts=shard.restarts,
        )

    async def _start_shard(self, shard: ShardState) -> None:
        """Spawn one shard and wait until it answers health checks."""
        shard.state = "starting"
        self._spawn(shard)
        deadline = _clock.now() + SPAWN_TIMEOUT
        while _clock.now() < deadline:
            if self._drained():
                return  # drain stops the half-booted child
            if not shard.proc_alive():
                # The child died before listening (port race, crash on
                # boot): respawn on a fresh port and keep waiting.
                await _clock.sleep(0.2)
                if not shard.proc_alive():
                    self.oplog.emit(
                        "shard_boot_failed", shard=shard.index,
                        returncode=shard.proc.returncode
                        if shard.proc else None,
                    )
                    self._spawn(shard)
                    continue
            try:
                status, doc = await _http_json(
                    self.host, shard.port, "GET", "/healthz",
                    timeout=self.heartbeat_timeout,
                )
            except ShardUnreachableError:
                await _clock.sleep(0.1)
                continue
            if status == 200 and isinstance(doc, dict):
                now = _clock.now()
                shard.state = "up"
                shard.last_healthy = now
                shard.up_since = now
                if shard.down_since is not None:
                    recovered = now - shard.down_since
                    self.recovery_seconds.append(recovered)
                    shard.down_since = None
                    self.oplog.emit(
                        "shard_up", shard=shard.index, port=shard.port,
                        pid=shard.pid, recovery_s=round(recovered, 3),
                    )
                else:
                    self.oplog.emit(
                        "shard_up", shard=shard.index, port=shard.port,
                        pid=shard.pid,
                    )
                self._wakeups[shard.index].set()
                return
            await _clock.sleep(0.1)
        if shard.proc is not None and shard.proc.poll() is None:
            # A half-booted child must not outlive the attempt, or the
            # next respawn would leak a second process on the machine.
            try:
                shard.proc.kill()
            except OSError:
                pass
        raise RuntimeError(
            f"shard {shard.index} did not become healthy within "
            f"{SPAWN_TIMEOUT}s (see {shard.log_path})"
        )

    def _on_shard_down(self, shard: ShardState, reason: str) -> None:
        """Fault path: requeue the shard's unfinished jobs, fail over."""
        if shard.state == "down" or shard.state == "backoff":
            return
        shard.state = "down"
        shard.down_since = _clock.now()
        self.oplog.emit(
            "shard_down", shard=shard.index, reason=reason, pid=shard.pid,
            restarts=shard.restarts,
        )
        if shard.proc is not None and shard.proc.poll() is None:
            # A hung (e.g. SIGSTOP'd) process must die before a healthy
            # replacement can take its place.
            try:
                shard.proc.kill()
            except OSError:
                pass
        # The stream's lines in flight land nothing now.
        self._end_watch(shard)
        shard.remote.clear()
        shard.early.clear()
        # Requeue every unfinished job the shard owns, the ones that
        # failed over to it included.  A job admitted here that failed
        # over elsewhere is owned, and in flight, there.
        alive = {
            s.index
            for s in self.shards
            if s.index != shard.index and s.state == "up"
        }
        requeued = 0
        for record in self._unfinished.values():
            if record.shard != shard.index:
                continue
            record.status = "queued"
            record.remote_id = None
            requeued += 1
            target = shard.index
            if alive:
                assigned = self.ring.assign(record.spec.spec_key(), alive)
                if assigned is not None:
                    target = assigned
            if target != record.shard:
                record.failovers += 1
                self.failovers += 1
                self.oplog.emit(
                    "failover", job_id=record.id, trace_id=record.trace_id,
                    from_shard=record.shard, to_shard=target,
                )
                record.shard = target
            self.replayed_jobs += 1
            self.oplog.emit(
                "journal_replay", shard=shard.index, job_id=record.id,
                trace_id=record.trace_id, phase="shard_down",
                to_shard=record.shard,
            )
        if requeued:
            self._wake_all()

    async def _restart_shard(self, shard: ShardState) -> None:
        """Backoff, respawn, and wait healthy (capped exponential)."""
        shard.state = "backoff"
        shard.consecutive_restarts += 1
        backoff = min(
            RESTART_BACKOFF_BASE * 2 ** (shard.consecutive_restarts - 1),
            RESTART_BACKOFF_MAX,
        )
        self.oplog.emit(
            "shard_restart", shard=shard.index,
            attempt=shard.consecutive_restarts, backoff_s=round(backoff, 3),
        )
        await _clock.sleep(backoff)
        if self._drained():
            return
        shard.restarts += 1
        self.restarts_total += 1
        await self._start_shard(shard)

    # -- health monitoring ---------------------------------------------------

    async def _health_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._drained():
            for shard in self.shards:
                if shard.state == "up":
                    await self._probe(shard)
                elif shard.state == "down" and (
                    shard.restart_task is None
                    or shard.restart_task.done()
                ):
                    # One guarded task per shard — never two racing
                    # restarts of the same shard, and a slow boot never
                    # blocks probing (or restarting) the others.
                    shard.restart_task = loop.create_task(
                        self._restart_guarded(shard)
                    )
            await _clock.sleep(self.health_interval)

    async def _restart_guarded(self, shard: ShardState) -> None:
        try:
            await self._restart_shard(shard)
        except RuntimeError:
            # Spawn window exhausted; next health tick tries again.
            shard.state = "down"

    async def _probe(self, shard: ShardState) -> None:
        if not shard.proc_alive():
            self._on_shard_down(shard, "process exited")
            return
        try:
            status, doc = await _http_json(
                self.host, shard.port, "GET", "/healthz",
                timeout=self.heartbeat_timeout,
            )
            healthy = status == 200
        except ShardUnreachableError:
            healthy = False
        now = _clock.now()
        if healthy:
            shard.last_healthy = now
            if (
                shard.consecutive_restarts
                and now - shard.up_since >= STABILITY_WINDOW
            ):
                # Stable long enough: a future crash starts the backoff
                # ladder from the bottom again (flap detection window).
                shard.consecutive_restarts = 0
            return
        if (
            shard.last_healthy is None
            or now - shard.last_healthy >= self.heartbeat_deadline
        ):
            self._on_shard_down(shard, "heartbeat deadline missed")

    # -- submission / routing ------------------------------------------------

    def _route_key(self, key: str) -> int:
        """Pick the owning shard for a job key.

        Shards that are up are preferred; when none are (everything
        mid-restart) the full ring still assigns an owner — the job
        waits, journaled, for the shard's return.
        """
        up = {s.index for s in self.shards if s.state == "up"}
        target = self.ring.assign(key, up or None)
        assert target is not None
        return target

    async def submit(
        self, specs: Sequence[JobSpec], trace_id: Optional[str] = None
    ) -> List[FleetJob]:
        """Admit ``specs`` as one all-or-nothing submission.

        The submission is journaled (fsync'd) before this returns; the
        HTTP layer's 202 therefore only ever describes durable
        admissions.  The fsync runs on an executor thread so a slow
        disk never stalls the event loop — which means this coroutine
        yields between the admission-limit check and the record
        registrations.  The limit check is therefore check-AND-reserve:
        the whole submission's slots are claimed under ``_reserved``
        before the await, so two concurrent oversize submissions can
        never both pass the check.  If the journal write raises, no job
        of the submission is registered.
        """
        if self._draining:
            self.oplog.emit(
                "reject", trace_id=trace_id, reason="draining",
                jobs=len(specs),
            )
            raise DrainingError("fleet is draining; not accepting jobs")
        if not specs:
            raise JobSpecError("submission contains no jobs")
        pending = len(self._unfinished) + self._reserved
        if pending + len(specs) > self.admission_limit:
            self.jobs_rejected += len(specs)
            self.oplog.emit(
                "reject", trace_id=trace_id, reason="queue_full",
                jobs=len(specs), pending=pending,
                retry_after=self.retry_after,
            )
            raise QueueFullError(
                f"fleet admission limit reached ({pending}/"
                f"{self.admission_limit} pending); retry after "
                f"{self.retry_after}s",
                retry_after=self.retry_after,
            )
        now = time.time()
        submitted_mono = _clock.now()
        docs = [
            {
                "id": uuid.uuid4().hex[:12],
                "spec": spec.to_dict(),
                "trace_id": trace_id,
                "submitted_at": now,
            }
            for spec in specs
        ]
        self._reserved += len(specs)
        try:
            await asyncio.get_running_loop().run_in_executor(
                None, self.journal.admit, docs
            )
        finally:
            self._reserved -= len(specs)
        # Route after the await: a shard may have gone down during it.
        records = []
        for doc, spec in zip(docs, specs):
            key = spec.spec_key()
            record = FleetJob(
                id=doc["id"],
                spec=spec,
                shard=self._route_key(key),
                trace_id=trace_id,
                submitted_at=now,
                submitted_mono=submitted_mono,
            )
            self._jobs[record.id] = record
            self._unfinished[record.id] = record
            self.shards[record.shard].routed += 1
            records.append(record)
            self.oplog.emit(
                "admit", trace_id=trace_id, job_id=record.id,
                shard=record.shard, spec_key=key,
            )
        self.jobs_submitted += len(records)
        self._wake_all()
        return records

    def get(self, job_id: str) -> Optional[FleetJob]:
        """Look up a job by router-assigned id (``None`` if unknown)."""
        return self._jobs.get(job_id)

    def _wake_all(self) -> None:
        for event in self._wakeups.values():
            event.set()

    # -- dispatch and collection ---------------------------------------------

    def _owned(self, shard: ShardState, status: str) -> List[FleetJob]:
        """The shard's unfinished jobs in ``status``, in admission order."""
        return [
            r for r in self._unfinished.values()
            if r.shard == shard.index and r.status == status
        ]

    async def _dispatch_loop(self, shard: ShardState) -> None:
        """Post this shard's queued jobs, one ``POST /jobs`` per trace id.

        At most ``shard_queue_limit`` jobs are left uncollected on the
        shard, so the router never provokes a 429 from it.
        """
        wakeup = self._wakeups[shard.index]
        while not self._drained():
            room = self.shard_queue_limit - len(shard.remote)
            batch = self._owned(shard, "queued")[:max(room, 0)]
            if shard.state == "up" and batch:
                trace_id = batch[0].trace_id
                await self._post(
                    shard, [r for r in batch if r.trace_id == trace_id]
                )
                continue
            # Every change that can make work dispatchable here sets
            # the event: submit, a landing that requeues a job or frees
            # room in a full window, _on_shard_down, the shard coming
            # up, and drain.
            wakeup.clear()
            await wakeup.wait()

    async def _post(self, shard: ShardState, records: List[FleetJob]) -> None:
        """One ``POST /jobs`` of same-trace ``records``; backs off on refusal."""
        trace_id = records[0].trace_id
        # The collector opens its stream under the same lock, so each
        # 202 lands either before the stream's ids are taken or after
        # the shard began streaming to the router.
        async with shard.posting:
            try:
                status, doc = await _http_json(
                    self.host, shard.port, "POST", "/jobs",
                    doc={"jobs": [r.spec.to_dict() for r in records]},
                    timeout=REQUEST_TIMEOUT,
                    headers={"X-Trace-Id": trace_id} if trace_id else None,
                )
            except ShardUnreachableError:
                # The health loop decides whether the shard is down;
                # until then the records stay queued here.
                wait = self.health_interval
            else:
                wait = self.retry_after if status in (429, 503) else 0.0
                if not wait:
                    self._accept(shard, records, status, doc)
        if wait:
            await _clock.sleep(wait)

    def _accept(
        self, shard: ShardState, records: List[FleetJob], status: int,
        doc: Any,
    ) -> None:
        """Apply a ``POST /jobs`` answer: index the accepted records."""
        accepted = doc.get("jobs") if isinstance(doc, dict) else None
        ok = status == 202 and isinstance(accepted, list) and (
            len(accepted) == len(records)
        )
        detail = doc.get("error") if isinstance(doc, dict) else None
        now = _clock.now()
        for i, record in enumerate(records):
            # Failover may have moved the record while the request was
            # in flight; then it is no longer this shard's to update.
            if record.status != "queued" or record.shard != shard.index:
                continue
            if not ok:
                self._finish(
                    record,
                    error=f"shard {shard.index} refused job "
                          f"({status}): {detail or 'no detail'}",
                )
                continue
            record.remote_id = accepted[i]["id"]
            record.status = "dispatched"
            record.dispatched_mono = now
            record.attempts += 1
            shard.remote[record.remote_id] = record
            self.oplog.emit(
                "dispatch", job_id=record.id, trace_id=record.trace_id,
                shard=shard.index, remote_id=record.remote_id,
            )
            # The two connections are not ordered: the job's line may
            # have come in on the stream before this 202.
            line = shard.early.pop(record.remote_id, None)
            if line is not None:
                self._land(shard, line)

    async def _collect_loop(self, shard: ShardState) -> None:
        """Keep one watch stream open to this shard while it is up.

        A stream that ends or fails while the shard is still up is
        reopened one health interval later: only the health loop
        declares the shard down, and a dropped stream fails no job.
        """
        while not self._drained():
            if shard.state == "up":
                await self._watch_shard(shard)
                if self._drained():
                    return
            await _clock.sleep(self.health_interval)

    async def _watch_shard(self, shard: ShardState) -> None:
        """Open a watch stream to the shard; land its lines until it ends."""
        async with shard.posting:
            # No POST /jobs is in flight, and none starts before the
            # shard answers: each job dispatched there is among these
            # ids or is accepted once the shard streams to the router.
            # So a line still kept waits for a 202 that never came.
            shard.early.clear()
            try:
                stream = await _watch(
                    self.host, shard.port, list(shard.remote)
                )
            except ShardUnreachableError:
                return
        if shard.state != "up" or self._drained():
            stream.close()
            return
        shard.watch = stream
        try:
            async for doc in stream:
                if shard.watch is not stream:
                    break  # the shard went down, or the router drained
                self._land(shard, doc)
        except ShardUnreachableError:
            pass
        finally:
            stream.close()
            if shard.watch is stream:
                shard.watch = None

    def _end_watch(self, shard: ShardState) -> None:
        """Close the shard's watch stream; its collector stops reading."""
        if shard.watch is not None:
            shard.watch.close()
            shard.watch = None

    def _land(self, shard: ShardState, doc: Dict[str, Any]) -> None:
        """Apply one line of the shard's watch stream."""
        remote_id = doc.get("id")
        if not isinstance(remote_id, str):
            return
        record = shard.remote.get(remote_id)
        if record is None:
            shard.early[remote_id] = doc  # _accept lands it with its 202
            return
        if (
            record.status != "dispatched"
            or record.shard != shard.index
            or record.remote_id != remote_id
        ):
            return  # failed over or requeued meanwhile
        status = doc.get("status")
        if status not in ("done", "failed", "unknown"):
            return
        # Only a requeue, or room freed in a full window, opens work
        # for the dispatch loop.
        wake = status == "unknown" or (
            len(shard.remote) >= self.shard_queue_limit
        )
        del shard.remote[remote_id]
        if status == "unknown":
            # The shard no longer knows the id: send the job again.
            record.status = "queued"
            record.remote_id = None
        elif status == "done":
            record.digest = doc.get("digest")
            self._finish(record, result=doc.get("result"))
            shard.completed += 1
        else:
            self._finish(
                record, error=doc.get("error") or "shard execution failed",
            )
        if wake:
            self._wakeups[shard.index].set()

    def _finish(
        self,
        record: FleetJob,
        result: Optional[dict] = None,
        error: Optional[str] = None,
    ) -> None:
        self._unfinished.pop(record.id, None)
        record.finished_at = time.time()
        record.finished_mono = _clock.now()
        if error is None:
            record.status = "done"
            record.result = result
            self.jobs_completed += 1
        else:
            record.status = "failed"
            record.error = error
            self.jobs_failed += 1
        try:
            self.journal.retire(record.id)
        except OSError as exc:
            # The job is finished all the same.  Its entry stays live,
            # so the next cold start re-runs it: safe, since results
            # are deterministic and cached.
            self.oplog.emit(
                "journal_error", job_id=record.id,
                trace_id=record.trace_id, op="retire", error=str(exc),
            )
        # Monotonic hops: immune to wall-clock (NTP) steps, so no clamp
        # is needed — a negative value here would be a real bug.  A job
        # never dispatched spent all its time in the router's queue.
        dispatched = (
            record.finished_mono if record.dispatched_mono is None
            else record.dispatched_mono
        )
        queue_ms = (dispatched - record.submitted_mono) * 1000
        remote_ms = (record.finished_mono - dispatched) * 1000
        self.oplog.emit(
            "retire", job_id=record.id, trace_id=record.trace_id,
            status=record.status, shard=record.shard,
            duration_ms=queue_ms + remote_ms, queue_ms=queue_ms,
            remote_ms=remote_ms,
        )

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """The fleet ``/metrics`` snapshot (no shard round-trips)."""
        journal = self.journal.counters()
        shards_doc = []
        now = _clock.now()
        for shard in self.shards:
            shards_doc.append(
                {
                    "index": shard.index,
                    "port": shard.port,
                    "pid": shard.pid,
                    "state": shard.state,
                    "restarts": shard.restarts,
                    "consecutive_restarts": shard.consecutive_restarts,
                    "routed": shard.routed,
                    "completed": shard.completed,
                    "queue_depth": len(self._owned(shard, "queued")),
                    # Explicit None test: a monotonic reading of 0.0 is
                    # a legitimate "healthy right now" timestamp.
                    "last_healthy_age_s": (
                        round(now - shard.last_healthy, 3)
                        if shard.last_healthy is not None else None
                    ),
                    "serve": None,
                }
            )
        recoveries = len(self.recovery_seconds)
        return {
            "schema": FLEET_METRICS_SCHEMA,
            "label": self.command,
            "uptime_seconds": now - self._started_mono,
            "fleet": {
                "shards_total": len(self.shards),
                "shards_up": self.shards_up,
                "draining": self._draining,
                "admission_pending": len(self._unfinished),
                "admission_limit": self.admission_limit,
                "jobs_submitted": self.jobs_submitted,
                "jobs_completed": self.jobs_completed,
                "jobs_failed": self.jobs_failed,
                "jobs_rejected": self.jobs_rejected,
                "failovers": self.failovers,
                "replayed_jobs": self.replayed_jobs,
                "restarts_total": self.restarts_total,
                "recoveries": recoveries,
                "recovery_seconds_max": (
                    max(self.recovery_seconds) if recoveries else 0.0
                ),
                "recovery_seconds_mean": (
                    sum(self.recovery_seconds) / recoveries
                    if recoveries else 0.0
                ),
                "journal": journal,
                "journal_live": journal["live"],
                "journal_torn_lines": journal["torn_lines"],
                "cache": {
                    "budget_bytes": self.cache_budget_bytes,
                },
            },
            "shards": shards_doc,
        }

    async def scrape(self) -> Dict[str, Any]:
        """The snapshot plus each live shard's own ``/metrics`` document.

        Aggregates the shards' runner cache counters (evictions,
        quarantines, hits/misses, size) under ``fleet.cache`` so the
        hardened cache tier is observable from one scrape; an
        unreachable shard contributes nothing rather than failing the
        endpoint.
        """
        doc = self.metrics()
        totals = {
            "evictions": 0, "evicted_bytes": 0, "quarantined": 0,
            "hits": 0, "misses": 0, "size_bytes": 0,
        }
        for shard, shard_doc in zip(self.shards, doc["shards"]):
            if shard.state != "up":
                continue
            try:
                status, snapshot = await _http_json(
                    self.host, shard.port, "GET", "/metrics",
                    timeout=self.heartbeat_timeout,
                )
            except ShardUnreachableError:
                continue
            if status != 200 or not isinstance(snapshot, dict):
                continue
            shard_doc["serve"] = snapshot
            runner = snapshot.get("runner", {})
            totals["evictions"] += runner.get("cache_evictions", 0)
            totals["evicted_bytes"] += runner.get("cache_evicted_bytes", 0)
            totals["quarantined"] += runner.get("cache_quarantined", 0)
            totals["hits"] += runner.get("cache_hits", 0)
            totals["misses"] += runner.get("cache_misses", 0)
            totals["size_bytes"] = max(
                totals["size_bytes"], runner.get("cache_size_bytes", 0)
            )
        doc["fleet"]["cache"].update(totals)
        return doc

    def healthz(self) -> Dict[str, Any]:
        """The ``GET /healthz`` document.

        ``ok`` only while every shard is up, ``degraded`` while some
        are, ``down`` while none are, ``draining`` once draining; the
        status code is 200 in every case.
        """
        up = self.shards_up
        total = len(self.shards)
        status = (
            "draining" if self.draining
            else "ok" if up == total
            else "degraded" if up else "down"
        )
        return {
            "status": status,
            "shards_up": up,
            "shards_total": total,
            "pending": len(self._unfinished),
        }

    # -- HTTP front-end lifecycle (repro.serve.server.run_server) -----------

    def listening(self, host: str, port: int) -> str:
        """Record the router's address; returns its banner text."""
        self.address = (host, port)
        self.oplog.emit(
            "fleet_listening", host=host, port=port, shards=len(self.shards),
        )
        return f"router on http://{host}:{port} ({len(self.shards)} shards)"


class FleetThread(LoopThread):
    """An in-process fleet router for tests and the chaos soak.

    The supervisor (and its real shard subprocesses) runs on an event
    loop in a daemon thread; the caller talks to the router over real
    HTTP — and can reach ``.supervisor`` directly to find shard PIDs to
    kill.
    """

    start_timeout = 120.0
    stop_timeout = 120.0

    def __init__(
        self, *, host: str = "127.0.0.1", **supervisor_kwargs: Any
    ) -> None:
        super().__init__(host, 0)
        self.supervisor_kwargs = supervisor_kwargs
        self.supervisor: Optional[ShardSupervisor] = None

    def _make_backend(self) -> ShardSupervisor:
        self.supervisor = ShardSupervisor(
            host=self.host, **self.supervisor_kwargs
        )
        return self.supervisor
