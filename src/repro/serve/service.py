"""Job specs, records, and the batching core of ``cohort serve``.

The service turns independent HTTP submissions into
:class:`~repro.runner.SweepRunner` batches:

* a **bounded admission queue** (``queue_limit``) gives explicit
  backpressure — a submission that does not fit is rejected with a
  :data:`RETRY_AFTER` hint instead of being buffered without bound;
* **work-conserving batching**: whenever the runner is free, the queued
  jobs (up to ``max_batch``) run as one batch, so jobs arriving during
  a batch share the next one — amortising process-pool dispatch and
  collapsing duplicates onto the shared result cache — while a job that
  finds the runner idle starts at once;
* batches execute on a thread-pool executor, keeping the event loop
  (and therefore ``/healthz``, ``/metrics`` and status polling)
  responsive while simulations run;
* **completion streams**: :meth:`BatchingService.watch` hands each
  open ``POST /jobs/watch`` stream every job the service finishes, so a
  client (the fleet router) learns of a result without polling;
* **graceful drain**: once draining, new submissions are refused while
  queued and in-flight jobs run to completion, then the streams end.

Everything here is asyncio + stdlib; the HTTP front-end lives in
:mod:`repro.serve.server` and a synchronous client in
:mod:`repro.serve.client`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
import uuid
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import LatencyHistogram
from repro.obs.ops import OpLogger, build_service_trace
from repro.obs.report import SERVE_METRICS_SCHEMA
from repro.params import SimConfig, cohort_config, config_from_dict
from repro.runner import SweepJob, SweepRunner
from repro.sim.protocols import get_protocol
from repro.workloads import benchmark_names, splash_traces

if TYPE_CHECKING:
    from repro.qa import RunManifest

#: Seconds every 429 and 503 tells the client to wait (``Retry-After``),
#: and the fleet router's wait before re-sending to a refusing shard.
RETRY_AFTER = 0.5


class ServeError(Exception):
    """Base class of all serving-layer errors."""


class JobSpecError(ServeError):
    """A submitted job description is invalid."""


class QueueFullError(ServeError):
    """The admission queue cannot take the submission (backpressure)."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DrainingError(ServeError):
    """The service is shutting down and refuses new submissions."""


@dataclass(frozen=True)
class JobSpec:
    """One simulation job as submitted by a client.

    The common shape names a benchmark plus a timer vector and lets the
    server generate the (deterministic) traces; a full ``config`` dict
    (the :func:`repro.params.config_to_dict` shape) may override the
    ``thetas``-derived configuration while traces still come from
    ``benchmark``/``scale``/``seed``.
    """

    benchmark: str
    thetas: Tuple[int, ...]
    scale: float = 0.3
    seed: int = 0
    protocol: Optional[str] = None
    record_latencies: bool = False
    config: Optional[Mapping[str, Any]] = None

    @classmethod
    def from_dict(cls, doc: Any) -> "JobSpec":
        """Validate and build a spec from a submitted JSON object."""
        if not isinstance(doc, dict):
            raise JobSpecError("job spec must be a JSON object")
        benchmark = doc.get("benchmark")
        if benchmark not in benchmark_names():
            raise JobSpecError(
                f"unknown benchmark {benchmark!r}; choose from "
                f"{benchmark_names()}"
            )
        thetas = doc.get("thetas")
        if (
            not isinstance(thetas, (list, tuple))
            or not thetas
            or not all(isinstance(t, int) and not isinstance(t, bool) for t in thetas)
        ):
            raise JobSpecError("thetas must be a non-empty list of integers")
        scale = doc.get("scale", 0.3)
        if (
            isinstance(scale, bool)
            or not isinstance(scale, (int, float))
            or not 0 < scale <= 10
        ):
            raise JobSpecError("scale must be a number in (0, 10]")
        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise JobSpecError("seed must be a non-negative integer")
        protocol = doc.get("protocol")
        if protocol is not None and not isinstance(protocol, str):
            raise JobSpecError("protocol must be a string")
        record_latencies = doc.get("record_latencies", False)
        if not isinstance(record_latencies, bool):
            raise JobSpecError("record_latencies must be a boolean")
        config = doc.get("config")
        if config is not None and not isinstance(config, dict):
            raise JobSpecError("config must be an object")
        unknown = set(doc) - {
            "benchmark", "thetas", "scale", "seed", "protocol",
            "record_latencies", "config",
        }
        if unknown:
            raise JobSpecError(f"unknown job spec fields: {sorted(unknown)}")
        spec = cls(
            benchmark=benchmark,
            thetas=tuple(thetas),
            scale=float(scale),
            seed=seed,
            protocol=protocol,
            record_latencies=record_latencies,
            config=config,
        )
        # Build what the runner will build (all but the traces), so a
        # spec it cannot run is refused here instead of failing the
        # batch it would share with other clients' jobs.
        try:
            get_protocol(spec.sim_config().protocol)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise JobSpecError(f"job spec cannot be run: {exc}") from None
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to the wire format ``from_dict`` accepts back."""
        doc: Dict[str, Any] = {
            "benchmark": self.benchmark,
            "thetas": list(self.thetas),
            "scale": self.scale,
            "seed": self.seed,
            "record_latencies": self.record_latencies,
        }
        if self.protocol is not None:
            doc["protocol"] = self.protocol
        if self.config is not None:
            doc["config"] = dict(self.config)
        return doc

    def spec_key(self) -> str:
        """Cheap content hash of the spec (not the full job digest —
        computed without generating traces, so safe on the event loop)."""
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def sim_config(self) -> SimConfig:
        """The configuration this spec runs (cheap: no traces)."""
        if self.config is not None:
            return config_from_dict(dict(self.config))
        kwargs: Dict[str, Any] = {}
        if self.protocol is not None:
            kwargs["protocol"] = self.protocol
        return cohort_config(list(self.thetas), **kwargs)

    def to_sweep_job(self) -> SweepJob:
        """Materialise the runnable job (generates traces; CPU-bound)."""
        cfg = self.sim_config()
        traces = splash_traces(
            self.benchmark, cfg.num_cores, scale=self.scale, seed=self.seed
        )
        return SweepJob(cfg, tuple(traces), self.record_latencies)


@dataclass
class JobRecord:
    """Lifecycle of one accepted job: queued → running → done/failed."""

    id: str
    spec: JobSpec
    status: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Monotonic twins of the wall-clock stamps above.  The ``*_at``
    #: fields are display/journal values (epoch seconds, serialised in
    #: :meth:`to_dict`); every *duration* — queue wait, end-to-end
    #: ``duration_ms`` — is derived from these instead, so an NTP step
    #: mid-run cannot corrupt percentiles or SLO verdicts.
    submitted_mono: float = 0.0
    started_mono: Optional[float] = None
    finished_mono: Optional[float] = None
    #: The SweepJob content digest, known once the batch materialised.
    digest: Optional[str] = None
    result: Optional[dict] = None
    error: Optional[str] = None
    #: Trace-context id of the submission this job arrived in (one id
    #: per ``POST /jobs``); carried into every oplog event and the
    #: result envelope so a request's lifecycle greps end to end.
    trace_id: Optional[str] = None
    #: When the executed batch returned from the runner (the
    #: execute→respond boundary of the service-lifecycle trace).
    executed_at: Optional[float] = None

    def to_dict(self, include_result: bool = True) -> Dict[str, Any]:
        """Serialise the record; ``include_result=False`` for admission
        responses, where results do not exist yet."""
        doc: Dict[str, Any] = {
            "id": self.id,
            "status": self.status,
            "spec": self.spec.to_dict(),
            "spec_key": self.spec.spec_key(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "digest": self.digest,
            "error": self.error,
            "trace_id": self.trace_id,
        }
        if include_result:
            doc["result"] = self.result
        return doc


class BatchingService:
    """Bounded-queue batching front-end over one ``SweepRunner``.

    All public methods must be called from the event loop thread (the
    HTTP handlers and the batcher share one loop, so queue accounting
    needs no locks); only the batch execution itself leaves the loop,
    via ``run_in_executor``.
    """

    #: Names this backend in the ``cohort <command>:`` lines that
    #: :func:`repro.serve.server.run_server` prints, in the ``label`` of
    #: its ``/metrics`` documents and in its service trace;
    #: ``exit_event`` is the oplog event it logs once the front-end has
    #: closed.
    command = "serve"
    exit_event = "server_exit"
    #: The hint sent with every 429 and 503 (:data:`RETRY_AFTER`).
    retry_after = RETRY_AFTER

    def __init__(
        self,
        runner: SweepRunner,
        *,
        max_batch: int = 8,
        queue_limit: int = 64,
        oplog: Optional[OpLogger] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.runner = runner
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self._queue: List[JobRecord] = []
        self._jobs: Dict[str, JobRecord] = {}
        self._wakeup = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._draining = False
        self._inflight = 0
        #: One queue per open watch stream: every retired record, then
        #: ``None`` once the batcher has stopped.
        self._watchers: List["asyncio.Queue[Optional[JobRecord]]"] = []
        self._started_mono = time.monotonic()
        # Counters surfaced through /metrics.
        self.jobs_submitted = 0
        self.jobs_rejected = 0
        self.jobs_dispatched = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.batches = 0
        self.max_queue_depth = 0
        self._batch_sizes = LatencyHistogram()
        self._queue_wait_ms = LatencyHistogram()
        #: Structured operational log; a sink-less no-op by default, so
        #: every lifecycle site emits unconditionally.
        self.oplog = oplog if oplog is not None else OpLogger()
        # Share the log with the runner (its cache_hit/execute events
        # land in the same file) unless the caller gave it its own.
        if getattr(runner, "oplog", None) is None:
            runner.oplog = self.oplog
        #: Per-request service-lifecycle rows for the Perfetto export
        #: (bounded: oldest rows drop first on very long runs).
        self.trace_rows: List[Dict[str, Any]] = []
        self.trace_rows_limit = 10000
        self.trace_rows_dropped = 0
        #: ``(host, port)`` of the HTTP front-end once it is listening.
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Start the batcher task on the running loop."""
        if self._task is not None:
            raise RuntimeError("service already started")
        self._task = asyncio.get_running_loop().create_task(self._run())

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self) -> None:
        """Refuse new submissions; wait for queued + in-flight jobs."""
        self._draining = True
        self.oplog.emit(
            "drain", queued=len(self._queue), inflight=self._inflight
        )
        self._wakeup.set()
        # The batcher returns once draining with nothing queued.
        if self._task is not None:
            await self._task
            self._task = None
        # Nothing finishes from here on: end every watch stream.
        for queue in self._watchers:
            queue.put_nowait(None)
        self.oplog.emit("drained")

    # -- submission / polling ------------------------------------------------

    def submit(
        self, specs: Sequence[JobSpec], trace_id: Optional[str] = None
    ) -> List[JobRecord]:
        """Admit ``specs`` as one all-or-nothing submission.

        ``trace_id`` is the submission's trace context (the HTTP layer
        mints one per ``POST /jobs`` when the client did not); it is
        stamped on every admitted record and oplog event.
        """
        if self._draining:
            self.oplog.emit(
                "reject", trace_id=trace_id, reason="draining",
                jobs=len(specs),
            )
            raise DrainingError("service is draining; not accepting jobs")
        if not specs:
            raise JobSpecError("submission contains no jobs")
        # Check-and-admit is one atomic step: nothing between the limit
        # check and the final append yields to the event loop (no awaits,
        # no blocking I/O beyond the oplog write), so two concurrent
        # submissions can never both pass the check and overshoot
        # ``queue_limit``.  Anything slow enough to need an await must
        # happen before this point.
        if len(self._queue) + len(specs) > self.queue_limit:
            self.jobs_rejected += len(specs)
            self.oplog.emit(
                "reject", trace_id=trace_id, reason="queue_full",
                jobs=len(specs), queue_depth=len(self._queue),
                retry_after=self.retry_after,
            )
            raise QueueFullError(
                f"admission queue full ({len(self._queue)}/"
                f"{self.queue_limit} queued); retry after "
                f"{self.retry_after}s",
                retry_after=self.retry_after,
            )
        now = time.time()
        now_mono = time.monotonic()
        records = []
        for spec in specs:
            record = JobRecord(
                id=uuid.uuid4().hex[:12], spec=spec, submitted_at=now,
                submitted_mono=now_mono, trace_id=trace_id,
            )
            self._jobs[record.id] = record
            self._queue.append(record)
            records.append(record)
            self.oplog.emit(
                "admit", trace_id=trace_id, job_id=record.id,
                spec_key=spec.spec_key(), queue_depth=len(self._queue),
            )
        self.jobs_submitted += len(records)
        self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
        self._wakeup.set()
        return records

    def get(self, job_id: str) -> Optional[JobRecord]:
        """Look up a job record by id (None if unknown)."""
        return self._jobs.get(job_id)

    def watch(
        self, ids: Sequence[str]
    ) -> Tuple[List[Dict[str, Any]], "asyncio.Queue[Optional[JobRecord]]"]:
        """Open one completion stream: ``(first documents, queue)``.

        The first documents answer ``ids``: the full record of each
        finished job, ``{"id": …, "status": "unknown"}`` for each id
        the service does not know, nothing for a job still queued or
        running.  The queue then receives every record the service
        finishes, and ``None`` once its batcher has stopped.  Both are
        taken in one step, so no job falls between them.  Pass the
        queue to :meth:`unwatch` when the stream closes.
        """
        queue: "asyncio.Queue[Optional[JobRecord]]" = asyncio.Queue()
        if self._draining and self._task is None:
            queue.put_nowait(None)  # the batcher has stopped
        else:
            self._watchers.append(queue)
        first = []
        for job_id in ids:
            record = self._jobs.get(job_id)
            if record is None:
                first.append({"id": job_id, "status": "unknown"})
            elif record.status in ("done", "failed"):
                first.append(record.to_dict())
        return first, queue

    def unwatch(self, queue: "asyncio.Queue[Optional[JobRecord]]") -> None:
        """Close a stream :meth:`watch` opened."""
        if queue in self._watchers:
            self._watchers.remove(queue)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- batching ------------------------------------------------------------

    async def _run(self) -> None:
        """Run up to ``max_batch`` queued jobs whenever the runner is
        free; arrivals during a batch form the next one."""
        while True:
            while not self._queue:
                if self._draining:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
            batch = self._queue[:self.max_batch]
            del self._queue[:self.max_batch]
            await self._execute(batch)

    async def _execute(self, batch: List[JobRecord]) -> None:
        self._inflight = len(batch)
        started = time.time()
        started_mono = time.monotonic()
        for record in batch:
            record.status = "running"
            record.started_at = started
            record.started_mono = started_mono
            wait_ms = int((started_mono - record.submitted_mono) * 1000)
            self._queue_wait_ms.add(wait_ms)
            self.oplog.emit(
                "batch", trace_id=record.trace_id, job_id=record.id,
                batch=self.batches, queue_wait_ms=wait_ms,
            )
        self._batch_sizes.add(len(batch))
        self.batches += 1
        self.jobs_dispatched += len(batch)
        loop = asyncio.get_running_loop()
        try:
            outcome = await loop.run_in_executor(
                None, self._run_batch, batch
            )
        except Exception as exc:  # runner failure fails the whole batch
            executed = time.time()
            detail = f"{type(exc).__name__}: {exc}"
            for record in batch:
                record.status = "failed"
                record.error = detail
                record.executed_at = executed
                record.finished_at = time.time()
                record.finished_mono = time.monotonic()
                self._retire(record)
            self.jobs_failed += len(batch)
        else:
            executed = time.time()
            for record, (digest, result) in zip(batch, outcome):
                record.status = "done"
                record.digest = digest
                record.result = result
                record.executed_at = executed
                record.finished_at = time.time()
                record.finished_mono = time.monotonic()
                self._retire(record)
            self.jobs_completed += len(batch)
        finally:
            self._inflight = 0

    def _retire(self, record: JobRecord) -> None:
        """Log one finished job, record its service-lifecycle row and
        hand it to every watch stream."""
        for queue in self._watchers:
            queue.put_nowait(record)
        self.oplog.emit(
            "retire", trace_id=record.trace_id, job_id=record.id,
            status=record.status, digest=record.digest,
            # Monotonic, so a wall-clock (NTP) step mid-job can neither
            # inflate the duration nor push it negative.
            duration_ms=(record.finished_mono - record.submitted_mono)
            * 1000,
        )
        if len(self.trace_rows) >= self.trace_rows_limit:
            self.trace_rows.pop(0)
            self.trace_rows_dropped += 1
        self.trace_rows.append(
            {
                "trace_id": record.trace_id,
                "job_id": record.id,
                "status": record.status,
                "digest": record.digest,
                "submitted_at": record.submitted_at,
                "dispatched_at": record.started_at,
                "executed_at": record.executed_at,
                "finished_at": record.finished_at,
            }
        )

    def service_trace(self) -> Dict[str, Any]:
        """Chrome trace-event doc of all retired requests' lifecycles."""
        return build_service_trace(self.trace_rows, name=self.command)

    def _run_batch(
        self, batch: List[JobRecord]
    ) -> List[Tuple[str, dict]]:
        """Executor-side: materialise, run, pair results with digests.

        Batches execute strictly one at a time (the batcher awaits each
        ``_execute``), so the runner is never touched concurrently.
        The records' trace context rides along so the runner's
        ``cache_hit``/``execute`` oplog events correlate with the
        submission that caused them.
        """
        jobs = [record.spec.to_sweep_job() for record in batch]
        results = self.runner.run(
            jobs,
            op_context=[
                {"trace_id": record.trace_id, "job_id": record.id}
                for record in batch
            ],
        )
        return [(job.digest(), result) for job, result in zip(jobs, results)]

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """A ``/metrics`` snapshot (``repro.obs`` serve_metrics shape)."""
        return {
            "schema": SERVE_METRICS_SCHEMA,
            "label": self.command,
            "uptime_seconds": time.monotonic() - self._started_mono,
            "service": {
                "queue_depth": len(self._queue),
                "queue_limit": self.queue_limit,
                "inflight": self._inflight,
                "draining": self._draining,
                "max_batch": self.max_batch,
                "retry_after": self.retry_after,
                "jobs_submitted": self.jobs_submitted,
                "jobs_rejected": self.jobs_rejected,
                "jobs_dispatched": self.jobs_dispatched,
                "jobs_completed": self.jobs_completed,
                "jobs_failed": self.jobs_failed,
                "batches": self.batches,
                "max_queue_depth": self.max_queue_depth,
                "batch_sizes": self._batch_sizes.to_dict(),
                "batch_size_p95": self._batch_sizes.percentile(0.95),
                "queue_wait_ms": self._queue_wait_ms.to_dict(),
                "queue_wait_ms_p50": self._queue_wait_ms.percentile(0.5),
                "queue_wait_ms_p95": self._queue_wait_ms.percentile(0.95),
            },
            "runner": self.runner.telemetry(),
        }

    async def scrape(self) -> Dict[str, Any]:
        """The ``GET /metrics`` document (:meth:`metrics`)."""
        return self.metrics()

    def healthz(self) -> Dict[str, Any]:
        """The ``GET /healthz`` document: drain state and queue fill."""
        return {
            "status": "draining" if self.draining else "ok",
            "queue_depth": self.queue_depth,
            "queue_limit": self.queue_limit,
        }

    # -- HTTP front-end lifecycle (repro.serve.server.run_server) -----------

    def listening(self, host: str, port: int) -> str:
        """Record the front-end's address; returns its banner text."""
        self.address = (host, port)
        self.oplog.emit("server_listening", host=host, port=port)
        return f"listening on http://{host}:{port}"

    def run_manifest(self, artifact_paths: Sequence[str]) -> "RunManifest":
        """The run manifest ``cohort serve --manifest-out`` writes."""
        from repro.qa import build_manifest

        snapshot = self.metrics()
        svc = snapshot["service"]
        runner = snapshot["runner"]
        return build_manifest(
            "serve", self.command,
            metrics={
                "jobs_submitted": svc["jobs_submitted"],
                "jobs_rejected": svc["jobs_rejected"],
                "jobs_completed": svc["jobs_completed"],
                "jobs_failed": svc["jobs_failed"],
                "batches": svc["batches"],
                "max_queue_depth": svc["max_queue_depth"],
                "runner_cache_hits": runner["cache_hits"],
                "runner_cache_misses": runner["cache_misses"],
                "runner_cache_hit_rate": runner["cache_hit_rate"],
                "runner_jobs_executed": runner["jobs_executed"],
                "oplog_events": self.oplog.events_emitted,
            },
            engine=runner["engine"],
            artifact_paths=list(artifact_paths),
        )
