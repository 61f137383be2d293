"""The JSON-over-HTTP front-end of ``cohort serve`` and ``cohort fleet``.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
third-party framework, one request per connection, JSON in and out.
One :class:`JsonHttpApp` serves the same routes over either backend, a
:class:`~repro.serve.service.BatchingService` (``cohort serve``) or a
:class:`~repro.serve.fleet.ShardSupervisor` (``cohort fleet``):

* ``GET /healthz`` — liveness + drain state (the backend's document),
* ``GET /metrics`` — the backend's snapshot, tagged
  :data:`repro.obs.SERVE_METRICS_SCHEMA` (service queue/batch counters +
  ``SweepRunner.telemetry()``) or :data:`repro.obs.FLEET_METRICS_SCHEMA`;
  ``?format=prometheus`` (or an ``Accept: text/plain`` scrape header)
  selects the Prometheus text exposition of the same counters instead,
* ``POST /jobs`` — submit ``{"jobs": [spec, …]}`` (or one bare spec);
  ``202`` with job ids, ``429`` + ``Retry-After`` on a full queue,
  ``503`` while draining, ``400`` on an invalid spec.  Every
  submission carries a trace id — a valid client ``X-Trace-Id`` is
  honoured, anything else gets a freshly minted one — echoed in the
  response header/body and stamped through the oplog, the runner and
  the job's result envelope,
* ``GET /jobs/<id>`` — poll one job (result embedded when done),
* ``POST /jobs/poll`` — poll many jobs in one round-trip
  (``{"ids": [...], "include_result": bool}``),
* ``POST /jobs/watch`` — ``cohort serve`` only: for ``{"ids": [...]}``
  a 200 whose close-delimited NDJSON body first holds one line per
  given id that is finished (the full record) or unknown, then one
  line per job the service finishes, until it has drained.  The fleet
  router keeps one open to each shard.

:func:`run_server` is the one lifecycle of both commands.
``SIGTERM``/``SIGINT`` trigger a graceful drain: submissions are
refused, queued and in-flight work finishes, final metrics/trace
snapshots are optionally written (atomically), then the server exits 0.
:class:`LoopThread` runs the same lifecycle in-process for tests and
benchmarks.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import os
import signal
import tempfile
import threading
import time
import urllib.parse
from typing import (
    Any, AsyncGenerator, Dict, Iterable, List, Optional, Tuple,
)

from repro.obs.ops import new_trace_id, valid_trace_id
from repro.obs.promexport import prometheus_from_metrics
from repro.runner import SweepRunner
from repro.serve.service import (
    BatchingService,
    DrainingError,
    JobSpec,
    JobSpecError,
    QueueFullError,
)

#: Content-Type of the Prometheus text exposition (version 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest accepted request body (a trace-free job spec is tiny).
MAX_BODY_BYTES = 8 << 20

#: Seconds a client gets to send the request head (request line and
#: headers), and again to send the body; a client that stalls gets a
#: 400 instead of holding the connection open.
REQUEST_TIMEOUT = 30.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class JsonHttpApp:
    """Routes HTTP requests onto one serving backend.

    The backend is a :class:`BatchingService` or a
    :class:`~repro.serve.fleet.ShardSupervisor`; the app uses only
    ``healthz()``, ``scrape()`` (the ``/metrics`` document), ``get``,
    ``retry_after``, ``submit`` (a coroutine on the fleet, which
    fsyncs its intake journal off-loop) and, where the backend has
    them, ``watch``/``unwatch`` (``POST /jobs/watch``).
    """

    def __init__(self, backend: Any) -> None:
        self.backend = backend

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one HTTP request on this connection, then close it."""
        try:
            status, doc, extra = await self._handle_request(reader)
        except Exception:
            status, doc, extra = 500, {"error": "internal server error"}, {}
        chunks: Optional[AsyncGenerator[bytes, None]] = None
        if inspect.isasyncgen(doc):
            # A watch stream: the body ends when the connection closes.
            # Its first chunk opens it and goes out with the head.
            chunks = doc
            payload = await anext(chunks)
        else:
            if isinstance(doc, str):
                # A pre-rendered text payload (the Prometheus
                # exposition); the route names its own Content-Type via
                # ``extra``.
                payload = doc.encode()
                extra.setdefault("Content-Type", "text/plain")
            else:
                payload = json.dumps(doc).encode()
                extra["Content-Type"] = "application/json"
            extra["Content-Length"] = str(len(payload))
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Connection: close\r\n"
        )
        for key, value in extra.items():
            head += f"{key}: {value}\r\n"
        try:
            writer.write(head.encode("latin-1") + b"\r\n" + payload)
            await writer.drain()
            if chunks is not None:
                async for chunk in chunks:
                    writer.write(chunk)
                    await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            if chunks is not None:
                await chunks.aclose()
            writer.close()

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Any, Dict[str, str]]:
        try:
            head = await asyncio.wait_for(_read_head(reader), REQUEST_TIMEOUT)
        except asyncio.TimeoutError:
            return 400, {"error": "request timeout"}, {}
        if head is None:
            return 400, {"error": "malformed request line"}, {}
        method, target, headers = head
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            return 400, {"error": "bad content-length"}, {}
        if length > MAX_BODY_BYTES:
            return 413, {"error": "request body too large"}, {}
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), REQUEST_TIMEOUT
                )
            except (asyncio.TimeoutError, asyncio.IncompleteReadError):
                return 400, {"error": "truncated request body"}, {}
        return await self._route(method, target, body, headers)

    async def _route(
        self, method: str, target: str, body: bytes, headers: Dict[str, str]
    ) -> Tuple[int, Any, Dict[str, str]]:
        """Dispatch one request: ``(status, doc-or-text, extra headers)``."""
        path, _, query = target.partition("?")
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            return 200, self.backend.healthz(), {}
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            doc = await self.backend.scrape()
            if self._wants_prometheus(query, headers):
                return (
                    200,
                    prometheus_from_metrics(doc),
                    {"Content-Type": PROMETHEUS_CONTENT_TYPE},
                )
            return 200, doc, {}
        if path == "/jobs":
            if method != "POST":
                return 405, {"error": "method not allowed"}, {}
            supplied = headers.get("x-trace-id")
            trace_id = supplied if valid_trace_id(supplied) else new_trace_id()
            return await self._submit(body, trace_id)
        if path == "/jobs/poll":
            if method != "POST":
                return 405, {"error": "method not allowed"}, {}
            return self._poll(body)
        if path == "/jobs/watch" and hasattr(self.backend, "watch"):
            if method != "POST":
                return 405, {"error": "method not allowed"}, {}
            return self._watch(body)
        if path.startswith("/jobs/"):
            if method != "GET":
                return 405, {"error": "method not allowed"}, {}
            record = self.backend.get(path[len("/jobs/"):])
            if record is None:
                return 404, {"error": "unknown job id"}, {}
            return 200, record.to_dict(include_result=True), {}
        return 404, {"error": f"no route for {path}"}, {}

    @staticmethod
    def _wants_prometheus(query: str, headers: Dict[str, str]) -> bool:
        """Content negotiation for ``/metrics``.

        An explicit ``?format=`` wins; otherwise an ``Accept`` header
        that names ``text/plain`` without also naming JSON (the
        Prometheus scraper's shape) selects the exposition format.
        JSON stays the default for everything else.
        """
        params = urllib.parse.parse_qs(query)
        formats = params.get("format")
        if formats:
            return formats[-1].lower() in ("prometheus", "text")
        accept = headers.get("accept", "")
        return "text/plain" in accept and "application/json" not in accept

    def _poll(self, body: bytes) -> Tuple[int, Any, Dict[str, str]]:
        """``POST /jobs/poll``: batched status polling.

        Body: ``{"ids": [...], "include_result": bool}`` (``include_result``
        defaults to true).  Answers ``{"jobs": {id: record}, "unknown":
        [...]}`` — one round-trip for a whole in-flight window instead of
        one ``GET /jobs/<id>`` per job, which is what keeps high-fan-out
        pollers (``ServeClient.wait``, the load generator) from drowning the
        server in per-job requests.
        """
        doc = _ids_body(body)
        if isinstance(doc, str):
            return 400, {"error": doc}, {}
        ids = doc["ids"]
        include_result = doc.get("include_result", True)
        if not isinstance(include_result, bool):
            return 400, {"error": '"include_result" must be a boolean'}, {}
        jobs: Dict[str, Any] = {}
        unknown = []
        for job_id in ids:
            record = self.backend.get(job_id)
            if record is None:
                unknown.append(job_id)
            else:
                jobs[job_id] = record.to_dict(include_result=include_result)
        return 200, {"jobs": jobs, "unknown": unknown}, {}

    def _watch(self, body: bytes) -> Tuple[int, Any, Dict[str, str]]:
        """``POST /jobs/watch``: stream finished jobs as NDJSON lines.

        Body: ``{"ids": [...]}``.
        """
        doc = _ids_body(body)
        if isinstance(doc, str):
            return 400, {"error": doc}, {}
        return (
            200, self._watch_lines(doc["ids"]),
            {"Content-Type": "application/x-ndjson"},
        )

    async def _watch_lines(
        self, ids: List[str]
    ) -> AsyncGenerator[bytes, None]:
        """The stream's body: the first lines, then one chunk per batch.

        The stream opens before its first chunk, and so before the
        status line goes out: every job the service accepts after a
        client has read that line is reported on it.  The records of
        one runner batch are retired in one event-loop step, so they
        are all queued by the time this wakes.
        """
        first, queue = self.backend.watch(ids)
        try:
            yield _ndjson(first)
            while True:
                records = [await queue.get()]
                while not queue.empty():
                    records.append(queue.get_nowait())
                yield _ndjson(r.to_dict() for r in records if r is not None)
                if records[-1] is None:  # the batcher has stopped
                    return
        finally:
            self.backend.unwatch(queue)

    async def _submit(
        self, body: bytes, trace_id: str
    ) -> Tuple[int, Any, Dict[str, str]]:
        def refuse(
            status: int, message: str, retry_after: Optional[float] = None
        ) -> Tuple[int, Any, Dict[str, str]]:
            # Every refusal echoes the trace id in body and header; a
            # retryable one (429/503) carries the hint in both too.
            doc: Dict[str, Any] = {"error": message}
            headers = {}
            if retry_after is not None:
                doc["retry_after"] = retry_after
                headers["Retry-After"] = f"{retry_after}"
            doc["trace_id"] = trace_id
            return status, doc, {**headers, "X-Trace-Id": trace_id}

        try:
            doc = json.loads(body or b"null")
        except ValueError:
            return refuse(400, "request body is not valid JSON")
        if isinstance(doc, dict) and "jobs" in doc:
            raw_specs = doc.get("jobs")
        else:
            raw_specs = [doc]
        if not isinstance(raw_specs, list):
            return refuse(400, '"jobs" must be a list of job specs')
        try:
            specs = [JobSpec.from_dict(raw) for raw in raw_specs]
            records = self.backend.submit(specs, trace_id=trace_id)
            if asyncio.iscoroutine(records):
                records = await records
        except JobSpecError as exc:
            return refuse(400, str(exc))
        except QueueFullError as exc:
            return refuse(429, str(exc), exc.retry_after)
        except DrainingError as exc:
            return refuse(503, str(exc), self.backend.retry_after)
        return (
            202,
            {
                "trace_id": trace_id,
                "jobs": [r.to_dict(include_result=False) for r in records],
            },
            {"X-Trace-Id": trace_id},
        )


def _ids_body(body: bytes) -> Any:
    """The ``{"ids": [...]}`` document of a poll or watch request, or
    the error text of its 400."""
    try:
        doc = json.loads(body or b"null")
    except ValueError:
        return "request body is not valid JSON"
    if not isinstance(doc, dict) or not isinstance(doc.get("ids"), list):
        return '"ids" must be a list of job ids'
    if not all(isinstance(job_id, str) for job_id in doc["ids"]):
        return "job ids must be strings"
    return doc


def _ndjson(docs: Iterable[Dict[str, Any]]) -> bytes:
    return b"".join(json.dumps(doc).encode() + b"\n" for doc in docs)


async def _read_head(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str]]]:
    """Read the request line and headers: ``(method, target, headers)``,
    or ``None`` (headers unread) for a malformed request line."""
    request_line = await reader.readline()
    parts = request_line.decode("latin-1", "replace").split()
    if len(parts) < 2:
        return None
    return parts[0].upper(), parts[1], await read_headers(reader)


async def read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
    """Read header lines up to the blank line: lower-cased name → value.

    Shared by the front-end and the fleet router's shard client.
    """
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        key, _, value = line.decode("latin-1", "replace").partition(":")
        headers[key.strip().lower()] = value.strip()


def _write_json_atomic(path: str, doc: Any) -> None:
    """Write a JSON document via tmp-file + rename (no torn snapshot).

    Same convention as ``SweepRunner._cache_store``: a SIGTERM landing
    mid-write leaves either the old file or the new one, never a
    truncated hybrid.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory or ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=2)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


async def run_server(
    backend: Any,
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    metrics_out: Optional[str] = None,
    trace_out: Optional[str] = None,
    manifest_out: Optional[str] = None,
    install_signal_handlers: bool = True,
    stop: Optional[asyncio.Event] = None,
) -> int:
    """Serve ``backend`` until SIGTERM/SIGINT (or ``stop``), then drain.

    The one lifecycle of ``cohort serve`` and ``cohort fleet``.  The
    backend names itself in the banner lines (``command``), logs its
    own listen event (``listening``), names its exit event
    (``exit_event``) and supplies the ``metrics_out`` document
    (``scrape``).  ``trace_out`` (the Perfetto-loadable service spans
    of every retired request) and ``manifest_out`` need ``cohort
    serve``'s ``service_trace`` and ``run_manifest``.  Returns the port
    actually bound.
    """
    app = JsonHttpApp(backend)
    await backend.start()
    server = await asyncio.start_server(app.handle_connection, host, port)
    bound_port = server.sockets[0].getsockname()[1]
    stop_event = stop if stop is not None else asyncio.Event()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop_event.set)
    name = f"cohort {backend.command}"
    print(f"{name}: {backend.listening(host, bound_port)}", flush=True)
    await stop_event.wait()
    print(f"{name}: draining", flush=True)
    # Keep the listener open while draining so clients can poll job
    # status; submissions are refused with 503 once draining starts.
    await backend.drain()
    if metrics_out:
        _write_json_atomic(metrics_out, await backend.scrape())
        print(f"{name}: metrics snapshot -> {metrics_out}", flush=True)
    if trace_out:
        _write_json_atomic(trace_out, backend.service_trace())
        print(f"{name}: service trace -> {trace_out}", flush=True)
    if manifest_out:
        from repro.qa import write_manifest

        artifacts = [
            path
            for path in (metrics_out, trace_out, backend.oplog.path)
            if path
        ]
        fingerprint = write_manifest(
            backend.run_manifest(artifacts), manifest_out
        )
        print(
            f"{name}: run manifest -> {manifest_out} "
            f"(fingerprint {fingerprint[:12]})",
            flush=True,
        )
    server.close()
    await server.wait_closed()
    backend.oplog.emit(backend.exit_event)
    backend.oplog.close()
    print(f"{name}: drained, exiting", flush=True)
    return bound_port


class LoopThread:
    """:func:`run_server` in a daemon thread, for tests and benchmarks.

    The caller talks to the backend over real HTTP at :attr:`base_url`;
    :meth:`stop` drains it as SIGTERM drains the CLI commands.
    Subclasses build the backend in ``_make_backend``, on the loop.
    """

    #: Seconds :meth:`start` waits for the backend to listen, and
    #: :meth:`stop` for it to drain.
    start_timeout = 30.0
    stop_timeout = 60.0

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self._backend: Any = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    @property
    def base_url(self) -> str:
        if self.port is None:
            raise RuntimeError("server not started")
        return f"http://{self.host}:{self.port}"

    def start(self) -> Any:
        """Start the loop thread; block until the backend is listening."""
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        deadline = time.monotonic() + self.start_timeout
        # The backend's ``listening`` hook records the bound address.
        while getattr(self._backend, "address", None) is None:
            if self._error is not None or time.monotonic() > deadline:
                why = self._error or "timed out"
                raise RuntimeError(f"{type(self).__name__} did not start: {why}")
            time.sleep(0.01)
        self.port = self._backend.address[1]
        return self

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surfaced via start()/stop()
            self._error = exc

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._backend = self._make_backend()
        await run_server(
            self._backend, self.host, self._requested_port,
            install_signal_handlers=False, stop=self._stop,
        )

    def stop(self, timeout: Optional[float] = None) -> None:
        """Drain the backend, stop the loop and join the thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(self.stop_timeout if timeout is None else timeout)
            if self._thread.is_alive():
                raise RuntimeError(f"{type(self).__name__} did not drain in time")
        if self._error is not None:
            raise RuntimeError(f"{type(self).__name__} failed: {self._error!r}")

    def __enter__(self) -> Any:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


class ServerThread(LoopThread):
    """An in-process ``cohort serve`` for tests and benchmarks."""

    def __init__(
        self,
        *,
        runner: Optional[SweepRunner] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_kwargs: Any,
    ) -> None:
        super().__init__(host, port)
        self.runner = runner if runner is not None else SweepRunner(jobs=1)
        self.service_kwargs = service_kwargs
        self.service: Optional[BatchingService] = None

    def _make_backend(self) -> BatchingService:
        self.service = BatchingService(self.runner, **self.service_kwargs)
        return self.service
