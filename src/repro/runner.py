"""Parallel experiment runner with content-addressed result caching.

The paper's figures are sweeps of *independent* simulations: the same
trace set replayed under many ``(protocol, θ-vector)`` configurations.
:class:`SweepRunner` picks each simulation's engine, executes a
batch on a long-lived ``ProcessPoolExecutor`` (``jobs > 1``) and
memoizes every result in an on-disk cache keyed by a content hash of the full simulation input —
the serialised :class:`~repro.params.SimConfig` (including
``check_coherence`` and ``max_cycles``, which ``config_to_dict`` omits)
plus the raw bytes of every trace array.  Re-running an experiment with
unchanged inputs is a cache lookup, not a simulation.

Results cross process and cache boundaries as plain JSON dicts (see
:func:`stats_to_dict`), and *fresh* results are normalised through a
JSON round-trip so that a dict served from the cache is byte-identical
to one computed in-process — the determinism suite relies on this.

Usage::

    runner = SweepRunner(jobs=4)
    results = runner.run_systems({"cohort": cfg_a, "msi": cfg_b}, traces)
    results["cohort"]["final_cycle"]
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import tempfile
import threading
import time
import uuid

try:  # POSIX-only advisory locking; the cache degrades gracefully without.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.params import CacheGeometry, SimConfig, config_to_dict
from repro.sim.lockstep import LockstepSystem, lockstep_unsupported_reason
from repro.sim.protocols import available_protocols, get_protocol
from repro.sim.stats import STATS_SCHEMA_VERSION, SystemStats
from repro.sim.system import run_simulation
from repro.sim.trace import Trace, decode_stats, decode_trace

#: Bump when the result schema or the simulation semantics change in a
#: way that invalidates previously cached results.  The *stats* schema
#: has its own version (:data:`repro.sim.stats.STATS_SCHEMA_VERSION`)
#: folded into every digest, so growing ``stats_to_dict`` never replays
#: stale cached dicts that lack the new fields.
#: v2: cache files became self-describing envelopes carrying their own
#: digest and schema tags (see :meth:`SweepRunner._cache_load`).
CACHE_VERSION = 2

DEFAULT_CACHE_DIR = os.path.join(".cohort_cache", "sweeps")

#: Subdirectory of ``cache_dir`` where corrupt/truncated cache
#: envelopes are moved (never deleted — they are forensic evidence).
QUARANTINE_DIR = ".quarantine"

#: Lock file used for cross-process advisory locking of cache
#: maintenance (eviction scans); entries themselves stay lock-free —
#: stores are already atomic ``os.replace`` writes.
CACHE_LOCK_FILE = ".lock"

#: A same-trace group of two or more jobs runs on the lock-step engine
#: only when its predicted miss rate (:func:`predicted_miss_rate`) is
#: below this.  Lock-step amortises runs of hits but adds bookkeeping to
#: every miss: on a 2-core host it won every case below 1% predicted
#: and lost every case at 6% and above; in between, the outcome
#: depended on the trace family (the table in docs/performance.md).
LOCKSTEP_MISS_RATE = 0.01

#: How many times one unit (a fast-path job or a lock-step share) may be
#: re-run after a timeout or worker crash before the batch fails with
#: :class:`SweepExecutionError`.
MAX_RETRIES = 2

#: First-retry backoff in seconds; doubles per subsequent failure.
BACKOFF_BASE = 0.05


class JobTimeoutError(RuntimeError):
    """A sweep simulation exceeded the runner's per-simulation ``timeout``.

    Raised *inside* the worker (via ``SIGALRM``) so the process pool
    stays alive; the runner retries the simulation's unit up to
    :data:`MAX_RETRIES` times before giving up with
    :class:`SweepExecutionError`.
    """


class SweepExecutionError(RuntimeError):
    """A sweep unit could not be completed within the retry budget."""


def stats_to_dict(stats: SystemStats) -> dict:
    """Serialise a :class:`SystemStats` to a JSON-compatible dict."""
    return {
        "schema": STATS_SCHEMA_VERSION,
        "final_cycle": stats.final_cycle,
        "execution_time": stats.execution_time,
        "bus_busy_cycles": stats.bus_busy_cycles,
        "bus_utilization": stats.bus_utilization(),
        "bus_grants": dict(stats.bus_grants),
        "timer_expiries": stats.timer_expiries,
        "replenishes_skipped": stats.replenishes_skipped,
        "writebacks": stats.writebacks,
        "dram_fetches": stats.dram_fetches,
        "back_invalidations": stats.back_invalidations,
        "mode_switches": stats.mode_switches,
        "cores": [
            {
                "core_id": c.core_id,
                "hits": c.hits,
                "misses": c.misses,
                "upgrades": c.upgrades,
                "runahead_hits": c.runahead_hits,
                "total_memory_latency": c.total_memory_latency,
                "max_request_latency": c.max_request_latency,
                "finish_cycle": c.finish_cycle,
                "request_latencies": c.request_latencies,
            }
            for c in stats.cores
        ],
    }


@dataclass(frozen=True)
class SweepJob:
    """One independent simulation of a sweep."""

    config: SimConfig
    traces: Tuple[Trace, ...]
    record_latencies: bool = False

    def digest(self) -> str:
        """Content hash of everything that determines the result.

        Folds in both the cache version (simulation semantics) and the
        stats schema version (result shape): entries written before a
        schema bump simply miss, forcing a re-simulation that produces
        the new fields.
        """
        h = hashlib.sha256()
        h.update(f"v{CACHE_VERSION}s{STATS_SCHEMA_VERSION}".encode())
        payload = config_to_dict(self.config)
        # config_to_dict intentionally omits run-control fields; they
        # change the result (or whether the oracle runs), so hash them.
        payload["check_coherence"] = self.config.check_coherence
        payload["max_cycles"] = self.config.max_cycles
        payload["record_latencies"] = self.record_latencies
        h.update(json.dumps(payload, sort_keys=True).encode())
        for trace in self.traces:
            h.update(b"|trace|")
            h.update(trace.gaps.tobytes())
            h.update(trace.ops.tobytes())
            h.update(trace.addrs.tobytes())
        return h.hexdigest()


@dataclass
class _Unit:
    """One piece of work: an inline loop step or one pool future.

    Every slot of a unit replays the same trace set on the same engine.
    ``miss_rate`` is the prediction that chose the engine of the unit's
    same-trace group (None for a job that belongs to no group).
    """

    engine: str
    slots: List[int]
    miss_rate: Optional[float] = None

    def payload(self, jobs: Sequence[SweepJob]) -> tuple:
        """The picklable unit: its traces once, then one config per slot."""
        first = jobs[self.slots[0]]
        return (
            self.engine,
            first.traces,
            [jobs[i].config for i in self.slots],
            first.record_latencies,
        )


def predicted_miss_rate(
    traces: Sequence[Trace], l1: CacheGeometry
) -> float:
    """In-isolation direct-mapped miss rate of ``traces``, access-weighted.

    The routing predictor: it reads the input alone, ranks traces as
    their simulated miss rates do, and costs one cached vectorised pass
    per trace (:meth:`~repro.sim.trace.DecodedTrace.isolation_misses`).
    """
    decoded = [decode_trace(t, l1.line_bytes) for t in traces]
    accesses = sum(d.n for d in decoded)
    if not accesses:
        return 0.0
    return sum(d.isolation_misses(l1.num_sets) for d in decoded) / accesses


def _simulate(
    engine: str, config: SimConfig, traces: Sequence[Trace], record: bool
) -> dict:
    """One simulation on ``engine``, as a result dict."""
    if engine == "lockstep":
        stats = LockstepSystem(config, traces, record_latencies=record).run()
    else:
        stats = run_simulation(config, traces, record_latencies=record)
    return stats_to_dict(stats)


@contextmanager
def _alarm(timeout: Optional[float]) -> Iterator[None]:
    """Raise :class:`JobTimeoutError` if the block outlives ``timeout``.

    A real-time interval timer (``SIGALRM``), so a stuck simulation
    raises through its future and leaves the worker process — and the
    whole pool — healthy.  A no-op without a timeout or without
    ``SIGALRM``.
    """
    if not timeout or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum: int, frame: object) -> None:
        raise JobTimeoutError(f"sweep job exceeded timeout of {timeout}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_unit(payload: tuple, timeout: Optional[float]) -> List[dict]:
    """Worker entry: simulate each config of one unit over its traces.

    The traces arrive once per unit, as numpy arrays with their content
    digest, so a worker rebuilds them once however many configs the
    unit holds.  ``timeout`` bounds each simulation: the alarm is
    re-armed for every config of a lock-step share.
    """
    engine, traces, configs, record = payload
    results = []
    for config in configs:
        with _alarm(timeout):
            results.append(_simulate(engine, config, traces, record))
    return results


# -- the worker pool -----------------------------------------------------------

#: This process's worker pool as ``(key, pool)``, created on first use
#: and kept until a worker dies, a batch aborts or a batch needs another
#: key, so a sweep pays no fork.  The key is ``(pid, workers, start
#: method, protocol registry)``: the pid keeps a forked child off its
#: parent's pool, and the registry is the one the workers started with.
#: A serve shard calls ``run`` from an executor thread, hence the lock.
_POOL: Optional[Tuple[tuple, ProcessPoolExecutor]] = None
_POOL_LOCK = threading.Lock()


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit once the pool's owner dies.

    An idle worker blocks on its task pipe, which an owner killed by
    ``SIGKILL`` never closes, so without this watch it would outlive
    the owner for good.  The owner's death makes the sentinel of
    :func:`multiprocessing.parent_process` ready under every start
    method.  Under ``forkserver`` the worker's parent process is the
    fork server, which lives as long as the workers do, so only the
    sentinel tells.  Under ``fork`` every process the owner forks later
    (the next worker, say) holds the sentinel's pipe open too, so a
    change of parent pid, which is the owner there, also counts.
    """
    parent = os.getppid()
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        while os.getppid() == parent and not multiprocessing.connection.wait(
            [sentinel], timeout=1.0
        ):
            pass
        os._exit(0)

    threading.Thread(target=watch, daemon=True).start()


def _pool(workers: int, mp_context: Optional[str]) -> ProcessPoolExecutor:
    """This process's pool of ``workers`` workers, created on demand.

    A worker keeps the module state of the moment it started, so it
    would not know a protocol registered after that: a changed protocol
    registry, like another size or start method, replaces the pool.
    """
    global _POOL
    registry = tuple((n, get_protocol(n)) for n in available_protocols())
    key = (os.getpid(), workers, mp_context, registry)
    with _POOL_LOCK:
        old = _POOL
        if old is not None and old[0] == key:
            return old[1]
        ctx = multiprocessing.get_context(mp_context) if mp_context else None
        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx,
            initializer=_exit_with_parent,
        )
        _POOL = (key, pool)
    if old is not None and old[0][0] == os.getpid():
        old[1].shutdown(wait=False)
    return pool


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Stop handing out ``pool``; the next batch starts a fresh one.

    Work already queued on it still runs, so a batch of another thread
    that shares it is not cut short.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and _POOL[1] is pool:
            _POOL = None
    pool.shutdown(wait=False)


def shutdown_pool() -> None:
    """Stop this process's worker pool and wait for its workers.

    The next parallel batch starts a fresh pool.  Tests that change
    module state a worker must see (a monkeypatched ``_simulate``) call
    this before and after.
    """
    global _POOL
    with _POOL_LOCK:
        old, _POOL = _POOL, None
    if old is not None and old[0][0] == os.getpid():
        old[1].shutdown(wait=True, cancel_futures=True)


def _submit(
    pool: ProcessPoolExecutor, payload: tuple, timeout: Optional[float]
) -> Future:
    """Submit one unit; a pool that can take no work fails its future.

    A worker of the long-lived pool may die while idle, or another
    thread may have discarded the pool: either way the unit is retried
    on a fresh pool, as if its worker had died under it.
    """
    try:
        return pool.submit(_run_unit, payload, timeout)
    except RuntimeError as exc:  # BrokenProcessPool, or shut down
        failed: Future = Future()
        failed.set_exception(BrokenProcessPool(str(exc)))
        return failed


@dataclass
class SweepRunner:
    """Runs batches of independent simulations, with caching.

    The runner alone picks each job's engine (results are bit-identical
    on all of them).  It groups a batch's uncached jobs by trace set; a
    group of two or more whose predicted miss rate is below
    :data:`LOCKSTEP_MISS_RATE` runs on the lock-step engine, and every
    other job on the per-event fast path.  With ``jobs > 1`` each
    lock-step group is split into ``min(jobs, n)`` shares and every
    share and fast-path job is one future on this process's long-lived
    worker pool; with ``jobs == 1``, or a single unit of work, all of it
    runs inline.  The on-disk cache is shared by all of them and across
    runs; set ``cache_dir=None`` to disable persistence entirely.

    The parallel path is crash-contained: a worker death
    (``BrokenProcessPool``) replaces the pool and retries only the units
    that were still uncollected — completed results are kept — and a
    per-simulation ``timeout`` is enforced inside the worker so a stuck
    simulation cannot poison the pool.  Retries are bounded
    (:data:`MAX_RETRIES` per unit) with exponential backoff
    (``BACKOFF_BASE * 2**n`` seconds); deterministic simulation errors
    (oracle violations, watchdog limits) are never retried and propagate
    unchanged.
    """

    jobs: int = 1
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR
    #: Per-simulation wall-clock timeout in seconds (None = unlimited);
    #: enforced in-worker via SIGALRM on the parallel path only, so jobs
    #: that run inline are never timed out.
    timeout: Optional[float] = None
    #: Multiprocessing start method for the pool (None = platform
    #: default).  Tests use "fork", plus :func:`shutdown_pool`, so
    #: monkeypatched module state propagates into workers.
    mp_context: Optional[str] = None
    cache_hits: int = 0
    cache_misses: int = 0
    #: Simulations actually executed (cache misses that ran).
    jobs_executed: int = 0
    #: Wall-clock seconds spent executing uncached jobs (per-batch; the
    #: parallel path measures the whole pool batch, not per worker).
    exec_seconds: float = 0.0
    #: Batches dispatched to the process pool (jobs > 1 only).
    parallel_batches: int = 0
    #: Pool breakages observed (a worker process died mid-batch).
    worker_failures: int = 0
    #: Simulations that hit the timeout (including ones later retried).
    job_timeouts: int = 0
    #: Unit resubmissions after a timeout or worker crash.
    job_retries: int = 0
    #: Total seconds slept in retry backoff.
    backoff_seconds: float = 0.0
    #: Cache stores that failed (OSError stores are dropped — the cache
    #: is best-effort — non-OSError failures also reraise).
    cache_store_failures: int = 0
    #: Orphaned ``*.tmp`` files removed from ``cache_dir`` at init.
    cache_tmp_swept: int = 0
    #: Last cache-store failure, ``"ExcType: message"`` (for telemetry).
    cache_store_last_error: Optional[str] = None
    #: On-disk cache size budget in bytes (0 = unbounded).  When a
    #: store pushes the cache over the budget, least-recently-used
    #: entries (by mtime — loads touch their entry) are evicted under a
    #: cross-process advisory ``fcntl`` lock until the budget holds.
    cache_budget_bytes: int = 0
    #: Entries evicted by the size budget (this runner's lifetime).
    cache_evictions: int = 0
    #: Bytes reclaimed by budget evictions.
    cache_evicted_bytes: int = 0
    #: Corrupt/truncated/mislabelled cache files moved to
    #: ``.quarantine/`` instead of being silently re-executed over.
    cache_quarantined: int = 0
    #: Same-trace groups executed through the lock-step engine.
    lockstep_groups: int = 0
    #: Jobs served by lock-step batches (subset of ``jobs_executed``).
    lockstep_jobs: int = 0
    #: Jobs run on the per-event fast path; with ``lockstep_jobs`` it
    #: sums to ``jobs_executed``.
    fast_jobs: int = 0
    #: Jobs peeled out of a same-trace group because their configuration
    #: is outside the lock-step engine's support (coherence checking on,
    #: non-standard protocol); they ran on the per-event path instead.
    lockstep_peeled: int = 0
    #: Histogram ``{group size: count}`` of executed lock-step groups,
    #: so telemetry distinguishes duplicate-digest dedup (PR 5) from
    #: lock-step amortisation of *distinct* configs over one trace.
    _lockstep_group_sizes: Dict[int, int] = field(
        default_factory=dict, repr=False
    )
    #: Optional structured operational logger (duck-typed: anything with
    #: an ``emit(event, **fields)`` method, normally
    #: :class:`repro.obs.ops.OpLogger`).  When set, the runner logs
    #: ``cache_hit``/``execute`` per job — carrying the submitting
    #: request's trace context when ``run`` received one — plus
    #: ``worker_quarantine`` on crash/timeout retries.
    oplog: Optional[object] = field(default=None, repr=False)
    _memory: Dict[str, dict] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.cache_budget_bytes < 0:
            raise ValueError("cache_budget_bytes must be >= 0")
        self._sweep_orphan_tmp()

    # -- cache ---------------------------------------------------------------

    def _sweep_orphan_tmp(self) -> None:
        """Remove ``*.tmp`` files a crashed store left in ``cache_dir``.

        Only files from this runner's own mkstemp pattern are touched; a
        concurrently live runner's in-flight temp file may be swept too,
        which costs that runner one dropped store (best-effort anyway),
        never a corrupt entry — the atomic ``os.replace`` would simply
        fail.
        """
        if self.cache_dir is None or not os.path.isdir(self.cache_dir):
            return
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return
        for name in names:
            if name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(self.cache_dir, name))
                except OSError:
                    continue
                self.cache_tmp_swept += 1

    def _cache_path(self, key: str) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{key}.json")

    def _cache_load(self, key: str) -> Optional[dict]:
        if key in self._memory:
            return self._memory[key]
        path = self._cache_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except ValueError:
            # Truncated or garbage bytes under a digest-keyed name:
            # quarantine the file so the evidence survives and the slot
            # re-executes cleanly instead of failing here forever.
            self._quarantine(path, key, "not valid JSON")
            return None
        except OSError:
            return None
        result, corrupt_reason = self._validate_entry(key, doc)
        if corrupt_reason is not None:
            self._quarantine(path, key, corrupt_reason)
            return None
        if result is None:
            # A legitimate miss (older cache/stats schema era): the
            # entry will be overwritten by the fresh store, not hoarded.
            return None
        # Touch the entry so budget eviction is least-recently-*used*,
        # not least-recently-written, across every process sharing the
        # cache directory.
        try:
            os.utime(path)
        except OSError:
            pass
        self._memory[key] = result
        return result

    @staticmethod
    def _validate_entry(
        key: str, doc: object
    ) -> Tuple[Optional[dict], Optional[str]]:
        """Check a cache file's envelope: ``(result, corrupt_reason)``.

        Entries are self-describing: they carry the job digest they were
        stored under plus the cache/stats schema versions they were
        written with.  ``(result, None)`` is a hit; ``(None, None)`` is
        a clean miss (an entry from an older schema era — stale, not
        broken, and overwritten by the next store); ``(None, reason)``
        is a *corrupt* entry (renamed, hand-edited, or structurally
        wrong) that the caller quarantines instead of replaying as a
        wrong result or re-parsing forever.
        """
        if not isinstance(doc, dict):
            return None, "envelope is not an object"
        missing = [
            field
            for field in ("cache_version", "stats_schema", "digest", "result")
            if field not in doc
        ]
        if missing:
            # An object with no envelope structure at all is damage,
            # not a schema-era artefact: quarantine it.
            return None, f"envelope missing {', '.join(missing)}"
        if (
            doc["cache_version"] != CACHE_VERSION
            or doc["stats_schema"] != STATS_SCHEMA_VERSION
        ):
            return None, None
        if doc.get("digest") != key:
            return None, (
                f"digest mismatch (envelope says "
                f"{str(doc.get('digest'))[:12]}…)"
            )
        result = doc.get("result")
        if not isinstance(result, dict) or "final_cycle" not in result:
            return None, "result payload missing or malformed"
        return result, None

    def _quarantine(self, path: str, key: str, reason: str) -> None:
        """Move a corrupt cache file into ``cache_dir/.quarantine/``.

        Best-effort: a concurrent runner may quarantine (or overwrite)
        the same file first, in which case there is nothing left to
        move and the counter stays honest.
        """
        assert self.cache_dir is not None
        quarantine = os.path.join(self.cache_dir, QUARANTINE_DIR)
        target = os.path.join(
            quarantine, f"{os.path.basename(path)}.{uuid.uuid4().hex[:8]}"
        )
        try:
            os.makedirs(quarantine, exist_ok=True)
            os.replace(path, target)
        except OSError:
            return
        self.cache_quarantined += 1
        if self.oplog is not None:
            self.oplog.emit(  # type: ignore[attr-defined]
                "cache_quarantine", component="runner", digest=key,
                reason=reason, quarantined_to=target,
            )

    # -- cache size budget ---------------------------------------------------

    def _cache_lock(self):
        """Cross-process advisory lock over cache maintenance.

        Returns an open fd holding an exclusive ``fcntl`` lock on the
        cache's lock file, or ``None`` when locking is unavailable
        (non-POSIX, unwritable dir) — eviction then proceeds unlocked,
        which at worst double-deletes an entry both runners chose.
        """
        if fcntl is None or self.cache_dir is None:
            return None
        lock_path = os.path.join(self.cache_dir, CACHE_LOCK_FILE)
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        except OSError:
            return None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:
            os.close(fd)
            return None
        return fd

    @staticmethod
    def _cache_unlock(fd) -> None:
        if fd is None:
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)  # type: ignore[union-attr]
        finally:
            os.close(fd)

    def _cache_entries(self) -> List[Tuple[float, int, str]]:
        """``(mtime, bytes, path)`` for every entry file in the cache."""
        assert self.cache_dir is not None
        entries: List[Tuple[float, int, str]] = []
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return entries
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def cache_size_bytes(self) -> int:
        """Total bytes currently held by on-disk cache entries."""
        if self.cache_dir is None:
            return 0
        return sum(size for _, size, _ in self._cache_entries())

    def _enforce_cache_budget(self, keep_key: Optional[str] = None) -> None:
        """Evict least-recently-used entries until the budget holds.

        Runs under the cross-process advisory lock so concurrent
        runners do not both scan-and-evict the same files; the entry
        just stored (``keep_key``) is never evicted by its own store.
        """
        if not self.cache_budget_bytes or self.cache_dir is None:
            return
        keep_path = self._cache_path(keep_key) if keep_key else None
        lock = self._cache_lock()
        try:
            entries = sorted(self._cache_entries())
            total = sum(size for _, size, _ in entries)
            for mtime, size, path in entries:
                if total <= self.cache_budget_bytes:
                    break
                if path == keep_path:
                    continue
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                self.cache_evictions += 1
                self.cache_evicted_bytes += size
                # The in-memory memo is untouched: the budget governs
                # the shared *disk* tier; warm in-process results stay.
                evicted_key = os.path.basename(path)[: -len(".json")]
                if self.oplog is not None:
                    self.oplog.emit(  # type: ignore[attr-defined]
                        "cache_evict", component="runner",
                        digest=evicted_key, bytes=size,
                        budget=self.cache_budget_bytes,
                    )
        finally:
            self._cache_unlock(lock)

    def _cache_store(self, key: str, result: dict) -> None:
        self._memory[key] = result
        path = self._cache_path(key)
        if path is None:
            return
        envelope = {
            "digest": key,
            "cache_version": CACHE_VERSION,
            "stats_schema": STATS_SCHEMA_VERSION,
            "result": result,
        }
        # Atomic write: concurrent runners may race on the same key.
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        except OSError as exc:
            self._record_store_failure(exc)
            return
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(envelope, fh)
            os.replace(tmp, path)
            self._enforce_cache_budget(keep_key=key)
        except OSError as exc:
            # Disk full, permissions, … — the cache is best-effort, the
            # in-memory copy stands, the sweep proceeds.
            self._record_store_failure(exc)
        except BaseException as exc:
            # A non-IO failure (e.g. an unserialisable result) is a
            # programming error: record it, then let it propagate.
            self._record_store_failure(exc)
            raise
        finally:
            if os.path.exists(tmp):
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def _record_store_failure(self, exc: BaseException) -> None:
        self.cache_store_failures += 1
        self.cache_store_last_error = f"{type(exc).__name__}: {exc}"

    # -- execution -----------------------------------------------------------

    def _op_emit(
        self,
        event: str,
        op_context: Optional[Sequence[Mapping[str, object]]],
        index: int,
        **fields: object,
    ) -> None:
        """Emit one runner oplog event, with trace context when known."""
        if self.oplog is None:
            return
        info: Mapping[str, object] = {}
        if op_context is not None and index < len(op_context):
            info = op_context[index]
        self.oplog.emit(
            event,
            component="runner",
            trace_id=info.get("trace_id"),
            job_id=info.get("job_id"),
            **fields,
        )

    def run(
        self,
        jobs: Sequence[SweepJob],
        op_context: Optional[Sequence[Mapping[str, object]]] = None,
    ) -> List[dict]:
        """Run a batch; returns one result dict per job, in order.

        Identical jobs (same content digest) within one batch execute
        once: duplicates are counted as cache hits and served the single
        execution's result — the serving layer batches submissions from
        many clients, where duplicate jobs are the common case.

        ``op_context`` optionally carries one ``{"trace_id": …,
        "job_id": …}`` mapping per job (aligned by index) so the
        runner's oplog events correlate with the serving-layer request
        that submitted each job; omitted entries log without context.
        """
        keys = [job.digest() for job in jobs]
        results: List[Optional[dict]] = [None] * len(jobs)
        pending: List[int] = []
        first_slot: Dict[str, int] = {}
        duplicates: Dict[str, List[int]] = {}
        for i, key in enumerate(keys):
            cached = self._cache_load(key)
            if cached is not None:
                self.cache_hits += 1
                results[i] = cached
                self._op_emit(
                    "cache_hit", op_context, i, digest=key, dedup=False
                )
            elif key in first_slot:
                self.cache_hits += 1
                duplicates.setdefault(key, []).append(i)
                self._op_emit(
                    "cache_hit", op_context, i, digest=key, dedup=True
                )
            else:
                self.cache_misses += 1
                first_slot[key] = i
                pending.append(i)
        if not pending:
            return results  # type: ignore[return-value]

        units, group_sizes = self._plan(jobs, pending)
        payloads = [unit.payload(jobs) for unit in units]
        fresh: List[Optional[List[dict]]] = [None] * len(units)
        started = time.perf_counter()
        try:
            if self.jobs == 1 or len(units) == 1:
                for k, payload in enumerate(payloads):
                    fresh[k] = _run_unit(payload, None)
            else:
                self._run_parallel(payloads, fresh)
        except BaseException:
            # Keep what finished before the error: a retry of the batch
            # (the GA's serial fallback) finds those results cached.
            self._store(units, fresh, keys, results, duplicates, op_context)
            raise
        self.exec_seconds += time.perf_counter() - started
        self.jobs_executed += len(pending)
        for size in group_sizes:
            self.lockstep_groups += 1
            self.lockstep_jobs += size
            self._lockstep_group_sizes[size] = (
                self._lockstep_group_sizes.get(size, 0) + 1
            )
        self.fast_jobs += len(pending) - sum(group_sizes)
        self._store(units, fresh, keys, results, duplicates, op_context)
        return results  # type: ignore[return-value]

    def _store(
        self,
        units: Sequence[_Unit],
        fresh: Sequence[Optional[List[dict]]],
        keys: Sequence[str],
        results: List[Optional[dict]],
        duplicates: Mapping[str, List[int]],
        op_context: Optional[Sequence[Mapping[str, object]]],
    ) -> None:
        """Cache and place the results of every unit that finished."""
        for unit, unit_results in zip(units, fresh):
            if unit_results is None:
                continue
            for slot, result in zip(unit.slots, unit_results):
                # Normalise through JSON so fresh and cached results are
                # indistinguishable (e.g. tuples become lists).
                result = json.loads(json.dumps(result))
                self._cache_store(keys[slot], result)
                results[slot] = result
                self._op_emit(
                    "execute", op_context, slot, digest=keys[slot],
                    engine=unit.engine, miss_rate=unit.miss_rate,
                )
                for dup in duplicates.get(keys[slot], ()):
                    results[dup] = result

    def _plan(
        self, jobs: Sequence[SweepJob], pending: List[int]
    ) -> Tuple[List[_Unit], List[int]]:
        """Split the uncached ``pending`` slots into units of work.

        Groups the jobs by trace content (plus the ``record_latencies``
        flag, which changes the result shape) after peeling the configs
        the lock-step engine does not support.  A group of two or more
        whose predicted miss rate is below :data:`LOCKSTEP_MISS_RATE`
        becomes ``min(jobs, n)`` lock-step shares; every other job is a
        fast-path unit of its own.  Returns the units and the size of
        each lock-step group.
        """
        groups: Dict[Tuple[Tuple[str, ...], bool], List[int]] = {}
        singles: List[int] = []
        for i in pending:
            job = jobs[i]
            if lockstep_unsupported_reason(job.config) is not None:
                self.lockstep_peeled += 1
                singles.append(i)
                continue
            key = (
                tuple(t.content_digest() for t in job.traces),
                job.record_latencies,
            )
            groups.setdefault(key, []).append(i)
        units: List[_Unit] = []
        group_sizes: List[int] = []
        for slots in groups.values():
            if len(slots) < 2:
                singles.extend(slots)
                continue
            first = jobs[slots[0]]
            rate = predicted_miss_rate(first.traces, first.config.l1)
            if rate >= LOCKSTEP_MISS_RATE:
                units.extend(_Unit("fast", [i], rate) for i in slots)
                continue
            group_sizes.append(len(slots))
            shares = min(self.jobs, len(slots))
            units.extend(
                _Unit("lockstep", slots[k::shares], rate)
                for k in range(shares)
            )
        units.extend(_Unit("fast", [i]) for i in sorted(singles))
        return units, group_sizes

    # -- crash-contained parallel execution ----------------------------------

    def _backoff(self, attempt: int) -> None:
        """Sleep the exponential backoff for a unit's ``attempt``-th retry."""
        delay = BACKOFF_BASE * (2 ** (attempt - 1))
        time.sleep(delay)
        self.backoff_seconds += delay

    def _retry_or_fail(self, unit: int, attempts: List[int], cause: str) -> None:
        """Account one failed execution of ``unit``; raise when exhausted."""
        attempts[unit] += 1
        if self.oplog is not None:
            self.oplog.emit(
                "worker_quarantine", component="runner", slot=unit,
                attempt=attempts[unit], reason=cause,
                exhausted=attempts[unit] > MAX_RETRIES,
            )
        if attempts[unit] > MAX_RETRIES:
            raise SweepExecutionError(
                f"sweep unit {unit} failed {attempts[unit]} times "
                f"(last cause: {cause}); giving up after "
                f"{MAX_RETRIES} retries"
            )
        self.job_retries += 1

    def _run_parallel(
        self, payloads: List[tuple], results: List[Optional[List[dict]]]
    ) -> None:
        """Execute unit payloads on the worker pool, one future per unit.

        Each unit's results land in ``results`` as it finishes.  A
        worker crash breaks the whole ``ProcessPoolExecutor`` — every
        uncollected future raises ``BrokenProcessPool``.  Containment
        works by keeping the results already collected, replacing the
        pool, and resubmitting only the uncollected units with their
        retry counters bumped: innocents complete on the fresh pool,
        while a unit that deterministically kills its worker exhausts
        :data:`MAX_RETRIES` and fails the batch with a pointed error.
        A deterministic simulation exception is not retried: the other
        units run to the end, then the first such exception is raised.
        A batch that aborts otherwise replaces the pool, so units it
        leaves running never delay the next batch.
        """
        self.parallel_batches += 1
        error: Optional[BaseException] = None
        attempts = [0] * len(payloads)
        todo = list(range(len(payloads)))
        pool = _pool(self.jobs, self.mp_context)
        outstanding: Dict[Future, int] = {}
        try:
            while todo:
                outstanding = {
                    _submit(pool, payloads[i], self.timeout): i for i in todo
                }
                todo = []
                broken = False
                while outstanding:
                    done, _ = wait(outstanding, return_when=FIRST_COMPLETED)
                    for future in done:
                        unit = outstanding.pop(future)
                        try:
                            results[unit] = future.result()
                        except JobTimeoutError as exc:
                            self.job_timeouts += 1
                            self._retry_or_fail(unit, attempts, str(exc))
                            todo.append(unit)
                        except BrokenProcessPool:
                            if not broken:
                                broken = True
                                self.worker_failures += 1
                            self._retry_or_fail(
                                unit, attempts, "worker process died"
                            )
                            todo.append(unit)
                        except Exception as exc:
                            error = error or exc
                if broken:
                    # The executor is unusable after a worker death;
                    # replace it before resubmitting the survivors.
                    _discard_pool(pool)
                    pool = _pool(self.jobs, self.mp_context)
                if todo:
                    todo.sort()
                    # One backoff per retry round, scaled by the worst
                    # unit's failure count so repeated crashes slow down.
                    self._backoff(max(attempts[i] for i in todo))
        except BaseException:
            for future in outstanding:
                future.cancel()
            _discard_pool(pool)
            raise
        if error is not None:
            raise error
        assert all(r is not None for r in results)

    def telemetry(self) -> dict:
        """Cache and worker-timing counters of this runner's lifetime.

        The shape is stable (consumed by ``cohort … --metrics-out`` and
        summarised by ``cohort metrics``).
        """
        requested = self.cache_hits + self.cache_misses
        decode = decode_stats
        return {
            "jobs": self.jobs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hits / requested if requested else 0.0,
            "jobs_executed": self.jobs_executed,
            "exec_seconds": self.exec_seconds,
            "parallel_batches": self.parallel_batches,
            "worker_failures": self.worker_failures,
            "job_timeouts": self.job_timeouts,
            "job_retries": self.job_retries,
            "backoff_seconds": self.backoff_seconds,
            "cache_store_failures": self.cache_store_failures,
            "cache_store_last_error": self.cache_store_last_error,
            "cache_tmp_swept": self.cache_tmp_swept,
            "cache_dir": self.cache_dir,
            "cache_budget_bytes": self.cache_budget_bytes,
            "cache_size_bytes": self.cache_size_bytes(),
            "cache_evictions": self.cache_evictions,
            "cache_evicted_bytes": self.cache_evicted_bytes,
            "cache_quarantined": self.cache_quarantined,
            "lockstep_groups": self.lockstep_groups,
            "lockstep_jobs": self.lockstep_jobs,
            "fast_jobs": self.fast_jobs,
            "lockstep_peeled": self.lockstep_peeled,
            # The engine that ran this runner's simulations (None while
            # none has run), for run manifests.
            "engine": (
                "mixed" if self.lockstep_jobs and self.fast_jobs
                else "lockstep" if self.lockstep_jobs
                else "fast" if self.fast_jobs
                else None
            ),
            # {group size: count}; JSON object keys are strings so the
            # shape survives a --metrics-out round-trip unchanged.
            "lockstep_group_sizes": {
                str(size): count
                for size, count in sorted(self._lockstep_group_sizes.items())
            },
            "trace_decode_hits": decode["hits"],
            "trace_decode_misses": decode["misses"],
        }

    def run_one(
        self,
        config: SimConfig,
        traces: Sequence[Trace],
        record_latencies: bool = False,
    ) -> dict:
        """Run (or look up) a single simulation."""
        return self.run(
            [SweepJob(config, tuple(traces), record_latencies)]
        )[0]

    def run_systems(
        self,
        named_configs: Mapping[str, SimConfig],
        traces: Sequence[Trace],
        record_latencies: bool = False,
    ) -> Dict[str, dict]:
        """Run one simulation per named configuration over shared traces."""
        names = list(named_configs)
        batch = [
            SweepJob(named_configs[name], tuple(traces), record_latencies)
            for name in names
        ]
        return dict(zip(names, self.run(batch)))
