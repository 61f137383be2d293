"""serve_warm: open-loop jobs against a warmed two-shard ``cohort fleet``.

The fleet runs as its own process (``python -m repro.cli fleet``), which
supervises two ``cohort serve`` shards over one result cache.  Set-up
spawns it and warms the cache with the whole population; the timed
phase then fires a seeded open-loop schedule at a fixed rate, so every
job is a warm cache hit and latency comes from the serving layers:
router admission and journal, dispatch and collect, shard batching and
client polling.

Every job is timed from its scheduled arrival to the moment the client
observes it done, from raw samples kept here (no histogram buckets).
"""

from __future__ import annotations

import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs.metrics import LatencyHistogram
from repro.runner import SweepRunner
from repro.serve.client import BackpressureError, ServeClient, ServeClientError

import inputs
import stats

SHARDS = 2
#: Offered load (jobs/s): below where 429s start on a two-core host.
RATE = 50.0
#: A job done later than this after its arrival misses the goodput limit.
GOODPUT_LIMIT_MS = 1000.0
#: How often the client polls its in-flight jobs (s).
POLL_INTERVAL = 0.02
POLL_BATCH = 64
#: How long the client keeps polling after the last arrival (s).
DRAIN_TIMEOUT = 20.0
SPAWN_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
#: Fleet set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3


class Fleet:
    """One ``cohort fleet`` process and the shard PIDs it supervises."""

    def __init__(self, root: str, src: str) -> None:
        os.makedirs(root, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "fleet",
                "--shards", str(SHARDS), "--port", "0",
                "--fleet-dir", os.path.join(root, "fleet"),
                "--cache-dir", os.path.join(root, "cache"),
            ],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.shard_pids: List[int] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.url = self._await_router()
        except BaseException:
            self.stop()
            raise

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_router(self) -> str:
        deadline = time.monotonic() + SPAWN_TIMEOUT
        while time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=0.1)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError("fleet exited before listening")
            marker = "router on "
            if marker in line:
                return line.split(marker, 1)[1].split()[0]
        raise RuntimeError("fleet did not listen in time")

    def pids(self) -> List[int]:
        return [self.proc.pid] + self.shard_pids

    def stop(self) -> None:
        """Drain the fleet with SIGTERM; kill whatever outlives the wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=STOP_TIMEOUT)
        # Shards run in their own sessions, so a router killed before it
        # drained would leave them behind.
        for pid in self.shard_pids:
            _wait_gone(pid)


def _wait_gone(pid: int) -> None:
    deadline = time.monotonic() + STOP_TIMEOUT
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except OSError:
            return
        time.sleep(0.05)
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def _warm(fleet: Fleet, population) -> None:
    """Run the population through the fleet twice: compute, then hit."""
    client = ServeClient(fleet.url, timeout=60.0, connect_retries=5)
    for _ in range(2):
        accepted = client.submit([s.to_dict() for s in population])
        done = client.wait([d["id"] for d in accepted], timeout=120.0)
        bad = [r for r in done.values() if r["status"] != "done"]
        if bad:
            raise RuntimeError(f"warm-up job failed: {bad[0].get('error')}")
    doc = client.metrics()
    fleet.shard_pids = [s["pid"] for s in doc["shards"] if s["pid"]]


def set_up(work: str, src: str, population) -> tuple:
    """``SETUP_REPS`` fresh spawn-and-warm cycles; keeps the last fleet."""
    times = []
    fleet = None
    for rep in range(SETUP_REPS):
        if fleet is not None:
            fleet.stop()
        started = time.perf_counter()
        fleet = Fleet(os.path.join(work, f"setup{rep}"), src)
        try:
            _warm(fleet, population)
        except BaseException:
            fleet.stop()
            raise
        times.append(time.perf_counter() - started)
    return fleet, times


class OpenLoop:
    """Seeded open-loop arrivals, ``os.cpu_count()`` submitters, one poller.

    The schedule holds exactly ``rate × seconds`` arrivals at uniformly
    drawn instants (a Poisson process conditioned on its count), so the
    offered load is the same for every seed.
    """

    def __init__(self, url: str, population, rate: float, seconds: float,
                 seed: int) -> None:
        rng = random.Random(seed)
        count = max(1, round(rate * seconds))
        self.schedule = sorted(rng.uniform(0, seconds) for _ in range(count))
        self.choices = [rng.randrange(len(population)) for _ in range(count)]
        self.population = population
        self.url = url
        self.submitters = os.cpu_count() or 1
        self.lock = threading.Lock()
        #: job id → per-job record (times are ``time.monotonic()``).
        self.jobs: Dict[str, Dict[str, Any]] = {}
        self.inflight: Dict[str, Dict[str, Any]] = {}
        self.counts = {
            "offered": count, "accepted": 0, "rejected_429": 0,
            "errored": 0, "failed": 0, "lost": 0, "pending_at_end": 0,
        }
        self.launch_lag_ms: List[float] = []
        self.poll_requests = 0
        self.arrivals: "queue.Queue[Optional[tuple]]" = queue.Queue()
        self.t0 = 0.0
        self.window_end = 0.0

    def run(self) -> None:
        submitters = [
            threading.Thread(target=self._submit_loop)
            for _ in range(self.submitters)
        ]
        done = threading.Event()
        poller = threading.Thread(target=self._poll_loop, args=(done,))
        for thread in submitters + [poller]:
            thread.start()
        self.t0 = time.monotonic()
        try:
            for offset, choice in zip(self.schedule, self.choices):
                delay = self.t0 + offset - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                self.arrivals.put((self.t0 + offset, choice))
        finally:
            for _ in submitters:
                self.arrivals.put(None)
            for thread in submitters:
                thread.join()
            deadline = time.monotonic() + DRAIN_TIMEOUT
            while time.monotonic() < deadline:
                with self.lock:
                    if not self.inflight:
                        break
                time.sleep(POLL_INTERVAL)
            done.set()
            poller.join()
        self.counts["pending_at_end"] = len(self.inflight)

    def _submit_loop(self) -> None:
        client = ServeClient(self.url, timeout=30.0)
        while True:
            item = self.arrivals.get()
            if item is None:
                return
            scheduled, choice = item
            fired = time.monotonic()
            with self.lock:
                self.launch_lag_ms.append((fired - scheduled) * 1e3)
            try:
                accepted = client.submit([self.population[choice]])
            except BackpressureError:
                with self.lock:
                    self.counts["rejected_429"] += 1
                continue
            except (ServeClientError, OSError):
                with self.lock:
                    self.counts["errored"] += 1
                continue
            answered = time.monotonic()
            with self.lock:
                for doc in accepted:
                    record = {
                        "choice": choice, "scheduled": scheduled,
                        "accept_ms": (answered - fired) * 1e3,
                    }
                    self.jobs[doc["id"]] = record
                    self.inflight[doc["id"]] = record
                self.counts["accepted"] += len(accepted)

    def _poll_loop(self, done: threading.Event) -> None:
        client = ServeClient(self.url, timeout=30.0)
        while not done.is_set():
            time.sleep(POLL_INTERVAL)
            with self.lock:
                pending = list(self.inflight)
            for start in range(0, len(pending), POLL_BATCH):
                self._poll(client, pending[start:start + POLL_BATCH])

    def _poll(self, client: ServeClient, ids: List[str]) -> None:
        self.poll_requests += 1
        try:
            records = client.poll_jobs(ids, include_result=False)
        except ServeClientError as exc:
            if exc.status == 404:
                self._find_lost(client, ids)
            return
        observed = time.monotonic()
        with self.lock:
            for job_id, doc in (records or {}).items():
                if doc["status"] not in ("done", "failed"):
                    continue
                record = self.inflight.pop(job_id, None)
                if record is None:
                    continue
                record["status"] = doc["status"]
                record["e2e_ms"] = (observed - record["scheduled"]) * 1e3
                record["fleet_ms"] = (
                    doc["finished_at"] - doc["submitted_at"]
                ) * 1e3
                self.window_end = max(self.window_end, observed)
                if doc["status"] == "failed":
                    self.counts["failed"] += 1

    def _find_lost(self, client: ServeClient, ids: List[str]) -> None:
        """An accepted id the fleet no longer knows is a lost job."""
        for job_id in ids:
            try:
                client.job(job_id)
            except ServeClientError as exc:
                if exc.status == 404:
                    with self.lock:
                        if self.inflight.pop(job_id, None) is not None:
                            self.counts["lost"] += 1


def _services(doc) -> List[Dict[str, Any]]:
    """The ``service`` section of each shard's ``/metrics`` document."""
    return [
        ((shard.get("serve") or {}).get("service") or {})
        for shard in doc["shards"]
    ]


def _merged(doc, key: str) -> LatencyHistogram:
    """Shard histogram ``key`` merged over every shard."""
    hist = LatencyHistogram()
    for service in _services(doc):
        if service.get(key):
            hist.merge(LatencyHistogram.from_dict(service[key]))
    return hist


def _histogram(before, after, key: str) -> LatencyHistogram:
    """Shard histogram ``key`` of the window between two snapshots."""
    old, new = _merged(before, key), _merged(after, key)
    counts = {
        bucket: count - old.counts.get(bucket, 0)
        for bucket, count in new.counts.items()
        if count > old.counts.get(bucket, 0)
    }
    return LatencyHistogram(
        counts=counts, total=new.total - old.total, sum=new.sum - old.sum,
    )


def _check_results(client: ServeClient, load: OpenLoop, population,
                   report) -> None:
    """Every served result must equal a direct ``SweepRunner.run``."""
    direct = SweepRunner(jobs=1, cache_dir=None).run(
        [spec.to_sweep_job() for spec in population]
    )
    expected = [json.dumps(r, sort_keys=True) for r in direct]
    done = [i for i, r in load.jobs.items() if r.get("status") == "done"]
    for start in range(0, len(done), POLL_BATCH):
        chunk = done[start:start + POLL_BATCH]
        records = client.poll_jobs(chunk, include_result=True) or {}
        for job_id in chunk:
            served = json.dumps(records[job_id]["result"], sort_keys=True)
            if served != expected[load.jobs[job_id]["choice"]]:
                report.mismatch(
                    f"job {job_id} result differs from a direct run of "
                    f"population spec {load.jobs[job_id]['choice']}"
                )
                return


def run(report, seed: int, seconds: float, trace: bool, work: str,
        src: str) -> None:
    population = inputs.serve_population()
    fleet, setup_times = set_up(work, src, population)
    try:
        client = ServeClient(fleet.url, timeout=60.0)
        started = time.perf_counter()
        before = client.metrics() if trace else None
        snapshot_s = time.perf_counter() - started
        load = OpenLoop(fleet.url, population, RATE, seconds, seed)
        load.run()
        if trace:
            started = time.perf_counter()
            after = client.metrics()
            snapshot_s += time.perf_counter() - started
        rss = stats.peak_rss_mb(fleet.pids())
        _check_results(client, load, population, report)
    finally:
        fleet.stop()

    counts = load.counts
    done = [r for r in load.jobs.values() if r.get("status") == "done"]
    e2e = [r["e2e_ms"] for r in done]
    unsuccessful = counts["offered"] - len(done)
    report.attempted = counts["offered"]
    report.failed = unsuccessful
    accesses = inputs.accesses(population[0].to_sweep_job().traces)
    window = (load.window_end - load.t0) if done else 0.0
    rps = len(done) / window if window else 0.0

    report.timing("setup_s", setup_times, "s")
    report.add("peak_rss_mb", rss, "MiB")
    report.add("success_share", 1 - unsuccessful / counts["offered"], "share")
    report.add("sweep_accesses_per_s", rps * accesses, "1/s")
    report.add("sustained_rps", rps, "1/s")
    report.latency("e2e", e2e)
    report.add(
        "goodput_share",
        sum(1 for v in e2e if v <= GOODPUT_LIMIT_MS) / counts["offered"],
        "share",
    )
    report.counts(counts)
    if not trace:
        return

    accept = [r["accept_ms"] for r in done]
    fleet_ms = [r["fleet_ms"] for r in done]
    lag = [r["e2e_ms"] - r["accept_ms"] - r["fleet_ms"] for r in done]
    report.latency("client.accept", accept)
    report.latency("fleet.job", fleet_ms)
    report.latency("client.observe_lag", lag)
    report.latency("loadgen.launch_lag", load.launch_lag_ms)
    waits = _histogram(before, after, "queue_wait_ms")
    report.add(
        "shard.queue_wait_p99_ms", waits.percentile(0.99), "ms",
        f"log2 bucket upper bound, n={waits.total}",
    )
    sizes = _histogram(before, after, "batch_sizes")
    report.add("shard.batches", sizes.total, "count")
    report.add("shard.batch_size_mean", sizes.mean, "jobs")
    report.add(
        "client.poll_requests_per_job",
        load.poll_requests / max(1, counts["accepted"]), "count",
    )
    for shard_after, shard_before in zip(after["shards"], before["shards"]):
        report.add(
            f"fleet.routed.{shard_after['index']}",
            shard_after["routed"] - shard_before["routed"], "count",
        )
    for key, name in (("jobs_rejected", "fleet.rejected_429"),
                      ("failovers", "fleet.failovers")):
        report.add(name, after["fleet"][key] - before["fleet"][key], "count")
    hits = after["fleet"]["cache"]["hits"] - before["fleet"]["cache"]["hits"]
    misses = (
        after["fleet"]["cache"]["misses"] - before["fleet"]["cache"]["misses"]
    )
    report.add(
        "runner.cache_hit_rate",
        hits / (hits + misses) if hits + misses else 0.0, "share",
    )
    if misses:
        report.mismatch(
            f"{misses} runner cache misses on a warmed population"
        )
    report.add(
        "trace.overhead_share",
        snapshot_s / (window or 1.0), "share",
        "the traced run adds two /metrics snapshots outside the window",
    )
