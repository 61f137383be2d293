"""Chaos soak for ``cohort fleet``: kill it, hang it, corrupt its disk.

Runs a real shard fleet (an in-process router supervising real
``cohort serve`` subprocesses sharing one budgeted cache directory) and
injects the failure modes the fleet claims to survive, while a steady
workload flows through it:

* ``SIGKILL`` on a shard with accepted jobs in flight (at least twice),
* ``SIGSTOP`` on a shard — a hung process that still owns a socket —
  until the heartbeat deadline declares it dead and the supervisor
  replaces it,
* disk faults in the shared result cache: entries truncated and
  overwritten with garbage, which the hardened cache tier must
  quarantine rather than serve or crash on.

Throughout, a background prober samples router ``/healthz``
availability.  After the soak the script settles the fleet (every shard
healthy again), then measures:

* **durability** — every 202-accepted job reached ``done`` (zero lost,
  zero failed), the write-ahead journal is empty,
* **correctness** — every result is byte-identical to a direct
  ``SweepRunner.run`` of the same spec on a private cache,
* **recovery** — every killed/hung shard came back, worst recovery
  time bounded, router availability above the floor,
* **cache hygiene** — corrupt entries quarantined with counters, total
  size within the configured budget.

The verdict lives in the shipped gate spec
(``repro/qa/specs/chaos.json``): this module only measures, leaves its
artefacts (fleet metrics snapshot, Prometheus scrape, oplog) in the
artifact directory and returns a ``kind="chaos"`` run manifest, which
``benchmarks/soak.py`` writes, gates and turns into the exit code:

    python benchmarks/soak.py chaos [artifact_dir]
"""

import json
import os
import signal
import sys
import threading
import time

from repro.obs import OpLogger
from repro.qa import build_manifest
from repro.runner import SweepRunner
from repro.serve import FleetThread, ServeClient
from repro.serve.service import JobSpec
from soak import archive_metrics

OPLOG = "fleet.oplog.jsonl"
SCHEMA_TAGGED = (OPLOG,)

#: The soak workload: unique tiny jobs (distinct digests) so cache
#: entries, journal entries and results are all attributable.
SPECS = [
    {"benchmark": "fft", "thetas": [60 + 10 * i, 20, 20, 20],
     "scale": 0.05, "seed": 0}
    for i in range(8)
]

SHARDS = 3
WAVES = 3
DISK_FAULTS_PLANNED = 2
SETTLE_TIMEOUT = 90.0
WAIT_TIMEOUT = 300.0


class AvailabilityProber(threading.Thread):
    """Samples router ``/healthz`` in the background; 200 == available."""

    def __init__(self, base_url, interval=0.2):
        super().__init__(daemon=True)
        self.client = ServeClient(base_url, timeout=2.0)
        self.interval = interval
        self.samples = 0
        self.successes = 0
        self._halt = threading.Event()

    def run(self):
        while not self._halt.is_set():
            self.samples += 1
            try:
                self.client.healthz()
                self.successes += 1
            except Exception:
                pass
            self._halt.wait(self.interval)

    def stop(self):
        self._halt.set()
        self.join(timeout=5)

    @property
    def availability(self):
        return self.successes / self.samples if self.samples else 0.0


def compute_expected(out_dir):
    """Direct ``SweepRunner.run`` ground truth, on a private cache.

    Also returns the mean on-disk entry size so the fleet's cache
    budget can be set tight enough to force evictions without starving
    the working set.
    """
    cache_dir = os.path.join(out_dir, "reference-cache")
    runner = SweepRunner(jobs=1, cache_dir=cache_dir)
    jobs = [JobSpec.from_dict(spec).to_sweep_job() for spec in SPECS]
    results = runner.run(jobs)
    expected = {
        json.dumps(spec, sort_keys=True): json.dumps(result, sort_keys=True)
        for spec, result in zip(SPECS, results)
    }
    sizes = [
        os.path.getsize(os.path.join(cache_dir, name))
        for name in os.listdir(cache_dir)
        if name.endswith(".json")
    ]
    mean_size = sum(sizes) // max(1, len(sizes))
    return expected, mean_size


def submit_wave(client, label):
    """Submit every spec once; returns the accepted (id, spec) pairs."""
    accepted = client.submit(SPECS, max_retries=20)
    if len(accepted) != len(SPECS):
        raise SystemExit(f"{label}: accepted {len(accepted)}/{len(SPECS)} jobs")
    print(f"chaos_soak: {label}: accepted {len(accepted)} jobs")
    return [(doc["id"], spec) for doc, spec in zip(accepted, SPECS)]


def corrupt_cache_entries(cache_dir, digests, count):
    """Inject disk faults: truncate one entry, garbage the others.

    Only entries from ``digests`` (specs whose memo-holding shard is
    about to be killed or hung) are touched: their next execution is
    guaranteed to land on a shard that must read the corrupted file
    from disk — the quarantine path, not a warm in-process memo.
    """
    victims = [
        digest for digest in digests
        if os.path.exists(os.path.join(cache_dir, f"{digest}.json"))
    ][:count]
    if not victims:
        raise SystemExit("no on-disk cache entries eligible for corruption")
    for i, digest in enumerate(victims):
        path = os.path.join(cache_dir, f"{digest}.json")
        if i % 2 == 0:
            # A torn write: the file ends mid-document.
            with open(path, "r+") as fh:
                fh.truncate(max(1, os.path.getsize(path) // 2))
        else:
            with open(path, "w") as fh:
                fh.write('{"digest": "not-the-right-digest"}')
        # Pin the mtime into the future so LRU eviction (oldest-first)
        # cannot collect the corpse before a shard has had to read it —
        # the fault must be *observed*, not tidied away.
        future = time.time() + 3600
        os.utime(path, (future, future))
        print(f"chaos_soak: disk fault injected into {digest[:12]}…json")
    return len(victims)


def settle(client, deadline=SETTLE_TIMEOUT):
    """Wait until every shard reports up again; returns final metrics."""
    end = time.monotonic() + deadline
    doc = None
    while time.monotonic() < end:
        doc = client.metrics()
        states = [shard["state"] for shard in doc["shards"]]
        if all(state == "up" for state in states):
            return doc
        time.sleep(0.5)
    raise SystemExit(f"fleet did not heal within {deadline}s: "
                     f"{[s['state'] for s in (doc or {}).get('shards', [])]}")


def measure(out_dir):
    """Run the soak in ``out_dir``; returns the chaos manifest."""
    expected, entry_size = compute_expected(out_dir)
    # Budget ~60% of the full working set: evictions must fire, but a
    # useful fraction of entries stays resident.
    budget = max(4096, int(entry_size * len(SPECS) * 0.6))
    print(f"chaos_soak: cache entry ~{entry_size}B, budget {budget}B")

    fleet_dir = os.path.join(out_dir, "fleet")
    cache_dir = os.path.join(fleet_dir, "cache")
    oplog_path = os.path.join(out_dir, OPLOG)

    kills = 0
    hangs = 0
    disk_faults = 0
    all_accepted = []

    fleet = FleetThread(
        shards=SHARDS,
        fleet_dir=fleet_dir,
        cache_dir=cache_dir,
        cache_budget_bytes=budget,
        heartbeat_deadline=1.5,
        oplog=OpLogger(path=oplog_path, component="fleet"),
    )
    fleet.start()
    prober = AvailabilityProber(fleet.base_url)
    prober.start()
    try:
        client = ServeClient(fleet.base_url, timeout=30.0,
                             connect_retries=5)
        supervisor = fleet.supervisor

        # Wave 1: populate the cache and the journal under no faults.
        all_accepted += submit_wave(client, "wave 1 (clean)")
        client.wait([job_id for job_id, _ in all_accepted],
                    timeout=WAIT_TIMEOUT)

        # Wave 2: resubmit everything, then SIGKILL a shard mid-flight;
        # its in-flight jobs must be requeued and fail over.
        wave2 = submit_wave(client, "wave 2 (SIGKILL mid-flight)")
        all_accepted += wave2
        victim = supervisor.shards[0]
        os.kill(victim.pid, signal.SIGKILL)
        kills += 1
        print(f"chaos_soak: SIGKILL shard 0 (pid {victim.pid})")
        client.wait([job_id for job_id, _ in wave2], timeout=WAIT_TIMEOUT)
        settle(client)

        # Disk faults: corrupt on-disk entries for specs owned by
        # shards 1 and 2 — the shards wave 3 hangs/kills.  With their
        # memo holders gone, the resubmitted specs are forced through
        # the shared cache's disk path, where the corruption must be
        # quarantined (never served, never a crash).
        doomed_digests = [
            JobSpec.from_dict(spec).to_sweep_job().digest()
            for spec in SPECS
            if supervisor.ring.assign(
                JobSpec.from_dict(spec).spec_key()
            ) in (1, 2)
        ]
        disk_faults += corrupt_cache_entries(
            cache_dir, doomed_digests, DISK_FAULTS_PLANNED
        )

        # Wave 3: two concurrent failure domains — SIGKILL shard 2
        # outright and hang shard 1 (SIGSTOP: the process owns its
        # socket but never answers, so only the heartbeat deadline can
        # unmask it) — then push the whole workload through again.
        victim = supervisor.shards[2]
        os.kill(victim.pid, signal.SIGKILL)
        kills += 1
        print(f"chaos_soak: SIGKILL shard 2 (pid {victim.pid})")
        hung = supervisor.shards[1]
        os.kill(hung.pid, signal.SIGSTOP)
        hangs += 1
        print(f"chaos_soak: SIGSTOP shard 1 (pid {hung.pid})")
        time.sleep(0.5)
        wave3 = submit_wave(client, "wave 3 (hung + killed shards)")
        all_accepted += wave3
        client.wait([job_id for job_id, _ in wave3], timeout=WAIT_TIMEOUT)

        final = settle(client)
        prober.stop()

        # Durability + correctness over every accepted job.
        lost = 0
        failed = 0
        mismatched = 0
        for job_id, spec in all_accepted:
            record = client.job(job_id)
            if record["status"] == "failed":
                failed += 1
                print(f"chaos_soak: job {job_id} FAILED: "
                      f"{record['error']}", file=sys.stderr)
            elif record["status"] != "done":
                lost += 1
                print(f"chaos_soak: job {job_id} LOST "
                      f"(status {record['status']})", file=sys.stderr)
            else:
                got = json.dumps(record["result"], sort_keys=True)
                if got != expected[json.dumps(spec, sort_keys=True)]:
                    mismatched += 1
                    print(f"chaos_soak: job {job_id} result diverges "
                          f"from direct runner", file=sys.stderr)

        fleet_doc = final["fleet"]
        cache_doc = fleet_doc["cache"]
        snapshot_path = archive_metrics(
            final, fleet.host, fleet.port,
            os.path.join(out_dir, "fleet.metrics"),
        )
    finally:
        prober.stop()
        fleet.stop()

    over_budget = max(0, cache_doc.get("size_bytes", 0) - budget)
    metrics = {
        "accepted_jobs": len(all_accepted),
        "lost_jobs": lost,
        "failed_jobs": failed,
        "mismatched_results": mismatched,
        "shard_kills": kills,
        "hangs": hangs,
        "disk_faults": disk_faults,
        "shards_total": fleet_doc["shards_total"],
        "shards_up_final": fleet_doc["shards_up"],
        "restarts_total": fleet_doc["restarts_total"],
        "recoveries": fleet_doc["recoveries"],
        "recovery_seconds_max": fleet_doc["recovery_seconds_max"],
        "router_availability": prober.availability,
        "availability_samples": prober.samples,
        "failovers": fleet_doc["failovers"],
        "replayed_jobs": fleet_doc["replayed_jobs"],
        "journal_live_final": fleet_doc["journal_live"],
        "journal_torn_lines": fleet_doc["journal_torn_lines"],
        "cache_quarantined": cache_doc.get("quarantined", 0),
        "cache_evictions": cache_doc.get("evictions", 0),
        "cache_size_bytes": cache_doc.get("size_bytes", 0),
        "cache_budget_bytes": budget,
        "cache_over_budget_bytes": over_budget,
    }
    print("chaos_soak: " + json.dumps(metrics, indent=2, sort_keys=True))

    manifest = build_manifest(
        "chaos",
        f"{SHARDS} shards x {WAVES} waves x {len(SPECS)} jobs",
        metrics=metrics,
        artifact_paths=[snapshot_path, oplog_path],
        environment={"shards": SHARDS, "budget_bytes": budget},
    )
    return [("chaos", manifest, None)]
