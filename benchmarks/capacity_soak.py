"""Capacity soak for ``cohort fleet``: find the knee, hold the plateau.

The chaos soak (``benchmarks/chaos_soak.py``) proves the fleet
*survives*; this script proves it has *capacity*.  It runs a real
3-shard fleet (in-process router supervising ``cohort serve``
subprocesses over one shared cache) and drives it with the open-loop
Poisson generator (:mod:`repro.serve.loadgen`) in three phases:

1. **Warm-up** — every spec in the θ-population is executed once, so
   the plateau exercises the *warm* cache tier the way steady-state
   production traffic would (duplicate submissions, memo + disk hits).
2. **Ramp** — short open-loop windows at geometrically increasing
   arrival rates until the fleet saturates (sustained throughput falls
   behind the offered rate, or backpressure dominates).  The best
   sustained rate observed is the *knee*.
3. **Plateau** — a sustained hold just below the knee.  Queue-wait is
   measured from the *serve shards' own histograms* (before/after
   per-bucket deltas, so only plateau requests count), the warm hit
   rate from the fleet's aggregated cache counters, and routing
   balance from per-shard routed deltas.

The verdict lives in the shipped gate spec
(``repro/qa/specs/capacity.json``): this module only measures, leaves
its artefacts (fleet metrics snapshot, Prometheus scrape, oplog,
``BENCH_serving.json`` trajectory) in the artifact directory and
returns a ``kind="capacity"`` run manifest, which ``benchmarks/soak.py``
writes, gates and turns into the exit code.  The checked-in
``benchmarks/out/BENCH_serving.json`` is the regression baseline: the
gate warns when sustained throughput falls out of the band relative to
it.

    python benchmarks/soak.py capacity [artifact_dir]
"""

import json
import os
import time

from repro.obs import OpLogger
from repro.obs.metrics import LatencyHistogram
from repro.qa import build_manifest
from repro.serve import FleetThread, ServeClient
from repro.serve.loadgen import LoadGenerator, theta_population
from soak import archive_metrics

OPLOG = "fleet.oplog.jsonl"
SCHEMA_TAGGED = (OPLOG,)
BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "out", "BENCH_serving.json"
)

SHARDS = 3
POPULATION = 24
RAMP_START_RPS = 8.0
RAMP_WINDOW_S = 3.0
RAMP_MAX_RUNGS = 6
#: A rung saturates when it completes less than this fraction of its
#: offered rate, or when backpressure passes RAMP_429_CEILING.
SATURATION_FRACTION = 0.8
RAMP_429_CEILING = 0.2
#: The plateau holds at this fraction of the measured knee.
PLATEAU_FRACTION = 0.8
PLATEAU_S = 12.0
DRAIN_TIMEOUT_S = 60.0
SETTLE_TIMEOUT_S = 120.0


def shard_queue_wait(doc):
    """One merged queue-wait histogram over every reachable shard."""
    merged = LatencyHistogram()
    for shard in doc.get("shards", []):
        serve = shard.get("serve") or {}
        hist = (serve.get("service") or {}).get("queue_wait_ms")
        if hist:
            merged.merge(LatencyHistogram.from_dict(hist))
    return merged


def hist_delta(before, after):
    """Per-bucket ``after - before``: the histogram of one window."""
    counts = dict(after.counts)
    for bucket, count in before.counts.items():
        counts[bucket] = counts.get(bucket, 0) - count
    counts = {b: c for b, c in counts.items() if c > 0}
    return LatencyHistogram(
        counts=counts,
        total=max(0, after.total - before.total),
        sum=max(0, after.sum - before.sum),
        max=after.max,
    )


def wait_fleet_idle(client, timeout=SETTLE_TIMEOUT_S):
    """Block until the fleet has no pending admissions left."""
    deadline = time.monotonic() + timeout
    doc = None
    while time.monotonic() < deadline:
        doc = client.metrics()
        if doc["fleet"]["admission_pending"] == 0:
            return doc
        time.sleep(0.25)
    raise SystemExit(
        f"fleet still has {doc['fleet']['admission_pending']} pending "
        f"jobs after {timeout}s"
    )


def run_window(fleet, rate, duration, seed, population, workers=32):
    gen = LoadGenerator(
        fleet.host, fleet.port,
        rate=rate, duration=duration, population=population, seed=seed,
        workers=workers, drain_timeout=DRAIN_TIMEOUT_S,
    )
    return gen.run()


def load_baseline():
    """Sustained req/s of the checked-in trajectory (0.0 when absent)."""
    try:
        with open(BASELINE_PATH) as fh:
            return float(json.load(fh).get("sustained_rps", 0.0))
    except (OSError, ValueError):
        return 0.0


def measure(out_dir):
    """Run the soak in ``out_dir``; returns the capacity manifest."""
    fleet_dir = os.path.join(out_dir, "fleet")
    oplog_path = os.path.join(out_dir, OPLOG)
    population = theta_population(POPULATION)

    fleet = FleetThread(
        shards=SHARDS,
        fleet_dir=fleet_dir,
        cache_dir=os.path.join(fleet_dir, "cache"),
        admission_limit=512,
        shard_queue_limit=128,
        oplog=OpLogger(path=oplog_path, component="fleet"),
    )
    fleet.start()
    try:
        client = ServeClient(fleet.base_url, timeout=30.0,
                             connect_retries=5)

        # Phase 1: warm-up — every population spec executed once.
        accepted = client.submit(
            [spec.to_dict() for spec in population], max_retries=20
        )
        if len(accepted) != len(population):
            raise SystemExit(f"warm-up accepted {len(accepted)}/{len(population)}")
        client.wait([doc["id"] for doc in accepted], timeout=300.0)
        print(f"capacity_soak: warm-up done ({len(population)} specs)")

        # Phase 2: ramp to the knee.
        ramp = []
        knee_rps = 0.0
        rate = RAMP_START_RPS
        for rung in range(RAMP_MAX_RUNGS):
            report = run_window(
                fleet, rate, RAMP_WINDOW_S, seed=100 + rung,
                population=population,
            )
            doc = report.to_dict()
            ramp.append({
                "rate": rate,
                "offered_rps": doc["offered_rps"],
                "sustained_rps": doc["sustained_rps"],
                "ratio_429": doc["ratio_429"],
                "e2e_p99_ms": doc["e2e"]["p99_ms"],
                "launch_lag_p99_ms": doc["launch_lag"]["p99_ms"],
            })
            print(
                f"capacity_soak: ramp {rate:.0f} rps -> sustained "
                f"{doc['sustained_rps']:.1f} rps, 429 "
                f"{doc['ratio_429']:.2f}"
            )
            # Cap the rung's contribution at its *accepted* rate: a
            # shed-heavy rung completes its backlog during the drain
            # tail, which inflates sustained_rps past what the fleet
            # actually admitted per second — and a knee overestimated
            # that way makes the plateau over-offer and fail its own
            # backpressure ceiling.
            accepted_rps = (
                doc["accepted"] / doc["window_s"] if doc["window_s"] else 0.0
            )
            knee_rps = max(knee_rps, min(doc["sustained_rps"], accepted_rps))
            saturated = (
                doc["ratio_429"] > RAMP_429_CEILING
                or doc["sustained_rps"]
                < SATURATION_FRACTION * doc["offered_rps"]
            )
            if saturated:
                break
            rate *= 2
        if knee_rps <= 0:
            raise SystemExit("ramp never sustained any throughput")
        wait_fleet_idle(client)

        # Phase 3: plateau just below the knee, measured by deltas so
        # only plateau-window requests count.
        plateau_rate = max(1.0, PLATEAU_FRACTION * knee_rps)
        before = client.metrics()
        plateau = run_window(
            fleet, plateau_rate, PLATEAU_S, seed=7,
            population=population, workers=48,
        )
        final = wait_fleet_idle(client)
        after = client.metrics()

        wait_hist = hist_delta(
            shard_queue_wait(before), shard_queue_wait(after)
        )
        hits = (
            after["fleet"]["cache"].get("hits", 0)
            - before["fleet"]["cache"].get("hits", 0)
        )
        misses = (
            after["fleet"]["cache"].get("misses", 0)
            - before["fleet"]["cache"].get("misses", 0)
        )
        routed = [
            a["routed"] - b["routed"]
            for a, b in zip(after["shards"], before["shards"])
        ]
        routed_total = sum(routed)
        shares = (
            [r / routed_total for r in routed] if routed_total else [0.0]
        )

        snapshot_path = archive_metrics(
            after, fleet.host, fleet.port,
            os.path.join(out_dir, "fleet.metrics"),
        )
    finally:
        fleet.stop()

    plateau_doc = plateau.to_dict()
    metrics = {
        "shards": SHARDS,
        "population": POPULATION,
        "knee_rps": knee_rps,
        "plateau_rate_rps": plateau_rate,
        "plateau_offered": plateau_doc["offered"],
        "plateau_accepted": plateau_doc["accepted"],
        "offered_rps": plateau_doc["offered_rps"],
        "sustained_rps": plateau_doc["sustained_rps"],
        "completed_jobs": plateau_doc["completed"],
        "failed_jobs": plateau_doc["failed"],
        "lost_jobs": plateau_doc["lost"],
        "pending_at_end": plateau_doc["pending_at_end"],
        "rejected_429": plateau_doc["rejected_429"],
        "ratio_429": plateau_doc["ratio_429"],
        "errors": plateau_doc["errors"],
        "queue_wait_p50_ms": wait_hist.percentile(0.50),
        "queue_wait_p99_ms": wait_hist.percentile(0.99),
        "queue_wait_samples": wait_hist.total,
        "e2e_p50_ms": plateau_doc["e2e"]["p50_ms"],
        "e2e_p99_ms": plateau_doc["e2e"]["p99_ms"],
        "submit_p99_ms": plateau_doc["submit"]["p99_ms"],
        "launch_lag_p99_ms": plateau_doc["launch_lag"]["p99_ms"],
        "warm_hits": hits,
        "warm_misses": misses,
        "warm_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "shard_share_min": min(shares),
        "shard_share_max": max(shares),
        "journal_live_final": final["fleet"]["journal_live"],
        "baseline_sustained_rps": load_baseline(),
    }
    print("capacity_soak: " + json.dumps(metrics, indent=2, sort_keys=True))

    bench_path = os.path.join(out_dir, "BENCH_serving.json")
    with open(bench_path, "w") as fh:
        json.dump(
            {
                "workload": (
                    f"capacity_soak fft theta-population x{POPULATION}, "
                    f"{SHARDS} shards"
                ),
                "shards": SHARDS,
                "population": POPULATION,
                "ramp": ramp,
                "knee_rps": knee_rps,
                "plateau": plateau_doc,
                "sustained_rps": plateau_doc["sustained_rps"],
                "queue_wait_p99_ms": metrics["queue_wait_p99_ms"],
                "warm_hit_rate": metrics["warm_hit_rate"],
            },
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    print(f"capacity_soak: wrote trajectory {bench_path}")

    manifest = build_manifest(
        "capacity",
        f"{SHARDS} shards, knee {knee_rps:.0f} rps, "
        f"plateau {plateau_rate:.0f} rps x {PLATEAU_S:.0f}s",
        metrics=metrics,
        artifact_paths=[snapshot_path, oplog_path, bench_path],
        environment={"shards": SHARDS, "population": POPULATION},
    )
    return [("capacity", manifest, None)]
