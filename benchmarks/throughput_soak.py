"""Throughput soak: no silent slowdowns, no silent timing changes.

Re-runs the two reference systems of ``BENCH_throughput.json`` (the
checked-in artifact produced by ``benchmarks/test_sim_throughput.py``)
and distils both the artifact and the fresh measurements into
:class:`repro.qa.RunManifest` documents.  ``benchmarks/soak.py`` writes
the (baseline, candidate) pair and evaluates the shipped
``throughput`` gate spec (``repro/qa/specs/throughput.json``) over it.
The spec asks, question by question:

* do the simulated cycle counts match the artifact exactly (timing
  changes must come with a deliberate artifact and
  ``tests/data/cycle_reference_ocean4.json`` update)?
* are accesses/second within ``1 - tolerance`` (20%) of the
  artifact's recorded rates?
* does attaching the full ``repro.obs`` telemetry stack leave the cycle
  count untouched and cost at most ``telemetry_tolerance`` of the
  telemetry-off throughput measured in the same run?
* does the lock-step 64-config batch keep its cycle identity, clear the
  ``min_speedup`` floor, and stay within the regression band of the
  artifact's batch rate?

The bounds are the spec's params; ``cohort gate run --param`` re-judges
the written manifests under other values.

    python benchmarks/soak.py throughput [artifact_dir]
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from bench_workloads import TELEMETRY_ROUNDS, measure_lockstep, measure_telemetry
from repro.params import cohort_config, msi_fcfs_config
from repro.qa import build_manifest
from repro.sim.system import run_simulation
from repro.workloads import splash_traces

ARTIFACT = Path(__file__).parent / "out" / "BENCH_throughput.json"
SCHEMA_TAGGED = ()

SYSTEMS = {
    "cohort": lambda: cohort_config([60] * 4),
    "msi_fcfs": lambda: msi_fcfs_config(4),
}


def lockstep_metrics(lockstep: dict) -> dict:
    """The gated fields of a ``lockstep`` payload, artifact or fresh."""
    return {
        # Per-config cycle counts are compared by content digest.
        "lockstep_cycles_digest": hashlib.sha256(
            json.dumps(list(lockstep["final_cycles"])).encode()
        ).hexdigest(),
        "lockstep_speedup": lockstep["speedup"],
        "lockstep_accesses_per_second":
            lockstep["batch"]["accesses_per_second"],
        "lockstep_configs": lockstep["configs"],
    }


def baseline_manifest(reference: dict, artifact_path: Path):
    """Distil the checked-in benchmark artifact into a run manifest."""
    metrics = {"total_accesses": reference["total_accesses"]}
    for key in SYSTEMS:
        ref = reference["systems"][key]
        metrics[f"{key}_cycles"] = ref["cycles"]
        metrics[f"{key}_accesses_per_second"] = ref["accesses_per_second"]
    telemetry = reference.get("telemetry")
    if telemetry is not None:
        metrics["telemetry_cycles"] = telemetry["cycles"]
    lockstep = reference.get("lockstep")
    if lockstep is not None:
        metrics.update(lockstep_metrics(lockstep))
    return build_manifest(
        "bench_throughput", f"artifact {reference['workload']}",
        metrics=metrics,
        artifact_paths=[str(artifact_path)],
        environment={"source": "BENCH_throughput.json"},
    )


def measure_candidate(traces, total: int):
    """Re-measure everything the artifact records; returns a manifest."""
    metrics = {"total_accesses": total}

    for key, make_config in SYSTEMS.items():
        started = time.perf_counter()
        stats = run_simulation(make_config(), traces)
        wall = time.perf_counter() - started
        rate = total / wall
        metrics[f"{key}_cycles"] = stats.final_cycle
        metrics[f"{key}_accesses_per_second"] = rate
        print(
            f"measured {key}: {stats.final_cycle} cycles, "
            f"{rate:,.0f} accesses/s"
        )

    # Telemetry overhead: the same cohort run with the full repro.obs
    # stack attached, compared against a telemetry-off run measured in
    # the same invocation.  A negative median is clamped to 0
    # (telemetry cannot speed the engine up).
    cycles, off_med, on_med = measure_telemetry(traces)
    overhead = max(0.0, on_med / off_med - 1.0)
    metrics["telemetry_cycles"] = cycles
    metrics["telemetry_on_rate"] = total / on_med
    metrics["telemetry_off_rate"] = total / off_med
    metrics["telemetry_overhead"] = overhead
    print(
        f"measured cohort+telemetry: {cycles} cycles, "
        f"{total / on_med:,.0f} accesses/s cpu ({overhead:+.1%} vs "
        f"telemetry-off over median-of-{TELEMETRY_ROUNDS})"
    )

    # Lock-step batch: the pinned 64-config θ-sweep, same measurement
    # discipline (interleaved median-of-N rounds on CPU time — a single
    # sequential-then-batch pair swings the speedup by 20%+ on shared
    # runners).  Identity with the sequential runs is asserted inside
    # measure_lockstep; identity with the artifact is the gate's job.
    ls = measure_lockstep()
    metrics.update(lockstep_metrics(ls))
    print(
        f"measured lockstep: {ls['configs']} configs, "
        f"{ls['speedup']:.2f}x over sequential (median-of-{ls['rounds']} "
        f"cpu), {ls['batch']['accesses_per_second']:,.0f} accesses/s swept"
    )

    return build_manifest(
        "bench_throughput", "candidate ocean x4",
        config=SYSTEMS["cohort"](), traces=traces,
        metrics=metrics, seed=0,
    )


def measure(out_dir: str):
    """Measure the candidate; returns it with the artifact's baseline."""
    reference = json.loads(ARTIFACT.read_text())
    baseline = baseline_manifest(reference, ARTIFACT)
    traces = splash_traces("ocean", 4, scale=4.0, seed=0)
    total = sum(len(t) for t in traces)
    candidate = measure_candidate(traces, total)
    return [("throughput", candidate, baseline)]
