"""Serve soak for ``cohort serve``: the real process, the real signal.

Starts ``python -m repro.cli serve --port 0`` as a subprocess (with the
operational log and service-trace export enabled) and reads the bound
address from its ``listening on`` banner, has two concurrent
clients submit the same batch (round 1), repeats the batch (round 2,
which must be >= 90% cache hits), sends one probe request with an
explicit ``X-Trace-Id`` and follows that id end to end (response
header, result envelope, oplog, exported Perfetto trace), saves a
``/metrics`` snapshot plus its Prometheus exposition, then sends
SIGTERM and requires a clean graceful drain (exit code 0, final
metrics snapshot written).

The assertions live in the shipped gate specs
(``repro/qa/specs/serve.json`` and ``repro/qa/specs/slo.json``): this
module only *measures* — request failures, cross-client mismatches,
the warm-round hit rate, the drain exit code, trace propagation — and
computes the SLO inputs from the oplog.  ``benchmarks/soak.py`` writes
both manifests, validates the oplog and trace, gates them and exits
with the worst verdict:

    python benchmarks/soak.py serve [artifact_dir]
"""

import json
import os
import signal
import subprocess
import sys
import threading

from repro.obs import compute_slo, read_oplog
from repro.obs.ops import render_slo
from repro.qa import build_manifest
from repro.serve import ServeClient
from soak import archive_metrics

PROBE_TRACE_ID = "serve-smoke-probe-trace"

OPLOG = "serve.oplog.jsonl"
TRACE = "serve.trace.json"
SCHEMA_TAGGED = (OPLOG, TRACE)

SPECS = [
    {"benchmark": "fft", "thetas": thetas, "scale": 0.1, "seed": 0}
    for thetas in (
        [60, 20, 20, 20],
        [120, 60, 20, 20],
        [300, 60, 60, 60],
    )
]


def start_server(args):
    """Start ``cohort serve --port 0``; returns ``(proc, base_url)``.

    The address comes from the server's ``listening on`` banner, so the
    soak never races another process for a fixed port.  A server that
    exits before printing it (a bad flag, a crash on boot) fails the
    harness at once.
    """
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *args],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    marker = "listening on "
    for line in proc.stdout:
        print(line, end="")
        if marker in line:
            return proc, line.split(marker, 1)[1].split()[0]
    code = proc.wait()
    raise SystemExit(f"cohort serve exited ({code}) before listening")


def submit_round(base_url, label):
    """Two concurrent clients submit the same batch.

    Returns ``(failures, mismatches)`` — jobs that did not land, and
    whether the two clients disagreed on results — for the gate spec to
    judge; only harness breakage (a client thread never finishing)
    aborts directly.
    """
    outcomes = [None, None]

    def one_client(slot):
        local = ServeClient(base_url, timeout=60.0)
        outcomes[slot] = local.submit_and_wait(
            SPECS, max_retries=20, timeout=300
        )

    threads = [
        threading.Thread(target=one_client, args=(slot,)) for slot in (0, 1)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    failures = 0
    for slot, records in enumerate(outcomes):
        if records is None:
            raise SystemExit(f"{label}: client {slot} did not finish")
        for record in records:
            if record["status"] != "done":
                print(
                    f"serve soak: {label}: job {record['id']} -> "
                    f"{record['status']} ({record['error']})",
                    file=sys.stderr,
                )
                failures += 1
    payloads = [
        json.dumps([r["result"] for r in records], sort_keys=True)
        for records in outcomes
    ]
    mismatches = 0 if payloads[0] == payloads[1] else 1
    if mismatches:
        print(f"serve soak: {label}: the two clients disagree on results",
              file=sys.stderr)
    print(f"serve soak: {label} measured "
          f"({2 * len(SPECS)} jobs across 2 clients, "
          f"{failures} failures, {mismatches} mismatches)")
    return failures, mismatches


def probe_trace(client):
    """Submit one job with an explicit trace id; measure propagation.

    Returns ``(header_ok, envelope_ok)`` — whether the 202 response
    echoed ``X-Trace-Id`` (header and body) and whether the final
    result envelope carried the same id.  The oplog/trace-file halves
    of the check run after drain, once those artefacts are flushed.
    """
    status, headers, doc = client._request(
        "POST", "/jobs", {"jobs": [SPECS[0]]},
        extra_headers={"X-Trace-Id": PROBE_TRACE_ID},
    )
    if status != 202 or not isinstance(doc, dict):
        raise SystemExit(f"probe submission returned {status}")
    lower = {key.lower(): value for key, value in headers.items()}
    header_ok = (
        lower.get("x-trace-id") == PROBE_TRACE_ID
        and doc.get("trace_id") == PROBE_TRACE_ID
    )
    finished = client.wait([job["id"] for job in doc["jobs"]], timeout=120)
    envelope_ok = all(
        record["trace_id"] == PROBE_TRACE_ID
        for record in finished.values()
    )
    return header_ok, envelope_ok


def measure(out_dir):
    """Run the soak in ``out_dir``; returns the serve and slo manifests."""
    final_metrics = os.path.join(out_dir, "final.metrics.json")
    oplog_path = os.path.join(out_dir, OPLOG)
    trace_path = os.path.join(out_dir, TRACE)
    proc, base_url = start_server([
        "--jobs", "2",
        "--max-batch", "8",
        "--queue-limit", "32",
        "--cache-dir", os.path.join(out_dir, "cache"),
        "--metrics-out", final_metrics,
        "--oplog", oplog_path,
        "--trace-out", trace_path,
    ])
    try:
        client = ServeClient(base_url, timeout=30.0)

        round1_failures, round1_mismatches = submit_round(base_url, "round 1")
        before = client.metrics()["runner"]
        round2_failures, round2_mismatches = submit_round(
            base_url, "round 2 (duplicate)"
        )
        after = client.metrics()

        delta_hits = after["runner"]["cache_hits"] - before["cache_hits"]
        delta_misses = (
            after["runner"]["cache_misses"] - before["cache_misses"]
        )
        round2_jobs = 2 * len(SPECS)
        hit_rate = delta_hits / round2_jobs
        print(f"serve soak: round-2 cache hits {delta_hits}/{round2_jobs} "
              f"(misses {delta_misses})")

        header_ok, envelope_ok = probe_trace(client)
        after = client.metrics()

        metrics_snapshot = archive_metrics(
            after, client.host, client.port, os.path.join(out_dir, "metrics")
        )

        proc.send_signal(signal.SIGTERM)
        print(proc.communicate(timeout=60)[0], end="")
        code = proc.returncode
        snapshot_written = os.path.exists(final_metrics)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

    # The probe id must also survive into the flushed artefacts: the
    # oplog (admit → retire) and the exported Perfetto service trace.
    oplog_events = read_oplog(oplog_path)
    probe_events = {
        event["event"] for event in oplog_events
        if event.get("trace_id") == PROBE_TRACE_ID
    }
    oplog_ok = {"admit", "retire"} <= probe_events
    with open(trace_path) as fh:
        trace_doc = json.load(fh)
    trace_ok = any(
        event.get("args", {}).get("trace_id") == PROBE_TRACE_ID
        for event in trace_doc.get("traceEvents", [])
    )
    trace_propagation_ok = (
        header_ok and envelope_ok and oplog_ok and trace_ok
    )
    print(
        "serve soak: trace propagation "
        f"header={header_ok} envelope={envelope_ok} "
        f"oplog={oplog_ok} trace={trace_ok}"
    )

    artifacts = [metrics_snapshot, oplog_path, trace_path]
    if snapshot_written:
        artifacts.append(final_metrics)
    manifest = build_manifest(
        "serve_smoke", f"2 clients x {len(SPECS)} jobs x 2 rounds",
        metrics={
            "round1_failures": round1_failures,
            "round2_failures": round2_failures,
            "client_mismatches": round1_mismatches + round2_mismatches,
            "round2_hit_rate": hit_rate,
            "round2_cache_misses": delta_misses,
            "drain_exit_code": code,
            "final_snapshot_written": snapshot_written,
            "trace_propagation_ok": trace_propagation_ok,
        },
        engine=after["runner"]["engine"],
        artifact_paths=artifacts,
        environment={"port": client.port, "jobs": 2},
    )

    # Second verdict: the SLO gate over the whole run's oplog.
    slo_metrics = compute_slo(oplog_events)
    print(render_slo(slo_metrics))
    slo_manifest = build_manifest(
        "slo", "serve_smoke oplog",
        metrics=slo_metrics,
        artifact_paths=[oplog_path],
        environment={"port": client.port, "jobs": 2},
    )
    return [("serve", manifest, None), ("slo", slo_manifest, None)]
