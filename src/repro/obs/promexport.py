"""Prometheus text-exposition view of the serve ``/metrics`` document.

``cohort serve`` keeps its JSON ``/metrics`` snapshot
(:data:`repro.obs.schema.SERVE_METRICS_SCHEMA`) byte-compatible; this
module renders the *same* counters as Prometheus text exposition format
(version 0.0.4) for ``GET /metrics?format=prometheus`` or an
``Accept: text/plain`` scrape:

* service and runner monotonic counters become ``_total`` counters,
* point-in-time values (queue depth, inflight, hit rate) become gauges,
* the service's :class:`~repro.obs.metrics.LatencyHistogram` snapshots
  become native Prometheus histograms — each log2 bucket's inclusive
  upper bound is an ``le`` bound, counts are re-emitted cumulatively,
  and ``+Inf``/``_sum``/``_count`` are derived exactly.

The fleet router's document (:data:`repro.obs.schema.FLEET_METRICS_SCHEMA`)
has its own renderer; :func:`prometheus_from_metrics` picks one of the
two by the document's ``schema`` tag.

:func:`parse_prometheus_text` is the matching stdlib-only checker used
by tests and the smoke job: it parses an exposition body back into
samples and enforces the format's invariants (``TYPE`` before samples,
cumulative non-decreasing buckets, ``+Inf == _count``), standing in for
a real scraper in an offline CI.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import bucket_range
from repro.obs.schema import FLEET_METRICS_SCHEMA, SERVE_METRICS_SCHEMA

#: Serve-service fields exposed as monotonic counters.
SERVICE_COUNTERS = (
    ("jobs_submitted", "Jobs admitted to the queue."),
    ("jobs_rejected", "Jobs refused with 429 backpressure."),
    ("jobs_dispatched", "Jobs handed to the runner in batches."),
    ("jobs_completed", "Jobs finished successfully."),
    ("jobs_failed", "Jobs that ended in error."),
    ("batches", "Micro-batches executed."),
)

#: Serve-service fields exposed as gauges.
SERVICE_GAUGES = (
    ("queue_depth", "Jobs currently waiting for a batch."),
    ("queue_limit", "Admission queue capacity."),
    ("inflight", "Jobs currently executing."),
    ("max_queue_depth", "High-water mark of the admission queue."),
    ("max_batch", "Configured micro-batch size cap."),
    ("retry_after", "Backpressure retry hint in seconds."),
)

#: Runner telemetry fields exposed as monotonic counters.
RUNNER_COUNTERS = (
    ("cache_hits", "Result-cache hits (incl. in-batch duplicates)."),
    ("cache_misses", "Result-cache misses."),
    ("jobs_executed", "Simulations actually executed."),
    ("parallel_batches", "Batches dispatched to the process pool."),
    ("worker_failures", "Worker-process deaths observed."),
    ("job_timeouts", "Jobs that hit the per-job timeout."),
    ("job_retries", "Job resubmissions after crash/timeout."),
    ("cache_store_failures", "Best-effort cache stores that failed."),
    ("cache_evictions", "Cache entries evicted by the size budget."),
    ("cache_evicted_bytes", "Bytes reclaimed by budget evictions."),
    ("cache_quarantined", "Corrupt cache envelopes moved to quarantine."),
    ("lockstep_groups", "Same-trace groups run in lock-step."),
    ("lockstep_jobs", "Jobs served by lock-step batches."),
    ("fast_jobs", "Jobs run on the per-event fast path."),
    ("lockstep_peeled", "Jobs peeled to the per-event path."),
    ("trace_decode_hits", "Trace decode-cache hits."),
    ("trace_decode_misses", "Trace decode-cache misses."),
)

#: Runner telemetry fields exposed as gauges.
RUNNER_GAUGES = (
    ("jobs", "Configured worker-process count."),
    ("cache_hit_rate", "Lifetime cache hit rate."),
    ("cache_size_bytes", "Bytes currently held by on-disk cache entries."),
    ("cache_budget_bytes", "Configured cache size budget (0 = unbounded)."),
    ("exec_seconds", "Wall-clock seconds spent executing jobs."),
    ("backoff_seconds", "Seconds slept in retry backoff."),
)


def _escape_label(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")
    )


def _labels(labels: Mapping[str, str]) -> str:
    """Render a label set, ``{}``-free when empty."""
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: Any) -> str:
    """One sample value in exposition syntax (ints stay integral)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    return repr(number)


class _Writer:
    """Accumulates exposition lines with one HELP/TYPE per family."""

    def __init__(self, labels: Mapping[str, str]) -> None:
        self.labels = dict(labels)
        self.lines: List[str] = []

    def sample(
        self,
        name: str,
        kind: str,
        help_text: str,
        value: Any,
        extra_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Emit one single-sample family (counter or gauge)."""
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")
        labels = dict(self.labels)
        if extra_labels:
            labels.update(extra_labels)
        self.lines.append(f"{name}{_labels(labels)} {_format_value(value)}")

    def histogram(
        self, name: str, help_text: str, hist: Mapping[str, Any]
    ) -> None:
        """Emit a ``LatencyHistogram.to_dict`` snapshot as a histogram.

        Log2 buckets are exact sub-ranges, so re-emitting each bucket's
        inclusive upper bound as its ``le`` boundary loses nothing: the
        cumulative count at ``le=2^b - 1`` is exactly the number of
        observations ``<= 2^b - 1``.
        """
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} histogram")
        buckets = {
            int(b): int(c) for b, c in dict(hist.get("buckets", {})).items()
        }
        total = int(hist.get("total", 0))
        cumulative = 0
        for bucket in sorted(buckets):
            cumulative += buckets[bucket]
            bound = bucket_range(bucket)[1]
            labels = dict(self.labels)
            labels["le"] = _format_value(float(bound))
            self.lines.append(
                f"{name}_bucket{_labels(labels)} {cumulative}"
            )
        labels = dict(self.labels)
        labels["le"] = "+Inf"
        self.lines.append(f"{name}_bucket{_labels(labels)} {total}")
        self.lines.append(
            f"{name}_sum{_labels(self.labels)} "
            f"{_format_value(hist.get('sum', 0))}"
        )
        self.lines.append(f"{name}_count{_labels(self.labels)} {total}")

    def render(self) -> str:
        """The full exposition body (trailing newline included)."""
        return "\n".join(self.lines) + "\n"


def prometheus_from_serve_metrics(doc: Mapping[str, Any]) -> str:
    """Render a serve ``/metrics`` JSON document as exposition text.

    Pure function of the snapshot — the JSON document stays the source
    of truth and its schema is untouched; this is an alternate encoding
    of the same numbers, scrapeable by a stock Prometheus.
    """
    service = doc.get("service", {})
    runner = doc.get("runner", {})
    writer = _Writer({"service": str(doc.get("label", "serve"))})
    writer.sample(
        "cohort_serve_up", "gauge",
        "1 while the service accepts work, 0 while draining.",
        0 if service.get("draining") else 1,
    )
    writer.sample(
        "cohort_serve_uptime_seconds", "gauge",
        "Seconds since the service started.",
        float(doc.get("uptime_seconds", 0.0)),
    )
    for field, help_text in SERVICE_COUNTERS:
        writer.sample(
            f"cohort_serve_{field}_total", "counter", help_text,
            service.get(field, 0),
        )
    for field, help_text in SERVICE_GAUGES:
        writer.sample(
            f"cohort_serve_{field}", "gauge", help_text,
            service.get(field, 0),
        )
    writer.histogram(
        "cohort_serve_batch_size",
        "Jobs per executed micro-batch.",
        service.get("batch_sizes", {}),
    )
    writer.histogram(
        "cohort_serve_queue_wait_ms",
        "Milliseconds jobs waited between admission and dispatch.",
        service.get("queue_wait_ms", {}),
    )
    for field, help_text in RUNNER_COUNTERS:
        writer.sample(
            f"cohort_runner_{field}_total", "counter", help_text,
            runner.get(field, 0),
        )
    for field, help_text in RUNNER_GAUGES:
        writer.sample(
            f"cohort_runner_{field}", "gauge", help_text,
            runner.get(field, 0),
        )
    return writer.render()


#: Fleet counters exposed as ``cohort_fleet_*_total``.
FLEET_COUNTERS = (
    ("jobs_submitted", "Jobs admitted by the fleet router."),
    ("jobs_completed", "Jobs finished successfully across the fleet."),
    ("jobs_failed", "Jobs that ended in error across the fleet."),
    ("jobs_rejected", "Jobs refused with fleet backpressure."),
    ("failovers", "Jobs re-routed off a dead shard to a live one."),
    ("replayed_jobs", "Accepted jobs requeued off a dead shard or "
                      "replayed from the journal on cold start."),
    ("restarts_total", "Shard restarts performed by the supervisor."),
    ("recoveries", "Completed shard down->healthy recoveries."),
)

#: Fleet gauges exposed as ``cohort_fleet_*``.
FLEET_GAUGES = (
    ("shards_total", "Configured shard count."),
    ("shards_up", "Shards currently healthy."),
    ("admission_pending", "Accepted jobs not yet finished."),
    ("admission_limit", "Fleet admission bound."),
    ("journal_live", "Unretired entries of the router's intake journal."),
    ("journal_torn_lines", "Torn journal lines tolerated on replay."),
    ("recovery_seconds_max", "Worst shard recovery time observed."),
    ("recovery_seconds_mean", "Mean shard recovery time observed."),
)

#: Aggregated shard cache-tier fields (summed over reachable shards)
#: exposed as ``cohort_fleet_cache_*``.
FLEET_CACHE_COUNTERS = (
    ("evictions", "Cache entries evicted by the size budget."),
    ("evicted_bytes", "Bytes reclaimed by budget evictions."),
    ("quarantined", "Corrupt cache envelopes quarantined."),
    ("hits", "Result-cache hits across shards."),
    ("misses", "Result-cache misses across shards."),
)


def prometheus_from_fleet_metrics(doc: Mapping[str, Any]) -> str:
    """Render a fleet ``/metrics`` JSON document as exposition text.

    Same contract as :func:`prometheus_from_serve_metrics`: the JSON
    snapshot (:data:`repro.obs.schema.FLEET_METRICS_SCHEMA`) stays the
    source of truth; this re-encodes the fleet counters, the aggregated
    cache-tier counters, and one ``cohort_fleet_shard_up`` gauge per
    shard (labelled by shard index) for a stock Prometheus scraper.
    """
    fleet = doc.get("fleet", {})
    cache = fleet.get("cache", {})
    writer = _Writer({"service": str(doc.get("label", "fleet"))})
    writer.sample(
        "cohort_fleet_up", "gauge",
        "1 while the fleet router accepts work, 0 while draining.",
        0 if fleet.get("draining") else 1,
    )
    writer.sample(
        "cohort_fleet_uptime_seconds", "gauge",
        "Seconds since the supervisor started.",
        float(doc.get("uptime_seconds", 0.0)),
    )
    for field, help_text in FLEET_COUNTERS:
        writer.sample(
            f"cohort_fleet_{field}_total", "counter", help_text,
            fleet.get(field, 0),
        )
    for field, help_text in FLEET_GAUGES:
        writer.sample(
            f"cohort_fleet_{field}", "gauge", help_text,
            fleet.get(field, 0),
        )
    for field, help_text in FLEET_CACHE_COUNTERS:
        writer.sample(
            f"cohort_fleet_cache_{field}_total", "counter", help_text,
            cache.get(field, 0),
        )
    writer.sample(
        "cohort_fleet_cache_size_bytes", "gauge",
        "Bytes currently held by the shared on-disk cache tier.",
        cache.get("size_bytes", 0),
    )
    writer.sample(
        "cohort_fleet_cache_budget_bytes", "gauge",
        "Configured cache size budget (0 = unbounded).",
        cache.get("budget_bytes", 0),
    )
    shards = doc.get("shards", [])
    if shards:
        writer.lines.append(
            "# HELP cohort_fleet_shard_up 1 while the shard answers "
            "health checks."
        )
        writer.lines.append("# TYPE cohort_fleet_shard_up gauge")
        for shard in shards:
            labels = dict(writer.labels)
            labels["shard"] = str(shard.get("index", "?"))
            writer.lines.append(
                f"cohort_fleet_shard_up{_labels(labels)} "
                f"{1 if shard.get('state') == 'up' else 0}"
            )
    return writer.render()


def prometheus_from_metrics(doc: Mapping[str, Any]) -> str:
    """Render a serve or fleet ``/metrics`` document as exposition text.

    The renderer is picked by the document's ``schema`` tag, so the
    HTTP front-end serves either backend's scrape without knowing which
    one it is talking to.
    """
    renderers = {
        SERVE_METRICS_SCHEMA: prometheus_from_serve_metrics,
        FLEET_METRICS_SCHEMA: prometheus_from_fleet_metrics,
    }
    schema = doc.get("schema")
    if schema not in renderers:
        raise ValueError(f"no Prometheus renderer for schema {schema!r}")
    return renderers[schema](doc)


_NAME_RE = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    rf"^(?P<name>{_NAME_RE})"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(rf'({_NAME_RE})="((?:[^"\\]|\\.)*)"')


def _parse_value(token: str) -> float:
    """A sample value token as a float (``+Inf``/``NaN`` included)."""
    if token == "+Inf":
        return math.inf
    if token == "-Inf":
        return -math.inf
    if token.lower() == "nan":
        return math.nan
    return float(token)


def parse_prometheus_text(
    text: str,
) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse exposition text; raise ``ValueError`` on format violations.

    Returns ``metric name → [(labels, value), …]`` in document order.
    Checks the invariants a scraper would enforce: well-formed sample
    and comment lines, a ``TYPE`` line preceding its family's samples,
    and — for histograms — cumulative, non-decreasing ``le`` buckets
    whose ``+Inf`` count equals ``_count``.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    types: Dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                if parts[2] in types:
                    raise ValueError(
                        f"line {number}: duplicate TYPE for {parts[2]}"
                    )
                if len(parts) < 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    raise ValueError(f"line {number}: bad TYPE line: {line}")
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {number}: malformed sample: {line}")
        name = match.group("name")
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = sum(
                len(m.group(0)) for m in _LABEL_RE.finditer(raw_labels)
            )
            pairs = _LABEL_RE.findall(raw_labels)
            separators = raw_labels.count(",")
            if not pairs or consumed + separators < len(raw_labels.strip()):
                raise ValueError(
                    f"line {number}: malformed labels: {{{raw_labels}}}"
                )
            labels = {key: value for key, value in pairs}
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        if family not in types and name not in types:
            raise ValueError(
                f"line {number}: sample {name} has no preceding TYPE"
            )
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {number}: bad sample value: {match.group('value')}"
            )
        samples.setdefault(name, []).append((labels, value))
    _check_histograms(samples, types)
    return samples


def _check_histograms(
    samples: Dict[str, List[Tuple[Dict[str, str], float]]],
    types: Dict[str, str],
) -> None:
    """Enforce histogram invariants over parsed samples."""
    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets = samples.get(f"{family}_bucket", [])
        counts = samples.get(f"{family}_count", [])
        if not buckets or not counts:
            raise ValueError(f"histogram {family} lacks buckets or _count")
        bounds = []
        for labels, value in buckets:
            if "le" not in labels:
                raise ValueError(f"histogram {family} bucket without le")
            bounds.append((_parse_value(labels["le"]), value))
        previous_bound = -math.inf
        previous_count = 0.0
        for bound, count in bounds:
            if bound <= previous_bound:
                raise ValueError(
                    f"histogram {family}: le bounds not increasing"
                )
            if count < previous_count:
                raise ValueError(
                    f"histogram {family}: bucket counts not cumulative"
                )
            previous_bound, previous_count = bound, count
        if bounds[-1][0] != math.inf:
            raise ValueError(f"histogram {family}: missing +Inf bucket")
        if bounds[-1][1] != counts[0][1]:
            raise ValueError(
                f"histogram {family}: +Inf bucket != _count"
            )
