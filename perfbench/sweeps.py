"""sweep_lu and sweep_timer: θ-sweeps through ``SweepRunner.run``.

Every call into the runner sweeps the workload's whole config pool over
one shared trace set, in a seeded order, with the default engine,
``jobs = os.cpu_count()`` and a fresh on-disk result cache, so every
config is simulated.  Set-up is trace generation plus the first decode,
repeated before every call;
after an untimed warm-up on shortened traces, the timed phase repeats
calls while the next one fits in the run's seconds and reports the
fastest.  The traced run profiles one call with ``cProfile`` and groups
host self time by layer.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import shutil
import statistics
import time
from typing import List, Sequence

from repro.runner import SweepJob, SweepRunner
from repro.sim.trace import clear_decode_cache, decode_stats, decode_trace

import inputs
import stats

#: Set-up repetitions in a traced run; a timed run sets up once per call.
SETUP_REPS = 21
#: A sweep job returned later than this misses the goodput limit.
GOODPUT_LIMIT_MS = 120_000.0
#: Accepted range of (sum of per-layer self times) / (profiled wall time).
SELF_SUM_TOLERANCE = (0.9, 1.05)

WORKLOADS = {
    "sweep_lu": (inputs.lu_traces, inputs.lu_pool),
    "sweep_timer": (inputs.timer_traces, inputs.timer_pool),
}


class SetUp:
    """Trace generation plus the cold decode, timed each time it runs."""

    def __init__(self, make_traces, line_bytes: int) -> None:
        self.make_traces = make_traces
        self.line_bytes = line_bytes
        self.gen: List[float] = []
        self.dec: List[float] = []

    def __call__(self):
        clear_decode_cache()
        started = time.perf_counter()
        traces = self.make_traces()
        generated = time.perf_counter()
        for trace in traces:
            decode_trace(trace, self.line_bytes)
        self.gen.append(generated - started)
        self.dec.append(time.perf_counter() - generated)
        return traces

    def times(self) -> List[float]:
        return [g + d for g, d in zip(self.gen, self.dec)]


def warm_up(pool, traces) -> None:
    """Sweep the pool once over the first eighth of each trace, untimed.

    The interpreter specialises the sweep's hot paths during the first
    call, which otherwise runs up to ~20% slower than later ones.
    """
    head = tuple(t.slice(0, len(t) // 8) for t in traces)
    SweepRunner(jobs=os.cpu_count() or 1, cache_dir=None).run(
        [SweepJob(config, head) for config in pool]
    )


def sweep(pool, pinned, traces: Sequence, order: List[int], cache: str,
          report, profile: cProfile.Profile = None):
    """One ``SweepRunner.run`` call; returns (seconds, results, runner)."""
    shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache)
    runner = SweepRunner(jobs=os.cpu_count() or 1, cache_dir=cache)
    jobs = [SweepJob(pool[i], tuple(traces)) for i in order]
    started = time.perf_counter()
    if profile is not None:
        profile.enable()
    try:
        results = runner.run(jobs)
    finally:
        if profile is not None:
            profile.disable()
    elapsed = time.perf_counter() - started
    got = [r["final_cycle"] for r in results]
    want = [pinned[i] for i in order]
    if got != want:
        report.mismatch(
            f"final cycles {got} differ from the pinned {want} "
            f"(pool order {order})"
        )
    return elapsed, results, runner


def run(report, name: str, seed: int, seconds: float, trace: bool,
        work: str) -> None:
    make_traces, make_pool = WORKLOADS[name]
    pool = make_pool()
    with open(os.path.join(os.path.dirname(__file__), "pinned.json")) as fh:
        pinned = json.load(fh)[name]
    set_up = SetUp(make_traces, pool[0].l1.line_bytes)
    traces = set_up()
    orders = inputs.orders(len(pool), seed)
    cache = os.path.join(work, "cache")
    warm_up(pool, traces)
    if trace:
        for _ in range(SETUP_REPS - 1):
            traces = set_up()
        traced(pool, pinned, traces, orders, cache, report)
        report.add("workloads.gen_s", statistics.median(set_up.gen), "s")
        report.add("trace.decode_s", statistics.median(set_up.dec), "s")
    else:
        timed(pool, pinned, set_up, orders, cache, report, seconds)
    report.timing("setup_s", set_up.times(), "s")
    report.add("peak_rss_mb", stats.self_peak_rss_mb(), "MiB")
    shutil.rmtree(cache, ignore_errors=True)


def timed(pool, pinned, set_up, orders, cache, report, seconds) -> None:
    """Sweep calls while the next one is expected to fit in ``seconds``.

    A fresh set-up precedes each call, untimed by it, so that the
    ``setup_s`` median samples the host over the whole run rather than
    over its first instant.
    """
    calls_s: List[float] = []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        traces = set_up()
        attempted += len(pool)
        call_started = time.perf_counter()
        try:
            elapsed, _, _ = sweep(
                pool, pinned, traces, next(orders), cache, report
            )
        except Exception as exc:  # a failing sweep is counted
            failed += len(pool)
            report.note(f"sweep failed: {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - call_started
        else:
            calls_s.append(elapsed)
        if time.perf_counter() - started + elapsed > seconds:
            break
    report.attempted, report.failed = attempted, failed
    if not calls_s:
        report.mismatch("no sweep call succeeded")
        return
    # On a host shared with other tenants a call takes its own cost plus
    # interference that comes and goes, from seconds to minutes, and can
    # double it.  Every call does the same work, so the fastest call is
    # the closest to the cost alone (as with ``timeit``), and every
    # timing below is taken from it.  Every job of a call returns with
    # the call, so the call's wall time is the latency of each job in it.
    best = min(calls_s)
    note = (f"fastest of {len(calls_s)} calls of {len(pool)} configs: "
            + ", ".join(f"{s:.3f}" for s in calls_s) + " s")
    report.add("sweep_accesses_per_s",
               len(pool) * inputs.accesses(traces) / best, "1/s", note)
    report.add("sustained_rps", len(pool) / best, "1/s", note)
    for name in ("e2e_p50_ms", "e2e_p99_ms"):
        report.add(name, best * 1e3, "ms",
                   "every job returns with its call; " + note)
    report.add(
        "goodput_share",
        len(pool) * sum(1 for s in calls_s if s * 1e3 <= GOODPUT_LIMIT_MS)
        / attempted,
        "share",
    )
    report.add("success_share", 1 - failed / attempted, "share")
    report.counts({"offered": attempted, "failed": failed})


def traced(pool, pinned, traces, orders, cache, report) -> None:
    """Profile one call; an untraced run of the same call gives the overhead."""
    order = next(orders)
    plain_s, plain, _ = sweep(pool, pinned, traces, order, cache, report)
    decoded = dict(decode_stats)
    profile = cProfile.Profile()
    traced_s, results, runner = sweep(
        pool, pinned, traces, order, cache, report, profile
    )
    if results != plain:
        report.mismatch("traced results differ from the untraced run")
    report.attempted, report.failed = 2 * len(pool), 0
    report.counts({"offered": 2 * len(pool), "failed": 0})

    layers = stats.self_time_by_layer(pstats.Stats(profile))
    for layer, seconds in layers.items():
        report.add(f"{layer}.self_s", seconds, "s")
    share = sum(layers.values()) / traced_s
    low, high = SELF_SUM_TOLERANCE
    report.add(
        "trace.self_sum_share", share, "share",
        f"per-layer self times over the profiled wall time {traced_s:.3f} s; "
        f"accepted range {low}-{high}",
    )
    if not low <= share <= high:
        report.mismatch(f"per-layer self times sum to {share:.3f} of wall")
    report.add("trace.overhead_share", traced_s / plain_s - 1, "share",
               f"profiled {traced_s:.3f} s vs untraced {plain_s:.3f} s")

    misses = sum(c["misses"] for r in results for c in r["cores"])
    report.add("sim.accesses", len(pool) * inputs.accesses(traces), "count")
    report.add("sim.misses", misses, "count")
    report.add("sim.bus_grants",
               sum(sum(r["bus_grants"].values()) for r in results), "count")
    for key in ("timer_expiries", "writebacks"):
        report.add(f"sim.{key}", sum(r[key] for r in results), "count")
    report.add("sim.final_cycle_sum", sum(r["final_cycle"] for r in results),
               "cycles")
    report.add("sim.host_us_per_miss", plain_s * 1e6 / misses, "us",
               "untraced call time / misses")

    telemetry = runner.telemetry()
    for key in ("lockstep_groups", "lockstep_jobs", "lockstep_peeled",
                "cache_misses"):
        report.add(f"runner.{key}", telemetry[key], "count")
    report.add("runner.cache_hit_rate", telemetry["cache_hit_rate"], "share")
    for key in ("hits", "misses"):
        report.add(f"runner.trace_decode_{key}",
                   decode_stats[key] - decoded[key], "count",
                   "during the traced call")
