"""Percentiles from raw samples, layer grouping of profiles, process memory."""

from __future__ import annotations

import math
import os
import pstats
import resource
from typing import Dict, List, Optional, Sequence

#: Percentiles a timing is reported at, lowest first.
LADDER = (0.50, 0.90, 0.95, 0.99, 0.999)
#: A percentile is trusted when at least this many samples lie beyond it.
MIN_TAIL = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of raw samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` rank."""
    return n - max(1, math.ceil(q * n)) if n else 0


def deepest_trusted(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ``MIN_TAIL`` samples beyond."""
    trusted = [q for q in LADDER if beyond(n, q) >= MIN_TAIL]
    return trusted[-1] if trusted else None


def describe(samples: Sequence[float]) -> str:
    """Sample count and the deepest trusted percentile, for the report."""
    n = len(samples)
    q = deepest_trusted(n)
    if q is None:
        return f"n={n}, no percentile has {MIN_TAIL} samples beyond it"
    return (
        f"n={n}, deepest trusted p{q * 100:g}={percentile(samples, q):.4g} "
        f"({beyond(n, q)} beyond)"
    )


# -- profile grouping ---------------------------------------------------------

#: Module → layer.  Modules under ``repro`` not listed here fall into
#: ``sim.other`` (the rest of ``repro.sim``) or ``repro.other``.
LAYER_OF = {
    "sim.kernel": "sim.kernel",
    "sim.arbiter": "sim.arbiter",
    "sim.engine": "sim.engine",
    "sim.events": "sim.events",
    "sim.backend": "sim.backend",
    "sim.system": "sim.system",
    "sim.core": "sim.system",
    "sim.private_cache": "sim.system",
    "sim.cache": "sim.system",
    "sim.oracle": "sim.oracle",
    "sim.lockstep": "sim.lockstep",
    "sim.trace": "sim.trace",
    "runner": "runner",
}
#: Every layer a grouped profile reports, in report order.
LAYERS = tuple(dict.fromkeys(LAYER_OF.values())) + (
    "sim.other", "repro.other", "host.other",
)


def _layer(filename: str) -> Optional[str]:
    """The layer of a profiled function's file (None outside ``repro``)."""
    path = filename.replace(os.sep, "/")
    marker = path.rfind("/repro/")
    if marker < 0 or not path.endswith(".py"):
        return None
    module = path[marker + len("/repro/"):-len(".py")].replace("/", ".")
    if module in LAYER_OF:
        return LAYER_OF[module]
    return "sim.other" if module.startswith("sim.") else "repro.other"


def self_time_by_layer(stats: pstats.Stats) -> Dict[str, float]:
    """Host self time per layer, from a ``cProfile`` run.

    A function outside ``repro`` (a builtin, numpy, the standard library)
    has its self time charged to the ``repro`` layer that called it, split
    by the per-caller times the profiler records; what no ``repro``
    caller accounts for is ``host.other``.
    """
    totals = {layer: 0.0 for layer in LAYERS}
    for (filename, _, _), (_, _, tottime, _, callers) in stats.stats.items():
        layer = _layer(filename)
        if layer is not None:
            totals[layer] += tottime
            continue
        charged = 0.0
        for (caller_file, _, _), edge in callers.items():
            caller_layer = _layer(caller_file)
            if caller_layer is not None:
                totals[caller_layer] += edge[2]
                charged += edge[2]
        totals["host.other"] += max(0.0, tottime - charged)
    return totals


# -- memory -------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of the peak resident sets (``VmHWM``) of live processes, MiB."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0
