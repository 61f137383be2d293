"""Per-core and system-wide measurement collection.

The quantities the paper's evaluation reports are all derived from these
counters: experimental WCML (total memory latency of a task), per-request
worst-case latency, hit/miss counts, and overall execution time.

Protocol-level counters (grants, fills, timer expiries, write-backs,
DRAM fetches, back-invalidations, mode switches) are fed by
:class:`StatsCollector`, an ordinary subscriber of the system's
:class:`~repro.sim.events.EventBus` — the engine layers never update
them directly.  Only the per-*hit* counters stay inline in the access
fast path (hits are ~99% of accesses; see the event-bus module
docstring for the hot-path contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import EventBus

#: Version of the serialised stats schema (see ``repro.runner.
#: stats_to_dict``).  Bump whenever the dict grows, loses or renames a
#: field: the sweep-cache digest folds this number in, so on-disk cache
#: entries recorded under an older schema are invalidated instead of
#: being replayed with missing fields.
STATS_SCHEMA_VERSION = 2


@dataclass
class CoreStats:
    """Counters for one core's task."""

    core_id: int
    hits: int = 0
    misses: int = 0
    upgrades: int = 0
    runahead_hits: int = 0
    #: Sum of per-access latencies: hits contribute L_hit, misses their
    #: measured request latency.  This is the *experimental WCML* of the
    #: task (solid bars of Figure 5).
    total_memory_latency: int = 0
    #: Largest observed per-request miss latency (compare to Equation 1).
    max_request_latency: int = 0
    #: Cycle at which the core retired its last access (execution time).
    finish_cycle: Optional[int] = None
    #: Optional per-request latency log (enabled by the test-suite).
    request_latencies: Optional[List[int]] = None

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def record_hit(self, hit_latency: int, runahead: bool = False) -> None:
        """Account one private-cache hit."""
        self.hits += 1
        if runahead:
            self.runahead_hits += 1
        self.total_memory_latency += hit_latency

    def record_miss(self, latency: int, upgrade: bool = False) -> None:
        """Account one completed coherence request."""
        self.misses += 1
        if upgrade:
            self.upgrades += 1
        self.total_memory_latency += latency
        if latency > self.max_request_latency:
            self.max_request_latency = latency
        if self.request_latencies is not None:
            self.request_latencies.append(latency)


@dataclass
class SystemStats:
    """Whole-system counters."""

    cores: List[CoreStats] = field(default_factory=list)
    bus_busy_cycles: int = 0
    bus_grants: Dict[str, int] = field(default_factory=dict)
    timer_expiries: int = 0
    replenishes_skipped: int = 0
    writebacks: int = 0
    dram_fetches: int = 0
    back_invalidations: int = 0
    mode_switches: int = 0
    final_cycle: int = 0
    #: The event bus feeding the protocol-level counters (set when a
    #: :class:`StatsCollector` attaches); source of :meth:`layer_counts`.
    _event_bus: Optional[Any] = field(default=None, repr=False, compare=False)

    def record_grant(self, kind: str, duration: int) -> None:
        """Account one bus grant and its occupancy."""
        self.bus_grants[kind] = self.bus_grants.get(kind, 0) + 1
        self.bus_busy_cycles += duration

    @property
    def execution_time(self) -> int:
        """System execution time: the cycle the last core finished."""
        finishes = [c.finish_cycle for c in self.cores if c.finish_cycle is not None]
        return max(finishes) if finishes else 0

    def bus_utilization(self) -> float:
        """Fraction of simulated cycles the bus was occupied."""
        if self.final_cycle == 0:
            return 0.0
        return self.bus_busy_cycles / self.final_cycle

    def core(self, core_id: int) -> CoreStats:
        """The per-core counters for ``core_id``."""
        return self.cores[core_id]

    def layer_counts(self) -> Dict[str, int]:
        """Per-layer event totals of the run (core/bus/protocol/backend).

        Read from the event bus's per-kind tally once a
        :class:`StatsCollector` is attached; empty before that."""
        if self._event_bus is None:
            return {}
        return self._event_bus.layer_counts()

    def summary(self) -> str:
        """Compact multi-line textual summary of the run."""
        lines = [
            f"cycles={self.final_cycle} bus_util={self.bus_utilization():.3f} "
            f"writebacks={self.writebacks} timer_expiries={self.timer_expiries}"
        ]
        for c in self.cores:
            lines.append(
                f"  c{c.core_id}: hits={c.hits} misses={c.misses} "
                f"(upg={c.upgrades}) WCML_exp={c.total_memory_latency} "
                f"maxlat={c.max_request_latency} finish={c.finish_cycle}"
            )
        return "\n".join(lines)


class StatsCollector:
    """Feeds a :class:`SystemStats` from the simulator event bus.

    One instance subscribes, by kind, to exactly the (rare) protocol
    events the legacy counters need; per-hit statistics remain inline in
    the access fast path and are *not* routed through the bus.
    """

    #: Event kinds this collector consumes.
    KINDS = (
        "grant",
        "fill",
        "timer_expiry",
        "writeback",
        "dram_fetch",
        "back_invalidate",
        "mode_switch",
    )

    def __init__(self, stats: SystemStats) -> None:
        self.stats = stats
        self._handlers = {
            "grant": self._on_grant,
            "fill": self._on_fill,
            "timer_expiry": self._on_timer_expiry,
            "writeback": self._on_writeback,
            "dram_fetch": self._on_dram_fetch,
            "back_invalidate": self._on_back_invalidate,
            "mode_switch": self._on_mode_switch,
        }

    def attach(self, bus: "EventBus") -> "StatsCollector":
        """Subscribe to the bus and bind it to the stats object."""
        bus.subscribe(self, kinds=self.KINDS)
        self.stats._event_bus = bus
        return self

    def __call__(self, cycle: int, kind: str, payload: Dict[str, Any]) -> None:
        self._handlers[kind](payload)

    # -- per-kind handlers -------------------------------------------------

    def _on_grant(self, payload: Dict[str, Any]) -> None:
        self.stats.record_grant(payload["job"], payload["duration"])

    def _on_fill(self, payload: Dict[str, Any]) -> None:
        self.stats.cores[payload["core"]].record_miss(
            latency=payload["latency"], upgrade=payload["upgrade"]
        )

    def _on_timer_expiry(self, payload: Dict[str, Any]) -> None:
        self.stats.timer_expiries += 1

    def _on_writeback(self, payload: Dict[str, Any]) -> None:
        self.stats.writebacks += 1

    def _on_dram_fetch(self, payload: Dict[str, Any]) -> None:
        self.stats.dram_fetches += 1

    def _on_back_invalidate(self, payload: Dict[str, Any]) -> None:
        self.stats.back_invalidations += 1

    def _on_mode_switch(self, payload: Dict[str, Any]) -> None:
        self.stats.mode_switches += 1
