"""The memory backend layer: what sits behind the shared bus.

The snooping engine only ever asks a :class:`MemoryBackend` four
questions — *can this line be sourced right now*, *what version does it
hold*, *accept this write-back*, *snarf this transferred version* — and
the backend answers them for two storage models matching the paper's
footnote-1 split:

* :class:`PerfectLLC` — every access hits in the LLC (the paper's main
  configuration); the backend is a plain version store and never evicts.
* :class:`LLCWithDRAM` — a set-associative, LRU-replaced LLC backed by
  :class:`~repro.sim.dram.FixedLatencyDRAM`.  Misses start a DRAM fetch
  before the data transfer can be granted, and insertions may evict a
  line, back-invalidating the L1 copies (inclusion).

Both backends own the eviction write-back buffer (one pending write-back
per line), including its two draining disciplines: the dedicated
write-back port (default) and serialised write-backs on the shared bus
(``SimConfig.wb_on_bus``).  Observable backend activity — write-backs,
DRAM fetches, back-invalidations — is published on the system's
:class:`~repro.sim.events.EventBus`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set, ValuesView

from repro.params import SimConfig
from repro.sim.dram import FixedLatencyDRAM
from repro.sim.kernel import PHASE_EFFECT
from repro.sim.llc import SharedLLC
from repro.sim.messages import Writeback

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import System


class MemoryBackend:
    """Interface and shared write-back plumbing of the backend layer."""

    name = "abstract"

    #: The owning system; assigned by :meth:`attach` before any traffic.
    system: "System"

    def __init__(self, config: SimConfig, llc: SharedLLC) -> None:
        self.config = config
        self.llc = llc
        #: line address → buffered dirty-eviction write-back.
        self._wbs: Dict[int, Writeback] = {}
        #: line address → write-back waiting for a shared-bus slot
        #: (``wb_on_bus`` only), oldest first; it leaves when granted.
        self._bus_queue: Dict[int, Writeback] = {}

    def attach(self, system: "System") -> None:
        """Wire the backend into a system (kernel, events, engine)."""
        self.system = system

    # -- sourcing ----------------------------------------------------------

    def ready_for_read(self, line_addr: int) -> bool:
        """Whether the backend can source ``line_addr`` right now.

        False while the latest data for the line still sits in a
        write-back buffer, and false when the storage model needs a DRAM
        fetch first (which this call then starts).
        """
        if line_addr in self._wbs:
            return False
        return self._probe(line_addr)

    def _probe(self, line_addr: int) -> bool:
        raise NotImplementedError

    def record_fill_access(self, line_addr: int, cycle: int) -> None:
        """Account one data transfer sourced from the backend."""
        self.llc.record_access(line_addr, cycle)

    def version(self, line_addr: int) -> int:
        """Current golden version the backend would source."""
        return self.llc.version(line_addr)

    def snarf(self, line_addr: int, version: int, cycle: int) -> None:
        """Absorb a version observed on a cache-to-cache transfer."""
        self.llc.write_version(line_addr, version, cycle)

    # -- write-backs -------------------------------------------------------

    def enqueue_writeback(self, core_id: int, line_addr: int, version: int) -> None:
        """Buffer one dirty-eviction write-back and start draining it."""
        assert line_addr not in self._wbs, (
            f"second write-back for line {line_addr} while one is pending"
        )
        system = self.system
        wb = Writeback(
            core_id=core_id,
            line_addr=line_addr,
            version=version,
            created_cycle=system.kernel.now,
            seq=system.next_seq(),
        )
        self._wbs[line_addr] = wb
        system.events.emit(
            "writeback", core=core_id, line=line_addr, on_bus=self.config.wb_on_bus
        )
        if self.config.wb_on_bus:
            self._bus_queue[line_addr] = wb
            system.request_arbitration()
        else:
            # Dedicated write-back port: completes after the data latency.
            system.kernel.schedule(
                system.kernel.now + self.config.latencies.data,
                PHASE_EFFECT,
                self.on_wb_done,
                wb,
            )

    def has_pending_writeback(self, line_addr: int) -> bool:
        """Whether a write-back for the line is still buffered."""
        return line_addr in self._wbs

    def buffered_version(self, line_addr: int) -> Optional[int]:
        """Version held by a still-buffered write-back, or ``None``.

        Campaign audits use this to prove the latest golden version of a
        line is reachable somewhere (cache copy, backend, or this
        buffer) at end of run."""
        wb = self._wbs.get(line_addr)
        return None if wb is None else wb.version

    def pending_writeback_count(self) -> int:
        """Write-backs currently buffered (draining or awaiting the bus).

        The write-back queue depth sampled by the telemetry layer
        (:mod:`repro.obs.metrics`)."""
        return len(self._wbs)

    def bus_writebacks(self) -> ValuesView[Writeback]:
        """Live view of the write-backs waiting for a shared-bus slot,
        oldest first (always empty without ``wb_on_bus``)."""
        return self._bus_queue.values()

    def mark_inflight(self, wb: Writeback) -> None:
        """The arbiter granted this write-back a bus slot."""
        del self._bus_queue[wb.line_addr]

    def on_wb_done(self, wb: Writeback) -> None:
        """A write-back drained: commit the version and release waiters."""
        system = self.system
        self.llc.write_version(wb.line_addr, wb.version, system.kernel.now)
        self._wbs.pop(wb.line_addr, None)
        system.events.emit("wb_done", core=wb.core_id, line=wb.line_addr)
        system.engine.update_line(wb.line_addr)


class PerfectLLC(MemoryBackend):
    """Paper's main configuration: every access hits in the LLC."""

    name = "perfect_llc"

    def _probe(self, line_addr: int) -> bool:
        return True


class LLCWithDRAM(MemoryBackend):
    """Non-perfect LLC backed by fixed-latency DRAM (footnote 1)."""

    name = "llc_with_dram"

    def __init__(self, config: SimConfig, llc: SharedLLC) -> None:
        super().__init__(config, llc)
        self._dram_fetches: Set[int] = set()

    @property
    def dram(self) -> FixedLatencyDRAM:
        return self.llc.dram

    def _probe(self, line_addr: int) -> bool:
        if not self.llc.present(line_addr):
            self._start_dram_fetch(line_addr)
            return False
        return True

    def _start_dram_fetch(self, line_addr: int) -> None:
        if line_addr in self._dram_fetches:
            return
        self._dram_fetches.add(line_addr)
        system = self.system
        system.events.emit("dram_fetch", line=line_addr)
        system.kernel.schedule(
            system.kernel.now + self.dram.latency,
            PHASE_EFFECT,
            self._on_dram_fill,
            line_addr,
        )

    def _on_dram_fill(self, line_addr: int) -> None:
        system = self.system
        engine = system.engine
        now = system.kernel.now
        victim_addr = self.llc.peek_victim(line_addr)
        if victim_addr is not None and (
            victim_addr == engine.transfer_line or victim_addr in self._wbs
        ):
            # Evicting this victim now would corrupt an in-flight transfer
            # or an un-drained write-back; retry shortly.
            system.kernel.schedule(
                max(now + 1, system.bus.busy_until),
                PHASE_EFFECT,
                self._on_dram_fill,
                line_addr,
            )
            return
        self._dram_fetches.discard(line_addr)
        victim = self.llc.fill_from_memory(line_addr, now)
        if victim is not None:
            merged = victim.version
            for cache in system.caches:
                snap = cache.back_invalidate(victim.line_addr)
                if snap is not None:
                    system.events.emit(
                        "back_invalidate",
                        core=cache.core_id,
                        line=victim.line_addr,
                        dirty=snap.dirty,
                    )
                    if snap.dirty:
                        merged = snap.version
            victim.version = merged
            self.llc.evict_to_memory(victim)
            engine.refresh_snoop(victim.line_addr)
            engine.update_line(victim.line_addr)
        engine.update_line(line_addr)


def build_backend(config: SimConfig, dram: FixedLatencyDRAM) -> MemoryBackend:
    """The backend matching ``config.perfect_llc`` (footnote-1 split)."""
    llc = SharedLLC(config.llc, config.perfect_llc, dram)
    if config.perfect_llc:
        return PerfectLLC(config, llc)
    return LLCWithDRAM(config, llc)
