"""The whole-system simulator: an orchestrator over the layered stack.

:class:`System` wires the layers of Section III together and owns almost
no protocol logic itself:

* the **core layer** (:mod:`repro.sim.core`) issues accesses; the only
  hot path here is :meth:`System.try_access`, whose hit predicate is
  inlined (it is the single hottest function of the simulator),
* the **protocol layer** (:mod:`repro.sim.protocols`) decides per-line
  transitions from data-driven tables; the protocol is resolved from
  ``config.protocol`` through the registry at build time,
* the **engine** (:mod:`repro.sim.engine`) executes coherence requests
  against caches and bus, enforcing the protocol-independent invariants
  (same-line FIFO in bus order, single writer),
* the **memory backend** (:mod:`repro.sim.backend`) sources data and
  drains write-backs (perfect LLC, or LLC + DRAM per footnote 1),
* the **event bus** (:mod:`repro.sim.events`) carries every observable
  occurrence to the stats collector, tracers and per-layer counters,
* the **oracle** (:mod:`repro.sim.oracle`) tracks golden values and — in
  the test-suite — checks the single-writer/read-latest invariants.

What remains here: construction and wiring, the per-access hit fast
path, bus arbitration scheduling, and the run-time mode-switch plumbing
of Section VI.  The engine is event-driven but cycle-accurate: all
activity happens at integer cycles, ordered by the phases of
:mod:`repro.sim.kernel`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fi.injector import FaultInjector
    from repro.fi.plan import FaultPlan

from repro.params import MemOp, SimConfig
from repro.sim.arbiter import Arbiter, build_arbiter
from repro.sim.backend import MemoryBackend, build_backend
from repro.sim.bus import SharedBus
from repro.sim.core import Core
from repro.sim.dram import FixedLatencyDRAM
from repro.sim.engine import ProtocolEngine
from repro.sim.events import EventBus
from repro.sim.kernel import (
    PHASE_ARBITRATE,
    PHASE_CORE,
    PHASE_EFFECT,
    EventKernel,
)
from repro.sim.llc import SharedLLC
from repro.sim.messages import CoherenceRequest, ReqState, Writeback
from repro.sim.oracle import CoherenceOracle, CoherenceViolationError
from repro.sim.private_cache import AccessOutcome, PrivateCache
from repro.sim.protocols import get_protocol
from repro.sim.stats import CoreStats, StatsCollector, SystemStats
from repro.sim.trace import Trace

__all__ = [
    "System",
    "run_simulation",
    "CoherenceViolationError",
]


class System:
    """One simulated multi-core system executing a set of traces."""

    PHASE_EFFECT = PHASE_EFFECT
    PHASE_CORE = PHASE_CORE
    PHASE_ARBITRATE = PHASE_ARBITRATE

    def __init__(
        self,
        config: SimConfig,
        traces: Sequence[Trace],
        record_latencies: bool = False,
        fast_path: bool = True,
        fault_plan: Optional["FaultPlan"] = None,
    ) -> None:
        """``fast_path=False`` disables inline hit batching (one heap
        event per access, the seed engine's behaviour); results are
        cycle-identical either way — the flag exists so the regression
        suite can assert exactly that.

        ``fault_plan`` arms a :class:`repro.fi.injector.FaultInjector`
        over this system; with the default ``None`` the fault layer is
        never imported or constructed and cycle counts are byte-identical
        to a build without it (the throughput gate asserts this)."""
        if len(traces) != config.num_cores:
            raise ValueError(
                f"{config.num_cores} cores but {len(traces)} traces supplied"
            )
        self.config = config
        self.kernel = self._make_kernel()
        self.events = EventBus(self.kernel)
        self.bus = SharedBus()
        self.arbiter: Arbiter = build_arbiter(config)
        self.protocol = get_protocol(config.protocol)
        self.dram = FixedLatencyDRAM(config.dram_latency)
        self.backend: MemoryBackend = build_backend(config, self.dram)
        self.caches: List[PrivateCache] = [
            self._make_cache(i) for i in range(config.num_cores)
        ]
        self.stats = SystemStats(
            cores=[
                CoreStats(
                    core_id=i,
                    request_latencies=[] if record_latencies else None,
                )
                for i in range(config.num_cores)
            ]
        )
        #: Operating mode last programmed through :meth:`switch_mode`
        #: (None until the first run-time switch; Section VI).
        self.current_mode: Optional[int] = None
        self.oracle = CoherenceOracle(
            config.check_coherence, self.caches, lambda: self.kernel.now,
            core_info=self._oracle_core_info,
        )
        self.engine = self._make_engine()
        self.backend.attach(self)
        self.cores: List[Core] = [
            self._make_core(i, traces[i], fast_path)
            for i in range(config.num_cores)
        ]
        StatsCollector(self.stats).attach(self.events)
        # Hot-path shortcuts (avoid per-access attribute chains).
        self._core_stats: List[CoreStats] = self.stats.cores
        self._hit_latency = config.latencies.hit
        self._check = config.check_coherence
        self._perform_write = self.oracle.perform_write
        self._check_read = self.oracle.check_read
        #: The protocol's HIT set matches the inlined hit predicate below;
        #: exotic protocols fall back to the general classify() per access.
        self._std_hits = self.protocol.uses_standard_hits()

        # Arbitration reads the engine's request table and the backend's
        # bus write-back queue in place (both live for the whole run).
        self._requests = self.engine.requests
        self._bus_writebacks = self.backend.bus_writebacks()
        self._request_latency = config.latencies.request
        self._data_latency = config.latencies.data

        self._seq = 0
        self._arb_scheduled_at: Optional[int] = None
        self._done_count = 0
        self._started = False

        #: Armed fault injector, or None on a fault-free run.  Built
        #: last so the injector sees a fully-wired system; imported
        #: lazily so fault-free runs never touch :mod:`repro.fi`.
        self.injector: Optional["FaultInjector"] = None
        if fault_plan is not None:
            from repro.fi.injector import FaultInjector

            self.injector = FaultInjector(self, fault_plan)
            self.injector.arm()

    # ------------------------------------------------------- factory seams
    #
    # Component construction is routed through overridable hooks so that
    # alternative engines (the lock-step engine of
    # :mod:`repro.sim.lockstep`) can substitute instrumented subclasses
    # without touching the wiring above.  The defaults build exactly the
    # components the seed engine always built.

    def _make_kernel(self) -> EventKernel:
        return EventKernel()

    def _make_cache(self, core_id: int) -> PrivateCache:
        return PrivateCache(
            core_id, self.config.l1, self.config.core_config(core_id).theta,
            protocol=self.protocol,
        )

    def _make_engine(self) -> ProtocolEngine:
        return ProtocolEngine(self)

    def _make_core(self, core_id: int, trace: Trace, fast_path: bool) -> Core:
        return Core(
            core_id=core_id,
            trace=trace,
            system=self,
            line_bytes=self.config.l1.line_bytes,
            hit_latency=self.config.latencies.hit,
            runahead_window=self.config.runahead_window,
            fast_path=fast_path,
        )

    # ------------------------------------------------------------ properties

    @property
    def llc(self) -> SharedLLC:
        """The shared LLC (owned by the memory backend)."""
        return self.backend.llc

    @property
    def listeners(self):
        """Subscribe-all event listeners (legacy alias; see
        :meth:`repro.sim.events.EventBus.subscribe`)."""
        return self.events.listeners

    def next_seq(self) -> int:
        """A fresh bus-order sequence number (requests and write-backs
        share one space: the arbiter breaks ties on it)."""
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------ run

    def run(self) -> SystemStats:
        """Execute all traces to completion; returns the collected stats."""
        if self._started:
            raise RuntimeError("a System can only be run once")
        self._started = True
        for core in self.cores:
            core.start()
        self.kernel.run(self.config.max_cycles)
        self.stats.final_cycle = self.kernel.now
        if self.engine.requests:
            raise RuntimeError(
                f"simulation finished with outstanding requests: "
                f"{list(self.engine.requests.values())}"
            )
        return self.stats

    # -------------------------------------------------------- core callbacks

    def try_access(
        self, core_id: int, op: int, line_addr: int, runahead: bool
    ) -> bool:
        """Attempt a local access; True on hit (performed), False on miss.

        Run-ahead probes never create coherence requests: the core model
        allows only one outstanding miss.  ``op`` is a plain int
        (:class:`MemOp` value); the hit path is inlined — it is the
        single hottest function of the simulator.
        """
        if self._std_hits:
            array = self.caches[core_id].array
            line = array._lines[line_addr & array._set_mask]
            state = line.state
            if (
                state
                and line.line_addr == line_addr
                and not (line.handover_ready and not line.pending_is_downgrade)
                and (op == 0 or state == 2)
            ):
                # Hit (same predicate as AccessOutcome.HIT via can_serve).
                if op:
                    self._perform_write(core_id, line)
                elif self._check:
                    self._check_read(core_id, line)
                stats = self._core_stats[core_id]
                stats.hits += 1
                if runahead:
                    stats.runahead_hits += 1
                stats.total_memory_latency += self._hit_latency
                if self.events.hot:
                    self.events.emit(
                        "hit", core=core_id, line=line_addr,
                        op=MemOp(op).name, runahead=runahead,
                    )
                return True
        else:
            # General path: the protocol's classify table decides hits.
            cache = self.caches[core_id]
            outcome = self.protocol.classify(cache, MemOp(op), line_addr)
            if outcome is AccessOutcome.HIT:
                line = cache.lookup(line_addr)
                if op:
                    self._perform_write(core_id, line)
                elif self._check:
                    self._check_read(core_id, line)
                stats = self._core_stats[core_id]
                stats.hits += 1
                if runahead:
                    stats.runahead_hits += 1
                stats.total_memory_latency += self._hit_latency
                if self.events.hot:
                    self.events.emit(
                        "hit", core=core_id, line=line_addr,
                        op=MemOp(op).name, runahead=runahead,
                    )
                return True
        if runahead:
            return False
        op = MemOp(op)
        outcome = self.caches[core_id].classify(op, line_addr)
        assert outcome != AccessOutcome.HIT
        self.engine.start_request(core_id, op, line_addr, outcome)
        return False

    def on_core_done(self, core_id: int, cycle: int) -> None:
        """Core callback: the core retired its last access at ``cycle``.

        The last core to finish stops the kernel: events still queued
        then (stale timers, an idle arbitration round) never run."""
        self.stats.core(core_id).finish_cycle = cycle
        self._done_count += 1
        if self._done_count == len(self.cores):
            self.kernel.stop()

    # ------------------------------------------------------------ arbitration

    def request_arbitration(self, at: Optional[int] = None) -> None:
        """Schedule an arbitration round at the first cycle it can grant.

        The round lands at ``at`` (default: now) or at the bus's
        ``busy_until`` (stall horizon included), whichever is later: a
        round while the bus is busy could only re-arm itself.  Idempotent:
        a round already scheduled at or before that cycle covers this
        request too (it re-arms if it finds the bus busy).
        """
        t = self.kernel._now if at is None else at
        free = self.bus.busy_until
        if free > t:
            t = free
        scheduled = self._arb_scheduled_at
        if scheduled is not None and scheduled <= t:
            return
        self._arb_scheduled_at = t
        self.kernel.schedule(t, PHASE_ARBITRATE, self._arbitrate)

    def _arbitrate(self) -> None:
        now = self.kernel._now
        # Consume the dedup marker only when this round is the recorded
        # one; a duplicate round must leave a still-pending future marker
        # alone or every duplicate would re-schedule its own successor.
        scheduled = self._arb_scheduled_at
        if scheduled is not None and scheduled <= now:
            self._arb_scheduled_at = None
        if now < self.bus.busy_until:
            # The bus was taken after this round was scheduled: by a
            # grant of an earlier round, or by a stall that repro.fi
            # injected.  Re-arm for the cycle it frees up — without this,
            # the round would silently swallow the pending request.
            self.request_arbitration()
            return
        arbiter = self.arbiter
        job = arbiter.decide(now, self._requests, self._bus_writebacks)
        if job is not None:
            self._grant(job)
        elif arbiter.wake_at is not None and arbiter.wake_at > now:
            self.request_arbitration(at=arbiter.wake_at)

    def _grant(self, job: Union[CoherenceRequest, Writeback]) -> None:
        """Give the bus to ``job``: a request's broadcast (while it is
        queued) or data transfer, or a write-back's drain."""
        now = self.kernel._now
        engine = self.engine
        handler: Callable[[Any], None]
        if isinstance(job, Writeback):
            self.backend.mark_inflight(job)
            kind, duration, handler = (
                "WRITEBACK", self._data_latency, self._on_bus_wb_done
            )
        elif job.state is ReqState.QUEUED:
            job.state = ReqState.BROADCASTING
            kind, duration, handler = (
                "BROADCAST", self._request_latency, engine.on_broadcast_done
            )
        else:
            engine.begin_transfer(job)
            kind, duration, handler = (
                "DATA", self._data_latency, engine.on_data_done
            )
        done_at = self.bus.grant(job, now, duration)
        self.stats.record_grant(kind, duration)
        events = self.events
        if events.wants("grant"):
            events.emit(
                "grant", job=kind, core=job.core_id, line=job.line_addr,
                duration=duration, until=done_at,
            )
        else:
            events.emit("grant")  # counted; nobody reads a payload
        self.kernel.schedule(
            done_at, PHASE_EFFECT, self._complete_grant, handler, job
        )

    def _complete_grant(
        self,
        handler: Callable[[Any], None],
        job: Union[CoherenceRequest, Writeback],
    ) -> None:
        """Bus transaction finished: release the bus and run its handler."""
        self.bus.release(self.kernel._now)
        handler(job)
        self.request_arbitration()

    def _on_bus_wb_done(self, wb: Writeback) -> None:
        """A write-back granted on the shared bus finished draining.

        The arbiter is notified so RROF consumes the core's turn — the
        shared-WB analytical bound budgets one write-back slot per
        competing core (``wcl_miss_shared_wb``).  Dedicated-port
        write-backs never pass through here.
        """
        self.backend.on_wb_done(wb)
        self.arbiter.on_writeback_completed(wb.core_id)

    # ----------------------------------------------------------- mode switch

    def set_theta(self, core_id: int, theta: int) -> None:
        """Reprogram one core's timer register at run time (Section VI).

        Applies to lines filled (or marked pending) from now on; lines with
        an already-scheduled expiry keep their old deadline.
        """
        self.caches[core_id].set_theta(theta)

    def switch_mode(self, mode: int) -> None:
        """Program every cache controller from its Mode-Switch LUT."""
        self.current_mode = mode
        for cache in self.caches:
            if mode in cache.lut:
                cache.apply_mode(mode)
        self.events.emit("mode_switch", mode=mode, thetas=self.config_thetas())

    def _oracle_core_info(self, core_id: int) -> Dict[str, object]:
        """Context the oracle folds into violation diagnostics."""
        return {
            "criticality": self.config.core_config(core_id).criticality,
            "mode": self.current_mode,
        }

    def config_thetas(self) -> List[int]:
        """The timer registers as currently programmed (may differ from
        the static configuration after run-time switches)."""
        return [cache.theta for cache in self.caches]


def run_simulation(
    config: SimConfig,
    traces: Sequence[Trace],
    record_latencies: bool = False,
    fast_path: bool = True,
    fault_plan: Optional["FaultPlan"] = None,
) -> SystemStats:
    """Convenience wrapper: build a :class:`System`, run it, return stats."""
    return System(
        config, traces, record_latencies=record_latencies, fast_path=fast_path,
        fault_plan=fault_plan,
    ).run()
