"""The protocol-independent snooping engine.

:class:`ProtocolEngine` owns every in-flight coherence request and
executes the bus-side life cycle of Section III — broadcast, wait for
conflicting copies to be released, data transfer — while delegating the
three *per-line decisions* to the configured
:class:`~repro.sim.protocols.CoherenceProtocol`'s transition tables:

* how a resident copy reacts to a conflicting snoop
  (:meth:`~repro.sim.protocols.base.CoherenceProtocol.snoop_action`:
  invalidate / concede / arm the countdown timer),
* what an owner does after sourcing data for a reader
  (:meth:`~repro.sim.protocols.base.CoherenceProtocol.reader_handover`),
* whether dirty owner handovers are routed through the LLC
  (:meth:`~repro.sim.protocols.base.CoherenceProtocol.via_llc`,
  combining the protocol's discipline with ``via_llc_transfers``).

What stays *in* the engine is deliberately protocol-independent:
conflict detection (a waiting writer conflicts with every copy, a
waiting reader only with the owner), strict same-line FIFO service in
bus order (the Equation-1 invariant), the single-writer assertion, and
all backend/bus mechanics.  Data comes from and goes to the
:class:`~repro.sim.backend.MemoryBackend`; observations are published on
the :class:`~repro.sim.events.EventBus`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.params import MemOp
from repro.sim.cache import CacheLine, LineState
from repro.sim.kernel import PHASE_EFFECT
from repro.sim.messages import (
    LLC_SOURCE,
    CoherenceRequest,
    ReqKind,
    ReqState,
)
from repro.sim.private_cache import PrivateCache
from repro.sim.protocols.base import (
    AccessOutcome,
    CoherenceProtocol,
    HandoverAction,
    SnoopAction,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import System


class ProtocolEngine:
    """Executes coherence requests against one system's caches and bus."""

    def __init__(self, system: "System") -> None:
        self.system = system
        self.kernel = system.kernel
        self.events = system.events
        self.caches: List[PrivateCache] = system.caches
        self.protocol: CoherenceProtocol = system.protocol
        self.backend = system.backend
        self.oracle = system.oracle
        #: Effective transfer routing: the protocol's discipline OR'd with
        #: the configuration flag (the PCC baseline sets the latter).
        self._via_llc = system.protocol.via_llc(system.config.via_llc_transfers)
        #: core id → its single outstanding request.
        self.requests: Dict[int, CoherenceRequest] = {}
        #: Each cache with its slot list: the snoop and readiness scans
        #: read a line's slot directly (every L1 shares one geometry).
        self._slots: List[Tuple[PrivateCache, List[CacheLine]]] = [
            (cache, cache.array._lines) for cache in self.caches
        ]
        self._set_mask = self.caches[0].array._set_mask
        self._core_stats = system.stats.cores
        self._line_reqs: Dict[int, List[CoherenceRequest]] = {}
        self._transfer_source: Optional[Tuple[int, int]] = None
        #: Line address of the in-flight data transfer (any source); the
        #: LLC must not evict it mid-transfer (non-perfect mode).
        self.transfer_line: Optional[int] = None

    # ----------------------------------------------------------- request entry

    def start_request(
        self, core_id: int, op: MemOp, line_addr: int, outcome: AccessOutcome
    ) -> CoherenceRequest:
        """Create the core's outstanding request and queue its broadcast."""
        if core_id in self.requests:
            raise RuntimeError(f"core {core_id} already has an outstanding request")
        system = self.system
        req = CoherenceRequest(
            req_id=system.next_seq(),
            core_id=core_id,
            line_addr=line_addr,
            kind=outcome.req_kind,
            op=op,
            issue_cycle=self.kernel._now,
        )
        self.requests[core_id] = req
        events = self.events
        if events.wants("miss"):
            events.emit(
                "miss", core=core_id, line=line_addr, req_kind=req.kind.name,
                req_id=req.req_id,
            )
        else:
            events.emit("miss")  # counted; nobody reads a payload
        system.request_arbitration()
        return req

    # --------------------------------------------------------------- snooping

    def on_broadcast_done(self, req: CoherenceRequest) -> None:
        """The request's broadcast bus slot completed: start waiting."""
        req.state = ReqState.WAITING
        req.broadcast_cycle = self.kernel._now
        self._line_reqs.setdefault(req.line_addr, []).append(req)
        if req.kind == ReqKind.UPG and self._earlier_writer_waiting(req):
            # Bus order: an ownership request broadcast before this upgrade
            # wins the line first.  The upgrader self-invalidates its shared
            # copy *now* — otherwise its own timer would delay the older
            # writer and, transitively (same-line FIFO), its own re-queued
            # GetM beyond the Equation-1 bound, which excludes the
            # requester's own θ.
            own = self.caches[req.core_id].lookup(req.line_addr)
            if own is not None and own.valid:
                own.invalidate()
            req.kind = ReqKind.GETM
        self.refresh_snoop(req.line_addr)
        self.update_line(req.line_addr)

    def refresh_snoop(self, line_addr: int) -> None:
        """Re-assert pending-invalidation flags implied by waiting requests.

        Idempotent: called after every event that may have created a new
        copy or a new waiting request for the line.  What a conflicting
        copy *does* is the protocol's call
        (:meth:`~repro.sim.protocols.base.CoherenceProtocol.snoop_action`):
        invalidate at once (MSI S copies), concede ownership at once
        while remaining the data source (MSI owners), or arm the
        countdown-counter expiry per Figure 3 (timed copies).
        """
        line_reqs = self._line_reqs.get(line_addr)
        if not line_reqs:
            return
        waiting = ReqState.WAITING
        transferring = ReqState.TRANSFERRING
        gets = ReqKind.GETS
        # Cores whose waiting request wants ownership (GetM/Upg: not
        # GetS) or a shared copy (GetS); a core has one request, so it
        # appears once at most.
        writers: List[int] = []
        readers: List[int] = []
        for r in line_reqs:
            state = r.state
            if state is waiting or state is transferring:
                if r.kind is gets:
                    readers.append(r.core_id)
                else:
                    writers.append(r.core_id)
        if not writers and not readers:
            return
        now = self.kernel._now
        protocol = self.protocol
        index = line_addr & self._set_mask
        modified = LineState.M
        for cache, lines in self._slots:
            copy = lines[index]
            state = copy.state
            if not state or copy.line_addr != line_addr:
                continue
            cid = cache.core_id
            # A request of another core conflicts (its own does not).
            writer = len(writers) > writers.count(cid)
            reader = state == modified and len(readers) > readers.count(cid)
            if not writer and not reader:
                continue
            downgrade = reader and not writer
            action = protocol.snoop_action(cache, state)
            if action is SnoopAction.INVALIDATE:
                # A snooping MSI core gives up a shared copy at once.
                copy.invalidate()
            elif action is SnoopAction.CONCEDE:
                # A snooping MSI owner concedes immediately and only
                # remains as the data source of the handover.
                if copy.pending_inv_since is None:
                    copy.arm_pending(now)
                copy.pending_is_downgrade = downgrade
                copy.inv_at = copy.pending_inv_since
                copy.handover_ready = True
            elif action is SnoopAction.TIMER:
                newly = copy.pending_inv_since is None
                cache.mark_pending(copy, now, downgrade=downgrade)
                if newly and not copy.handover_ready:
                    self._schedule_expiry(cache, copy)
            # SnoopAction.IGNORE: the copy is unaffected.

    def _schedule_expiry(self, cache: PrivateCache, copy: CacheLine) -> None:
        assert copy.inv_at is not None
        self.kernel.schedule(
            copy.inv_at,
            PHASE_EFFECT,
            self.on_timer_expiry,
            cache.core_id,
            copy.line_addr,
            copy.generation,
        )

    def on_timer_expiry(
        self, core_id: int, line_addr: int, generation: int
    ) -> None:
        """A countdown-counter expiry fired (Figure 3); act if still live."""
        cache = self.caches[core_id]
        copy = cache.lookup(line_addr)
        if copy is None or copy.generation != generation:
            return
        if copy.pending_inv_since is None or copy.inv_at is None:
            return
        now = self.kernel._now
        if now < copy.inv_at:
            return
        if self._transfer_source == (core_id, line_addr):
            # The line is mid-transfer as a data source; act right after.
            self.kernel.schedule(
                self.system.bus.busy_until,
                PHASE_EFFECT,
                self.on_timer_expiry,
                core_id,
                line_addr,
                generation,
            )
            return
        self.events.emit(
            "timer_expiry", core=core_id, line=line_addr,
            state=copy.state.name,
            downgrade=copy.pending_is_downgrade,
        )
        if copy.state == LineState.M:
            copy.handover_ready = True
        else:
            copy.invalidate()
        self.update_line(line_addr)

    # ------------------------------------------------------------- readiness

    def update_line(self, line_addr: int) -> None:
        """Re-evaluate readiness of every waiting request for the line."""
        self._update_line_inner(line_addr)
        line_reqs = self._line_reqs.get(line_addr)
        if line_reqs:
            waiting = ReqState.WAITING
            for r in line_reqs:
                if r.ready and r.state is waiting:
                    self.system.request_arbitration()
                    return

    def _update_line_inner(self, line_addr: int) -> None:
        # The dict entry is only ever mutated in place (never replaced),
        # so one lookup serves every round of the loop below.
        all_reqs = self._line_reqs.get(line_addr)
        if not all_reqs:
            return
        slots = self._slots
        index = line_addr & self._set_mask
        waiting_state = ReqState.WAITING
        transferring_state = ReqState.TRANSFERRING
        modified = LineState.M
        while True:
            reqs = []
            transfer_in_flight = False
            for r in all_reqs:
                state = r.state
                if state is waiting_state:
                    reqs.append(r)
                elif state is transferring_state:
                    transfer_in_flight = True
            if not reqs:
                return
            for r in reqs:
                r.ready = False
                r.source = None
            if transfer_in_flight:
                return
            copies = []
            owner = None
            for cache, lines in slots:
                copy = lines[index]
                if copy.state and copy.line_addr == line_addr:
                    copies.append((cache, copy))
                    if copy.state == modified:
                        assert owner is None, (
                            f"multiple owners of line {line_addr}"
                        )
                        owner = (cache, copy)
            # Same-line requests are served strictly in bus (broadcast)
            # order.  A younger request must never leapfrog an older one:
            # its fresh fill would open a *second* timer window against
            # the older requester, exceeding the per-core θ_j budget of
            # Equation 1.  (Found twice by the property suite — once via
            # racing upgrades, once via a reader overtaking a writer.)
            if len(reqs) == 1:
                oldest = reqs[0]
            else:
                oldest = min(reqs, key=lambda r: (r.broadcast_cycle, r.req_id))
            if not self._evaluate_request(oldest, copies, owner):
                return

    def _evaluate_request(
        self,
        req: CoherenceRequest,
        copies: List[Tuple[PrivateCache, CacheLine]],
        owner: Optional[Tuple[PrivateCache, CacheLine]],
    ) -> bool:
        """Compute readiness of one waiting request.

        Returns True when evaluation *changed cache state* (an upgrade
        completed, or a via-LLC owner spill), which invalidates the
        caller's copies/owner snapshot and forces a re-evaluation pass.
        """
        line_addr = req.line_addr
        req.ready = False
        req.source = None

        if req.kind == ReqKind.UPG:
            own_cache = self.caches[req.core_id]
            own = own_cache.lookup(line_addr)
            if own is None or not own.valid or own.frozen:
                # Lost the local copy while waiting: needs data after all.
                req.kind = ReqKind.GETM
            elif self._earlier_writer_waiting(req):
                # Bus order: an ownership request broadcast before this
                # upgrade wins the line first.  Completing here would
                # restart the timer window over the earlier writer and
                # break the Equation-1 bound.  The upgrader immediately
                # self-invalidates its shared copy (it is about to lose it
                # anyway) so that its own timer never delays the winner —
                # and, transitively, its own re-queued GetM.
                own.invalidate()
                req.kind = ReqKind.GETM
                return True
            else:
                blockers = [
                    cp for c, cp in copies if c.core_id != req.core_id and cp.valid
                ]
                if blockers:
                    return False
                self._complete_upgrade(req, own_cache, own)
                return True

        if req.kind == ReqKind.GETM:
            own_cache = self.caches[req.core_id]
            own = own_cache.lookup(line_addr)
            if own is not None and own.valid:
                # Our own (frozen) copy is still being handed to an earlier
                # winner; wait for that transfer to invalidate it.
                return False
            for cache, cp in copies:
                if cache.core_id == req.core_id:
                    continue
                if cp.state == LineState.M and cp.handover_ready:
                    continue  # acceptable: it is the data source
                return False  # a copy still protected by its timer
            if owner is not None and owner[0].core_id != req.core_id:
                ocache, ocopy = owner
                if not ocopy.handover_ready:
                    return False
                if self._via_llc:
                    # PCC/PMSI family: the dirty owner writes back to the
                    # LLC and the requester re-fetches from there.
                    self._spill_owner(ocache, ocopy)
                    return True
                req.source = ocache.core_id
                req.ready = True
                return False
            return self._backend_source_ready(req)

        # GETS
        if owner is not None and owner[0].core_id != req.core_id:
            ocache, ocopy = owner
            if not ocopy.handover_ready:
                return False
            if self._via_llc:
                self._spill_owner(ocache, ocopy)
                return True
            req.source = ocache.core_id
            req.ready = True
            return False
        if owner is not None and owner[0].core_id == req.core_id:
            # Own frozen modified copy awaiting an earlier handover.
            return False
        return self._backend_source_ready(req)

    def _earlier_writer_waiting(self, req: CoherenceRequest) -> bool:
        """An ownership request from another core was broadcast before ours."""
        waiting = ReqState.WAITING
        transferring = ReqState.TRANSFERRING
        for other in self._line_reqs.get(req.line_addr, []):
            if other is req or other.core_id == req.core_id:
                continue
            if not other.wants_ownership:
                continue
            state = other.state
            if state is not waiting and state is not transferring:
                continue
            if (other.broadcast_cycle, other.req_id) < (
                req.broadcast_cycle,
                req.req_id,
            ):
                return True
        return False

    def _backend_source_ready(self, req: CoherenceRequest) -> bool:
        """Mark the request ready from the backend (may start a DRAM fetch)."""
        if not self.backend.ready_for_read(req.line_addr):
            return False
        req.source = LLC_SOURCE
        req.ready = True
        return False

    def _spill_owner(self, ocache: PrivateCache, ocopy: CacheLine) -> None:
        """Via-LLC handover: invalidate the dirty owner into a write-back."""
        line_addr = ocopy.line_addr
        dirty = ocopy.dirty
        version = ocopy.version
        ocache.array.slot(line_addr).invalidate()
        if dirty:
            self.backend.enqueue_writeback(ocache.core_id, line_addr, version)
        # Clean owner: the LLC already has the current version.

    # ------------------------------------------------------------ completions

    def begin_transfer(self, req: CoherenceRequest) -> None:
        """The arbiter granted this request its data-transfer bus slot."""
        assert req.state == ReqState.WAITING and req.ready, req
        req.state = ReqState.TRANSFERRING
        self.transfer_line = req.line_addr
        if req.source is not None and req.source >= 0:
            self._transfer_source = (req.source, req.line_addr)
        # Hold back other waiters on this line while the transfer runs.
        self.update_line(req.line_addr)

    def _on_broadcast_or_data_cleanup(self, req: CoherenceRequest) -> None:
        line_reqs = self._line_reqs.get(req.line_addr)
        if line_reqs is not None:
            if req in line_reqs:
                line_reqs.remove(req)
            if not line_reqs:
                del self._line_reqs[req.line_addr]

    def _finish_request(self, req: CoherenceRequest, upgrade: bool) -> None:
        now = self.kernel._now
        latency = now - req.issue_cycle
        self._core_stats[req.core_id].record_miss(latency, upgrade)
        events = self.events
        if events.wants("fill"):
            events.emit(
                "fill", core=req.core_id, line=req.line_addr,
                req_kind=req.kind.name, latency=latency,
                upgrade=upgrade, source=req.source,
            )
        else:
            events.emit("fill")  # counted; nobody reads a payload
        req.state = ReqState.DONE
        req.complete_cycle = now
        self._on_broadcast_or_data_cleanup(req)
        del self.requests[req.core_id]
        self.system.arbiter.on_request_completed(req.core_id)
        self.system.cores[req.core_id].on_fill(now)

    def _complete_upgrade(
        self, req: CoherenceRequest, cache: PrivateCache, own: CacheLine
    ) -> None:
        now = self.kernel._now
        own.state = LineState.M
        own.fill_cycle = now  # ownership acquired: the timer restarts
        own.clear_pending()
        own.generation += 1
        self.oracle.perform_write(req.core_id, own)
        self._finish_request(req, upgrade=True)
        self.refresh_snoop(req.line_addr)

    def on_data_done(self, req: CoherenceRequest) -> None:
        """The data-transfer bus slot completed: fill and finish."""
        now = self.kernel._now
        line_addr = req.line_addr
        self._transfer_source = None
        self.transfer_line = None
        if req.source == LLC_SOURCE:
            self.backend.record_fill_access(line_addr, now)
            version = self.backend.version(line_addr)
        else:
            src_cache = self.caches[req.source]
            src = src_cache.lookup(line_addr)
            assert src is not None and src.state == LineState.M, (
                f"data source vanished for {req}"
            )
            version = src.version
            if req.kind == ReqKind.GETM:
                src.invalidate()
            else:
                # A reader handover: the owner's post-handover fate is the
                # protocol's call.  An MSI owner downgrades M→S and keeps
                # its copy (KEEP_SHARED).  A *timed* owner's countdown
                # counter expired with the request pending, and per
                # Figure 3 the line is invalidated — keeping an S copy
                # would start a second protection window and break the
                # Equation-1 bound for any writer queued behind the
                # reader.  PMSI-style protocols invalidate-on-share too.
                action = self.protocol.reader_handover(src_cache)
                if action is HandoverAction.KEEP_SHARED:
                    src.state = LineState.S
                    src.dirty = False
                    src.clear_pending()
                else:
                    src.invalidate()
                # The transfer snarfs the data into the LLC as well.
                self.backend.snarf(line_addr, version, now)

        state = LineState.M if req.kind == ReqKind.GETM else LineState.S
        cache = self.caches[req.core_id]
        victim = cache.fill(line_addr, state, now, version)
        new_line = cache.lookup(line_addr)
        if req.op == MemOp.STORE:
            self.oracle.perform_write(req.core_id, new_line)
        else:
            self.oracle.check_read(req.core_id, new_line)
        self._finish_request(req, upgrade=False)
        if victim is not None:
            self._handle_eviction(req.core_id, victim)
        self.refresh_snoop(line_addr)
        self.update_line(line_addr)

    def _handle_eviction(self, core_id: int, victim) -> None:
        if victim.dirty:
            self.backend.enqueue_writeback(core_id, victim.line_addr, victim.version)
        self.refresh_snoop(victim.line_addr)
        self.update_line(victim.line_addr)
