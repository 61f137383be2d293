"""Shared-bus arbitration policies.

Four policies cover every system evaluated in the paper:

* :class:`RROFArbiter` — Round-Robin Oldest-First [18], used by CoHoRT and
  the PCC baseline.  Cores are granted in a cyclic sequence; a core
  stalled on a remote timer is skipped without losing its position, and a
  core rotates to the back exactly when the bus finishes serving it (a
  request completes, or a shared-bus write-back drains) — the discipline
  the Equation-1 WCL bound charges.  See the class docstring for why.
* :class:`RoundRobinArbiter` — plain RR (rotates on every grant).
* :class:`FCFSArbiter` — COTS first-come first-serve, the normalisation
  baseline of Figure 6.
* :class:`TDMArbiter` — PENDULUM's time-division multiplexing: fixed
  slots cycle over the *critical* cores only; non-critical cores are
  served exclusively when no critical core has an outstanding request.

Each round the system hands the arbiter the protocol engine's request
table — core id → that core's one outstanding
:class:`~repro.sim.messages.CoherenceRequest` — and the write-backs
waiting for a shared-bus slot (``wb_on_bus`` only, oldest first), and
the arbiter returns the request or write-back to grant, or None.  A
request is grantable while ``QUEUED`` (its broadcast) or ``WAITING`` and
``ready`` (its data transfer).  Within one core the grantable request
goes first, then the oldest write-back: the data > broadcast >
write-back priority, since a core never has two requests.  No job list
is built.  The system runs a round only when the bus can grant; a
policy that grants only at certain cycles (TDM slot boundaries) names
the cycle to try again in :attr:`Arbiter.wake_at`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Collection, Iterable, List, Mapping, Optional, Sequence, Union

from repro.params import ArbiterKind, SimConfig
from repro.sim.messages import CoherenceRequest, ReqState, Writeback


def _oldest_writeback(
    core_id: int, writebacks: Collection[Writeback]
) -> Optional[Writeback]:
    """``core_id``'s oldest write-back waiting for the bus, or None."""
    for wb in writebacks:
        if wb.core_id == core_id:
            return wb
    return None


def _first_job(
    order: Iterable[int],
    requests: Mapping[int, CoherenceRequest],
    writebacks: Collection[Writeback],
) -> Optional[Union[CoherenceRequest, Writeback]]:
    """The best grantable job of the first core in ``order`` with one.

    A core's best job is its request when grantable (data or broadcast;
    a core has one request at most), else its oldest write-back."""
    queued = ReqState.QUEUED
    waiting = ReqState.WAITING
    for core_id in order:
        req = requests.get(core_id)
        if req is not None:
            state = req.state
            if state is queued or (state is waiting and req.ready):
                return req
        if writebacks:
            wb = _oldest_writeback(core_id, writebacks)
            if wb is not None:
                return wb
    return None


class Arbiter(ABC):
    """Base class of all arbitration policies."""

    #: Set by :meth:`decide` when it declined although a job was
    #: grantable: the cycle to arbitrate again (TDM slot boundaries).
    #: None otherwise; read only right after a None decision.
    wake_at: Optional[int] = None

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores

    @abstractmethod
    def decide(
        self,
        cycle: int,
        requests: Mapping[int, CoherenceRequest],
        writebacks: Collection[Writeback],
    ) -> Optional[Union[CoherenceRequest, Writeback]]:
        """Pick the request or write-back to grant at ``cycle``, or None.

        ``requests`` holds every core's outstanding request, grantable
        or not: one waiting on a remote timer has no job right now, but
        its core still counts as busy (the TDM policy needs that to
        decide whether non-critical cores may use the slack).
        ``writebacks`` are the write-backs waiting for a bus slot,
        oldest first.
        """

    def on_request_completed(self, core_id: int) -> None:
        """Notification that one of ``core_id``'s requests finished."""

    def on_writeback_completed(self, core_id: int) -> None:
        """Notification that a write-back slot granted to ``core_id`` on
        the shared bus completed (``wb_on_bus=True`` configurations only;
        write-backs draining through the dedicated port never touch the
        arbiter)."""


class RROFArbiter(Arbiter):
    """Round-Robin Oldest-First: rotate the served core to the back.

    A core keeps its position while it is merely *waiting* — stalled on a
    remote timer, or with nothing grantable — so skipped turns cost it
    nothing.  Its position is consumed the moment the bus finishes serving
    it: when one of its requests completes, or (under ``wb_on_bus=True``)
    when one of its write-backs drains.  The served core then drops behind
    *every* core still waiting, not merely one slot.

    That full rotation is what the Equation-1 WCL derivation charges: each
    competing core delays a request by at most one slot (plus its timer
    term) because after being served it cannot be served again until the
    victim has had its turn.  A rotate-only-if-head variant (moving the
    core only when it sat at the front) would let a core ahead of the
    requester be served unboundedly often while the head core stalls on a
    remote timer, and the per-request latency property tests catch exactly
    that.  The same budget is why write-backs rotate too: the shared-WB
    bound (:func:`repro.analysis.wcl.wcl_miss_shared_wb`) charges one
    write-back slot per competing core, which only holds if a core cannot
    drain two buffered write-backs ahead of another core's waiting
    request.

    Completions can arrive out of RROF order (a core served from deeper
    in the sequence because everyone ahead was stalled); the rotation
    applies to whichever core actually completed.
    """

    def __init__(self, num_cores: int) -> None:
        super().__init__(num_cores)
        self._order = deque(range(num_cores))

    @property
    def order(self) -> List[int]:
        return list(self._order)

    def decide(
        self,
        cycle: int,
        requests: Mapping[int, CoherenceRequest],
        writebacks: Collection[Writeback],
    ) -> Optional[Union[CoherenceRequest, Writeback]]:
        """Grant the first core in RROF order with a grantable job."""
        return _first_job(self._order, requests, writebacks)

    def on_request_completed(self, core_id: int) -> None:
        """The served core rotates to the back of the sequence."""
        self._order.remove(core_id)
        self._order.append(core_id)

    def on_writeback_completed(self, core_id: int) -> None:
        """A bus write-back slot consumes the core's turn, like a request.

        Without this, a core with several buffered write-backs could hold
        the front of the sequence and drain them back-to-back ahead of
        every other core's waiting request — violating the one-slot-per-
        core budget of :func:`repro.analysis.wcl.wcl_miss_shared_wb`.
        """
        self._order.remove(core_id)
        self._order.append(core_id)


class RoundRobinArbiter(Arbiter):
    """Plain round-robin: the sequence rotates past every granted core."""

    def __init__(self, num_cores: int) -> None:
        super().__init__(num_cores)
        self._order = deque(range(num_cores))

    def decide(
        self,
        cycle: int,
        requests: Mapping[int, CoherenceRequest],
        writebacks: Collection[Writeback],
    ) -> Optional[Union[CoherenceRequest, Writeback]]:
        """Grant the first core in order with a job; rotate past it."""
        job = _first_job(self._order, requests, writebacks)
        if job is not None:
            self._order.remove(job.core_id)
            self._order.append(job.core_id)
        return job


class FCFSArbiter(Arbiter):
    """COTS first-come first-serve over all grantable jobs."""

    def decide(
        self,
        cycle: int,
        requests: Mapping[int, CoherenceRequest],
        writebacks: Collection[Writeback],
    ) -> Optional[Union[CoherenceRequest, Writeback]]:
        """Grant the oldest grantable job, regardless of core.

        Requests and write-backs share one sequence space (``req_id``
        and ``seq``), so age compares across both."""
        queued = ReqState.QUEUED
        waiting = ReqState.WAITING
        best: Optional[Union[CoherenceRequest, Writeback]] = None
        best_seq = 0
        for req in requests.values():
            state = req.state
            if state is queued or (state is waiting and req.ready):
                if best is None or req.req_id < best_seq:
                    best, best_seq = req, req.req_id
        wb = next(iter(writebacks), None)  # the oldest write-back
        if wb is not None and (best is None or wb.seq < best_seq):
            best = wb
        return best


class TDMArbiter(Arbiter):
    """PENDULUM's arbitration: TDM over critical cores, slack for the rest.

    Grants happen only at slot boundaries (every ``slot_width`` cycles).
    The slot owner runs its best job; if the owner has nothing grantable,
    the slot is *idle* unless no critical core has any outstanding request,
    in which case a non-critical core is served (round-robin among them).
    """

    def __init__(
        self,
        num_cores: int,
        critical_cores: Sequence[int],
        slot_width: int,
    ) -> None:
        super().__init__(num_cores)
        if not critical_cores:
            raise ValueError("TDM arbitration needs at least one critical core")
        if slot_width < 1:
            raise ValueError("slot width must be positive")
        self.critical_cores = list(critical_cores)
        self.slot_width = slot_width
        self._ncr_order = deque(
            c for c in range(num_cores) if c not in set(critical_cores)
        )

    def slot_owner(self, cycle: int) -> int:
        """The critical core owning the slot containing ``cycle``."""
        slot = cycle // self.slot_width
        return self.critical_cores[slot % len(self.critical_cores)]

    def next_boundary(self, cycle: int) -> int:
        """First slot boundary strictly after ``cycle``."""
        return (cycle // self.slot_width + 1) * self.slot_width

    def decide(
        self,
        cycle: int,
        requests: Mapping[int, CoherenceRequest],
        writebacks: Collection[Writeback],
    ) -> Optional[Union[CoherenceRequest, Writeback]]:
        """Grant at slot boundaries only; see the class docstring."""
        self.wake_at = None
        if cycle % self.slot_width == 0:
            job = self._slot_job(cycle, requests, writebacks)
            if job is not None:
                return job
        if writebacks or _first_job(requests, requests, ()) is not None:
            # Grantable work waits for a later slot.
            self.wake_at = self.next_boundary(cycle)
        return None

    def _slot_job(
        self,
        cycle: int,
        requests: Mapping[int, CoherenceRequest],
        writebacks: Collection[Writeback],
    ) -> Optional[Union[CoherenceRequest, Writeback]]:
        """The job a slot boundary grants: the owner's, else slack."""
        job = _first_job((self.slot_owner(cycle),), requests, writebacks)
        if job is not None:
            return job
        cr_busy = any(c in requests for c in self.critical_cores)
        queued = ReqState.QUEUED
        for core_id in self._ncr_order:
            job = _first_job((core_id,), requests, writebacks)
            if (
                cr_busy
                and isinstance(job, CoherenceRequest)
                and job.state is queued
            ):
                # Non-critical *requests* are gated while any critical
                # core has an outstanding request, but in-flight
                # transactions (data responses, write-backs) must
                # complete in idle slots — otherwise a critical core
                # waiting on a handover to a non-critical requester
                # would deadlock the bus.
                job = _oldest_writeback(core_id, writebacks)
            if job is not None:
                self._ncr_order.remove(core_id)
                self._ncr_order.append(core_id)
                return job
        return None


def build_arbiter(config: SimConfig) -> Arbiter:
    """Instantiate the arbiter selected by ``config.arbiter``."""
    kind = config.arbiter
    if kind == ArbiterKind.RROF:
        return RROFArbiter(config.num_cores)
    if kind == ArbiterKind.ROUND_ROBIN:
        return RoundRobinArbiter(config.num_cores)
    if kind == ArbiterKind.FCFS:
        return FCFSArbiter(config.num_cores)
    if kind == ArbiterKind.TDM:
        critical = [
            i for i in range(config.num_cores) if config.core_config(i).critical
        ]
        if not critical:
            critical = list(range(config.num_cores))
        return TDMArbiter(
            config.num_cores, critical, config.latencies.slot_width
        )
    raise ValueError(f"unknown arbiter kind: {kind}")
