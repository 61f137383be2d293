"""The trace-replay core model.

Each core replays a :class:`~repro.sim.trace.Trace`: it computes for the
access's ``gap`` cycles, then issues the access to its private cache.
Hits retire after the hit latency; a miss hands a coherence request to
the protocol engine and the core waits for the fill.

The paper's cores are out-of-order with non-blocking private caches
"allowing hits-over-misses"; this is modelled as a bounded *run-ahead*
window: while one miss is outstanding, the core keeps executing
subsequent trace entries **as long as they hit**, up to
``runahead_window`` entries, stopping early at the first further miss.
Run-ahead hits overlap with the miss latency, which is exactly the
performance effect the timer-protected lines of CoHoRT amplify.

Performance: consecutive hits are retired *inline* whenever
:meth:`~repro.sim.kernel.EventKernel.advance_if_next` proves that the
issue event the core would schedule is the next event to run anyway —
no other core, timer or bus event can observe or change state in
between, so skipping the heap round-trip is cycle-identical to the
event-per-access path (``fast_path=False`` restores the latter; the
regression suite asserts equivalence on random workloads).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.sim.trace import Trace, decode_trace


class CoreState(enum.Enum):
    """Execution state of a replay core."""

    RUNNING = "running"
    WAITING = "waiting"   #: one miss outstanding (run-ahead may continue).
    DONE = "done"


class Core:
    """Replays one trace against the memory system."""

    __slots__ = (
        "core_id",
        "trace",
        "system",
        "hit_latency",
        "runahead_window",
        "fast_path",
        "_decoded",
        "_line_addrs",
        "_gaps",
        "_ops",
        "state",
        "pos",
        "_epoch",
        "_miss_index",
        "_ra_next",
        "_ra_blocked",
        "_ra_exhausted",
        "finish_cycle",
    )

    def __init__(
        self,
        core_id: int,
        trace: Trace,
        system: "object",
        line_bytes: int,
        hit_latency: int,
        runahead_window: int,
        fast_path: bool = True,
    ) -> None:
        self.core_id = core_id
        self.trace = trace
        self.system = system
        self.hit_latency = hit_latency
        self.runahead_window = runahead_window
        self.fast_path = fast_path
        # Plain Python lists: per-entry indexing of numpy arrays allocates
        # a numpy scalar per access, which dominates the replay loop.  The
        # lists come from the process-local decoded-trace cache, so a sweep
        # re-running one trace under many configs decodes it exactly once.
        decoded = decode_trace(trace, line_bytes)
        self._decoded = decoded
        self._line_addrs = decoded.lines
        self._gaps = decoded.gaps
        self._ops = decoded.ops

        self.state = CoreState.RUNNING
        self.pos = 0
        self._epoch = 0
        self._miss_index: Optional[int] = None
        # Run-ahead bookkeeping (valid only while WAITING):
        self._ra_next: Optional[Tuple[int, int]] = None       # (index, due cycle)
        self._ra_blocked: Optional[Tuple[int, int]] = None    # (index, cycle)
        self._ra_exhausted: Optional[Tuple[int, int]] = None  # (next index, cycle)
        self.finish_cycle: Optional[int] = None

    # -- helpers ---------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state == CoreState.DONE

    @property
    def num_entries(self) -> int:
        return len(self._gaps)

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Schedule the first access (called once by the system)."""
        if self.num_entries == 0:
            self._finish(0)
            return
        self._schedule_issue(0, at=self._gaps[0])

    def _schedule_issue(self, index: int, at: int) -> None:
        self.system.kernel.schedule(
            at, self.system.PHASE_CORE, self._issue, self._epoch, index
        )

    def _finish(self, cycle: int) -> None:
        self.state = CoreState.DONE
        self.finish_cycle = cycle
        self.system.on_core_done(self.core_id, cycle)

    def _advance(self, next_index: int, retire_cycle: int) -> None:
        """Move on after retiring everything before ``next_index``."""
        self.pos = next_index
        if next_index >= self.num_entries:
            self._finish(retire_cycle)
            return
        self._schedule_issue(next_index, at=retire_cycle + self._gaps[next_index])

    # -- normal issue -------------------------------------------------------------

    def _issue(self, epoch: int, index: int) -> None:
        if epoch != self._epoch or self.state == CoreState.DONE:
            return
        system = self.system
        kernel = system.kernel
        try_access = system.try_access
        advance_if_next = kernel.advance_if_next
        gaps = self._gaps
        ops = self._ops
        lines = self._line_addrs
        core_id = self.core_id
        hit_latency = self.hit_latency
        n = len(gaps)
        phase_core = system.PHASE_CORE
        fast = self.fast_path
        while True:
            if not try_access(core_id, ops[index], lines[index], False):
                break
            retire = kernel._now + hit_latency
            nxt = index + 1
            if nxt >= n:
                self.pos = nxt
                self._finish(retire)
                return
            due = retire + gaps[nxt]
            self.pos = nxt
            if fast and advance_if_next(due, phase_core):
                # The issue event for `nxt` would be the next event popped:
                # retire it inline without touching the heap.
                index = nxt
                continue
            self._schedule_issue(nxt, at=due)
            return
        # Miss: the system created and enqueued the coherence request.
        now = kernel._now
        self.state = CoreState.WAITING
        self._miss_index = index
        self._ra_next = None
        self._ra_blocked = None
        self._ra_exhausted = None
        nxt = index + 1
        if self.runahead_window > 0 and nxt < n:
            self._schedule_ra(nxt, at=now + gaps[nxt])
        else:
            self._ra_exhausted = (nxt, now)

    # -- run-ahead ----------------------------------------------------------------

    def _schedule_ra(self, index: int, at: int) -> None:
        self._ra_next = (index, at)
        self.system.kernel.schedule(
            at, self.system.PHASE_CORE, self._ra_step, self._epoch, index
        )

    def _ra_step(self, epoch: int, index: int) -> None:
        if epoch != self._epoch or self.state != CoreState.WAITING:
            return
        system = self.system
        kernel = system.kernel
        try_access = system.try_access
        advance_if_next = kernel.advance_if_next
        gaps = self._gaps
        ops = self._ops
        lines = self._line_addrs
        core_id = self.core_id
        hit_latency = self.hit_latency
        window = self.runahead_window
        n = len(gaps)
        phase_core = system.PHASE_CORE
        fast = self.fast_path
        miss_index = self._miss_index
        assert miss_index is not None
        while True:
            if not try_access(core_id, ops[index], lines[index], True):
                self._ra_next = None
                self._ra_blocked = (index, kernel._now)
                return
            retire = kernel._now + hit_latency
            nxt = index + 1
            if nxt >= n or (nxt - miss_index) > window:
                self._ra_next = None
                self._ra_exhausted = (nxt, retire)
                return
            due = retire + gaps[nxt]
            if fast and advance_if_next(due, phase_core):
                self._ra_next = (nxt, due)
                index = nxt
                continue
            self._schedule_ra(nxt, at=due)
            return

    # -- fill ---------------------------------------------------------------------

    def on_fill(self, fill_cycle: int) -> None:
        """The outstanding miss completed; resume execution."""
        if self.state != CoreState.WAITING:
            raise RuntimeError(f"core {self.core_id} got a fill while not waiting")
        self._epoch += 1  # cancels any in-flight run-ahead event
        self.state = CoreState.RUNNING
        self._miss_index = None
        if self._ra_next is not None:
            index, due = self._ra_next
            # The run-ahead check for `index` was due at `due`; its gap has
            # already been consumed, so issue it as soon as both the gap and
            # the fill allow.
            self.pos = index
            self._schedule_issue(index, at=max(fill_cycle, due))
        elif self._ra_blocked is not None:
            index, since = self._ra_blocked
            self.pos = index
            self._schedule_issue(index, at=max(fill_cycle, since))
        else:
            assert self._ra_exhausted is not None
            index, at = self._ra_exhausted
            self._advance(index, retire_cycle=max(fill_cycle, at))
        self._ra_next = None
        self._ra_blocked = None
        self._ra_exhausted = None
