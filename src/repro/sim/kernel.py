"""A minimal deterministic discrete-event kernel.

The simulator is *cycle-accurate* in the sense that every event happens at
an integer cycle and same-cycle events are ordered by an explicit phase:

* :data:`PHASE_EFFECT` — hardware state updates (bus transaction
  completion, timer expiry, DRAM fill).
* :data:`PHASE_CORE` — core-side activity (issuing accesses, run-ahead).
* :data:`PHASE_ARBITRATE` — bus arbitration, which must observe every
  state change of the cycle.

Ties within a phase break on scheduling order, which makes runs fully
deterministic.

Events are stored as ``(cycle, phase, seq, fn, args)`` tuples: callers
pass a (typically bound-method) callable plus positional arguments
instead of allocating a fresh closure per event, which keeps the
per-event cost on the simulator's hot path low.  :meth:`advance_if_next`
additionally lets a core retire consecutive private-cache hits *inline*
(without any heap traffic) whenever the event it would schedule is
provably the next one to run — see :mod:`repro.sim.core` and
``docs/performance.md`` for the equivalence argument.

:meth:`EventKernel.run` processes events until the heap drains or a
handler calls :meth:`EventKernel.stop` (the system does when its last
core finishes); the loop reads one flag per event.  Events still queued
at that point never run.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple

PHASE_EFFECT = 0
PHASE_CORE = 1
PHASE_ARBITRATE = 2

#: Default ``max_cycles`` guard used outside :meth:`EventKernel.run`.
_NO_LIMIT = 1 << 62


class SimulationLimitError(RuntimeError):
    """Raised when a run exceeds its ``max_cycles`` safety valve."""


class EventKernel:
    """Priority-queue event loop with integer cycles and phases."""

    __slots__ = ("_heap", "_now", "_seq", "_max_cycles", "_stopped")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, Callable, tuple]] = []
        self._now = 0
        self._seq = 0
        self._max_cycles = _NO_LIMIT
        self._stopped = False

    @property
    def now(self) -> int:
        """The current cycle."""
        return self._now

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    @property
    def scheduled_events(self) -> int:
        """Events scheduled over the kernel's life (heap pushes)."""
        return self._seq

    def schedule(self, cycle: int, phase: int, fn: Callable, *args) -> None:
        """Schedule ``fn(*args)`` to run at ``cycle`` in ``phase``."""
        if cycle < self._now:
            raise ValueError(
                f"cannot schedule in the past (now={self._now}, cycle={cycle})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (cycle, phase, self._seq, fn, args))

    def advance_if_next(self, cycle: int, phase: int) -> bool:
        """Advance the clock to ``(cycle, phase)`` if no event precedes it.

        Returns True (and sets :attr:`now` to ``cycle``) exactly when an
        event scheduled now at ``(cycle, phase)`` would be the next one
        popped from the heap: the caller may then run its handler inline
        instead of scheduling it, with cycle-identical results.  A heap
        entry at the *same* ``(cycle, phase)`` was scheduled earlier and
        therefore wins the FIFO tie, so it refuses the fast path too.
        """
        heap = self._heap
        if heap:
            head = heap[0]
            if head[0] < cycle or (head[0] == cycle and head[1] <= phase):
                return False
        if cycle > self._max_cycles:
            raise SimulationLimitError(
                f"simulation exceeded max_cycles={self._max_cycles}"
            )
        self._now = cycle
        return True

    def stop(self) -> None:
        """End :meth:`run` before its next event.

        Called from inside a handler (the system calls it when its last
        core finishes); the handler itself runs to completion.  Called
        before :meth:`run`, the run processes no event at all.
        """
        self._stopped = True

    def run(self, max_cycles: int) -> int:
        """Process events until :meth:`stop` is called or the heap drains.

        Returns the final cycle.  Raises :class:`SimulationLimitError` when
        the clock passes ``max_cycles``.
        """
        self._max_cycles = max_cycles
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and not self._stopped:
                cycle, _phase, _seq, fn, args = pop(heap)
                if cycle > max_cycles:
                    raise SimulationLimitError(
                        f"simulation exceeded max_cycles={max_cycles}"
                    )
                self._now = cycle
                fn(*args)
        finally:
            self._max_cycles = _NO_LIMIT
            self._stopped = False
        return self._now
