"""The shared snooping bus.

A thin occupancy model: at most one job (request broadcast or data
transfer) holds the bus at a time; the protocol engine grants jobs chosen
by the arbiter and schedules their completion.  Write-backs drain through
a dedicated write-back port to the LLC by default (``wb_on_bus=False``)
so that eviction traffic does not interfere with the latency bound of
Equation 1; setting ``wb_on_bus=True`` serialises them on the main bus
instead (with a correspondingly extended analytical bound, see
:func:`repro.analysis.wcl.wcl_miss_shared_wb`).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.sim.messages import CoherenceRequest, Writeback


class SharedBus:
    """Single-occupancy bus with separate job and stall horizons.

    Two clocks back the occupancy model.  ``_job_done`` is the completion
    cycle of the currently granted job; :meth:`release` checks only this
    one, so a fault-injected stall overlapping an in-flight transfer does
    not make the engine's perfectly timed release look early.  A
    ``_stall_until`` horizon records injected occupancy; grants honour
    whichever horizon is later, kept in :attr:`busy_until`.
    """

    __slots__ = ("_job_done", "_stall_until", "_current", "busy_until")

    def __init__(self) -> None:
        self._job_done = 0
        self._stall_until = 0
        #: The request (broadcast or data transfer) or the write-back
        #: holding the bus.
        self._current: Optional[Union[CoherenceRequest, Writeback]] = None
        #: First cycle at which a new grant may happen (the later of the
        #: job and stall horizons; kept current by grant and stall).
        self.busy_until = 0

    def idle(self, now: int) -> bool:
        """Whether the bus can accept a grant at ``now``."""
        return now >= self.busy_until

    @property
    def current_job(self) -> Optional[Union[CoherenceRequest, Writeback]]:
        """The request or write-back holding the bus, or None."""
        return self._current

    def grant(
        self, job: Union[CoherenceRequest, Writeback], now: int, duration: int
    ) -> int:
        """Occupy the bus with ``job``; returns the completion cycle.

        The grant happens at or after :attr:`busy_until`, which is past
        any stall, so the job's completion is the new horizon."""
        if now < self.busy_until:
            raise RuntimeError(
                f"bus grant at cycle {now} while busy until {self.busy_until}"
            )
        if duration < 1:
            raise ValueError("bus occupancy must be at least one cycle")
        done = self.busy_until = self._job_done = now + duration
        self._current = job
        return done

    def release(self, now: int) -> None:
        """Called by the engine when the current job completes.

        Checked against the job's own completion cycle, not the stall
        horizon: a stall injected mid-transfer extends the time until the
        *next* grant, but the in-flight job still completes on schedule.
        """
        if now < self._job_done:
            raise RuntimeError("bus released before the job completed")
        self._current = None

    def stall(self, now: int, duration: int) -> int:
        """Externally-injected occupancy without a job (fault injection).

        Extends ``busy_until`` so no new grant can happen before the
        stall ends; there is no current job and no release is required.
        An in-flight job keeps its own completion cycle — the stall only
        delays subsequent arbitration.  The caller is responsible for
        re-requesting arbitration at the returned cycle.  Only
        :mod:`repro.fi` uses this — the protocol engine itself always
        occupies the bus through :meth:`grant`.
        """
        if duration < 1:
            raise ValueError("bus stall must be at least one cycle")
        self._stall_until = max(self._stall_until, now + duration)
        self.busy_until = max(self._job_done, self._stall_until)
        return self.busy_until
