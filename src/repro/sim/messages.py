"""Coherence requests and write-backs exchanged between simulator components.

Both are what the arbiter grants the shared bus to: a request for its
broadcast (while ``QUEUED``) or its data transfer (``WAITING`` and
``ready``), a write-back for its drain to the LLC (``wb_on_bus`` only).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.params import MemOp

#: Data source sentinel: the shared memory (LLC / DRAM) rather than a core.
LLC_SOURCE = -1


class ReqKind(enum.IntEnum):
    """Coherence bus request kinds."""

    GETS = 0  #: read miss — wants a Shared copy.
    GETM = 1  #: write miss — wants a Modified copy (with data).
    UPG = 2   #: write hit to a Shared copy — wants ownership, has data.


class ReqState(enum.IntEnum):
    """Lifecycle of a :class:`CoherenceRequest`."""

    QUEUED = 0         #: waiting for the bus to broadcast.
    BROADCASTING = 1   #: occupying the bus with the request broadcast.
    WAITING = 2        #: broadcast done; waiting for copies/data readiness.
    TRANSFERRING = 3   #: occupying the bus with the data transfer.
    DONE = 4


@dataclass
class CoherenceRequest:
    """One outstanding miss (or upgrade) of one core."""

    req_id: int
    core_id: int
    line_addr: int
    kind: ReqKind
    op: MemOp
    issue_cycle: int
    state: ReqState = ReqState.QUEUED
    broadcast_cycle: Optional[int] = None
    #: Data source once ready: a core id, or :data:`LLC_SOURCE`.
    source: Optional[int] = None
    #: The source is ready and the data transfer may be granted.
    ready: bool = False
    complete_cycle: Optional[int] = None
    #: For the non-perfect LLC: a DRAM fetch for this line is in flight.
    dram_pending: bool = False

    @property
    def wants_ownership(self) -> bool:
        return self.kind in (ReqKind.GETM, ReqKind.UPG)

    @property
    def latency(self) -> int:
        if self.complete_cycle is None:
            raise ValueError("request not complete")
        return self.complete_cycle - self.issue_cycle

    def __repr__(self) -> str:
        return (
            f"Req#{self.req_id}(c{self.core_id} {self.kind.name} "
            f"L{self.line_addr} @{self.issue_cycle} {self.state.name})"
        )


@dataclass
class Writeback:
    """A buffered dirty-eviction write-back."""

    core_id: int
    line_addr: int
    version: int
    created_cycle: int
    seq: int = 0
