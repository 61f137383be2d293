"""The unified simulator event bus (the observability layer).

Every protocol-level occurrence — misses, bus grants, timer expiries,
fills, write-backs, DRAM traffic, back-invalidations, mode switches —
is published as one structured event on a per-:class:`~repro.sim.
system.System` :class:`EventBus`.  The debug tracer (:class:`repro.sim.
debug.ProtocolTracer`), telemetry and the rare-kind statistics
(:class:`repro.sim.stats.StatsCollector`) are ordinary subscribers of
this stream, and the bus itself keeps the per-kind event counters; the
engine layers never talk to a subscriber directly.

Listeners are callables with the signature ``listener(cycle, kind,
payload)`` where ``payload`` is a plain dict.  A listener may subscribe
to *all* kinds (a tracer) or to an explicit set of kinds (the stats
collector); by-kind listeners are notified before subscribe-all
listeners, mirroring the pre-bus ordering of stats updates relative to
trace capture.

Hot-path contract: an emitter builds a payload only for a listener.

* Per-access ``hit`` events vastly outnumber everything else (hits are
  typically ~99% of accesses), so they are only *materialised* when a
  subscriber asked for them — either a subscribe-all listener or an
  explicit by-kind subscription to ``"hit"``.  The core layer checks the
  precomputed :attr:`EventBus.hot` flag first; an unmaterialised hit is
  not counted either.
* The miss-path kinds ``miss``, ``grant`` and ``fill`` fire several
  times per coherence request.  Their emitters ask :meth:`EventBus.wants`
  and, when nobody listens, call ``emit(kind)`` without a payload, which
  only counts the event: :attr:`EventBus.counts` still tallies every one.
* All other kinds are rare and always published with their payload.

The statistics these kinds feed stay out of the bus: per-hit counters
are inline in :meth:`repro.sim.system.System.try_access`, and grants and
completed misses are recorded by the system and the protocol engine
directly, so the stats collector subscribes to the rare protocol kinds
only.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim.kernel import EventKernel

Listener = Callable[[int, str, Dict[str, Any]], None]

#: Every event kind the stock engine layers emit, by layer.
CORE_EVENTS: Tuple[str, ...] = ("hit", "miss")
BUS_EVENTS: Tuple[str, ...] = ("grant",)
PROTOCOL_EVENTS: Tuple[str, ...] = ("timer_expiry", "fill")
BACKEND_EVENTS: Tuple[str, ...] = (
    "writeback",
    "wb_done",
    "dram_fetch",
    "back_invalidate",
)
SYSTEM_EVENTS: Tuple[str, ...] = ("mode_switch",)
#: Emitted only by :mod:`repro.fi` when a fault plan is armed; never
#: published on a fault-free run.
FAULT_EVENTS: Tuple[str, ...] = ("fault", "fault_response")

EVENT_KINDS: Tuple[str, ...] = (
    CORE_EVENTS + BUS_EVENTS + PROTOCOL_EVENTS + BACKEND_EVENTS
    + SYSTEM_EVENTS + FAULT_EVENTS
)

#: Event kind → the layer that emits it (see ``docs/protocol.md``).
LAYER_OF: Dict[str, str] = {
    **{k: "core" for k in CORE_EVENTS},
    **{k: "bus" for k in BUS_EVENTS},
    **{k: "protocol" for k in PROTOCOL_EVENTS},
    **{k: "backend" for k in BACKEND_EVENTS},
    **{k: "system" for k in SYSTEM_EVENTS},
    **{k: "fault" for k in FAULT_EVENTS},
}

class _ListenerList(List[Listener]):
    """The subscribe-all list, refreshing the owning bus's hot flag.

    Exists so the legacy ``system.listeners.append(tracer)`` idiom keeps
    materialising per-hit events exactly like :meth:`EventBus.subscribe`.
    """

    __slots__ = ("_bus",)

    def __init__(self, bus: "EventBus") -> None:
        super().__init__()
        self._bus = bus

    def append(self, listener: Listener) -> None:
        super().append(listener)
        self._bus._refresh_hot()

    def remove(self, listener: Listener) -> None:
        super().remove(listener)
        self._bus._refresh_hot()

    def clear(self) -> None:
        super().clear()
        self._bus._refresh_hot()


class EventBus:
    """One structured event stream shared by every simulator layer.

    The bus also maintains :attr:`counts`, a per-kind tally of every
    event *published* — the cheap per-layer counters the engine exposes
    without any subscriber (``hit`` events are counted only while a
    subscriber keeps them materialised; see the module docstring).
    """

    __slots__ = ("_kernel", "_all", "_by_kind", "counts", "hot")

    def __init__(self, kernel: EventKernel) -> None:
        self._kernel = kernel
        #: Subscribe-all listeners (tracers).  Notified for every kind.
        self._all: List[Listener] = _ListenerList(self)
        #: kind → listeners registered for exactly that kind.
        self._by_kind: Dict[str, List[Listener]] = {}
        #: kind → number of events published so far.
        self.counts: Dict[str, int] = {}
        #: True when ``hit`` events must be materialised (precomputed so
        #: the per-access path pays one attribute read, not a scan).
        self.hot = False

    # -- subscriptions -----------------------------------------------------

    def subscribe(
        self, listener: Listener, kinds: Optional[Iterable[str]] = None
    ) -> Listener:
        """Register a listener for ``kinds`` (or every kind when None).

        Returns the listener so ``tracer = bus.subscribe(Tracer())``
        reads naturally.
        """
        if kinds is None:
            self._all.append(listener)
        else:
            for kind in kinds:
                self._by_kind.setdefault(kind, []).append(listener)
        self._refresh_hot()
        return listener

    def unsubscribe(self, listener: Listener) -> None:
        """Remove a listener from every subscription it holds."""
        while listener in self._all:
            self._all.remove(listener)
        for kind in list(self._by_kind):
            listeners = self._by_kind[kind]
            while listener in listeners:
                listeners.remove(listener)
            if not listeners:
                del self._by_kind[kind]
        self._refresh_hot()

    def _refresh_hot(self) -> None:
        self.hot = bool(self._all) or "hit" in self._by_kind

    def wants(self, kind: str) -> bool:
        """Whether an event of ``kind`` published now reaches a listener.

        Emitters of frequent kinds check this before building a payload
        (see the module docstring)."""
        return kind in self._by_kind or bool(self._all)

    @property
    def listeners(self) -> List[Listener]:
        """The subscribe-all listeners (the legacy ``System.listeners``)."""
        return self._all

    # -- publishing --------------------------------------------------------

    def emit(self, kind: str, **payload: Any) -> None:
        """Publish one event at the current kernel cycle.

        The listener lists are snapshotted before dispatch: a subscriber
        may unsubscribe itself (or attach further listeners) from inside
        its callback without corrupting this event's iteration.  Newly
        attached listeners see the *next* event, not the current one.
        """
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        by_kind = self._by_kind.get(kind)
        if not by_kind and not self._all:
            return
        cycle = self._kernel.now
        if by_kind:
            for listener in tuple(by_kind):
                listener(cycle, kind, payload)
        if self._all:
            for listener in tuple(self._all):
                listener(cycle, kind, payload)

    # -- introspection -----------------------------------------------------

    def layer_counts(self) -> Dict[str, int]:
        """Event totals aggregated per engine layer."""
        out: Dict[str, int] = {}
        for kind, count in self.counts.items():
            layer = LAYER_OF.get(kind, "other")
            out[layer] = out.get(layer, 0) + count
        return out
