"""The lock-step engine: plan whole runs of cache hits at once.

The seed and ``fast_path`` engines pay one Python event (or at best one
inlined ``try_access``) per memory access.  Long runs of consecutive
private-cache hits are fully determined by a tiny amount of per-config
cache state, so most of that per-access work is redundant.  A
:class:`LockstepSystem` simulates one configuration; a parameter sweep
or GA generation that replays the *same trace* under many timer vectors
runs one such system per config (the sweep runner decides when).

This module exploits that structure without giving up bit-identical
results:

* **Decode planes.**  Line addresses, set indices and hit-chain due
  prefixes come from the process-wide decode cache every engine reads
  (:class:`~repro.sim.trace.DecodedTrace`, one flat numpy plane each).

* **Mirrors + vectorised classification.**  Each config/core keeps two
  flat arrays indexed by cache set: the line address the set can serve
  for loads, and for stores (``-1`` when it cannot).  Whether access
  ``k`` hits is then a pure array lookup, so a whole *run* of future
  hits is classified with a handful of numpy ops instead of one Python
  call per access.

* **Hit-run plans with lazy commit.**  When a core would issue, the
  engine scans forward to the first miss and schedules **one** kernel
  event at the miss's cycle (the *boundary*).  The hits in between stay
  pending and are committed (stats, golden-value writes) no later than
  any observer could read their effects: before any engine step that
  reads a line's version/dirty bit, and whenever a snoop actually
  changes the core's classification.  Because a running core's
  classification can only *degrade* through remote activity (any
  improvement requires its own request, i.e. a waiting core), planned
  hits stay hits until such a change — at which point the plan is
  re-scanned from the first uncommitted access.

* **A lineage-ordered dispatcher.**  Boundary events of different cores
  can collide on a cycle; the seed engine orders them by heap insertion
  order, which the plans no longer reproduce.  A per-system dispatcher
  executes all same-cycle boundaries in exactly the seed's order by
  comparing event *lineages*: each planned access's virtual ancestor
  chain (previous accesses at their due cycles) down to the real kernel
  event that resumed the chain (a fill, or simulation start).

Configs the plans cannot represent are refused; the sweep runner
*peels* them to the per-event engine (see
:func:`lockstep_unsupported_reason`).  Everything else — bus
arbitration, coherence requests, timers, write-backs, DRAM — runs
through the unmodified engine/kernel machinery, which is what makes the
cycle-level equivalence argument local to the hit path.
"""

from __future__ import annotations

import heapq
from functools import cmp_to_key
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.params import SimConfig
from repro.sim.cache import CacheLine
from repro.sim.core import Core
from repro.sim.engine import ProtocolEngine
from repro.sim.kernel import (
    _NO_LIMIT,
    PHASE_ARBITRATE,
    PHASE_CORE,
    EventKernel,
    SimulationLimitError,
)
from repro.sim.messages import CoherenceRequest
from repro.sim.private_cache import EvictedLine, PrivateCache
from repro.sim.protocols import get_protocol
from repro.sim.stats import SystemStats
from repro.sim.system import System
from repro.sim.trace import Trace

__all__ = [
    "LockstepSystem",
    "LockstepUnsupported",
    "lockstep_unsupported_reason",
]


class LockstepUnsupported(RuntimeError):
    """The configuration needs a slow path the plans cannot represent."""


def lockstep_unsupported_reason(config: SimConfig) -> Optional[str]:
    """Why ``config`` must be peeled to the per-event engine (or None).

    The lock-step hit plans assume the standard MSI-family hit predicate
    and defer per-hit side effects; configs that observe individual hits
    run on the ordinary engine instead.
    """
    if not get_protocol(config.protocol).uses_standard_hits():
        return f"protocol {config.protocol!r} does not use the standard hit set"
    if config.check_coherence:
        return "check_coherence reads the oracle on every access"
    return None


# --------------------------------------------------------------------- kernel


class LockstepKernel(EventKernel):
    """Event kernel that remembers the key of the executing event.

    The coordinator needs the current ``(cycle, phase, seq)`` to anchor
    resume chains and to pick phase-correct commit horizons.  Kept as a
    subclass so the seed engine's hot loop stays untouched.
    """

    __slots__ = ("current_key",)

    def __init__(self) -> None:
        super().__init__()
        #: Key of the event being executed: ``(cycle, phase, seq)``.
        self.current_key: Tuple[int, int, int] = (-1, -1, 0)

    def run(self, max_cycles, until):
        """Seed-identical event loop that records ``current_key`` per pop."""
        self._max_cycles = max_cycles
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and not until():
                cycle, phase, seq, fn, args = pop(heap)
                if cycle > max_cycles:
                    raise SimulationLimitError(
                        f"simulation exceeded max_cycles={max_cycles}"
                    )
                self._now = cycle
                self.current_key = (cycle, phase, seq)
                fn(*args)
        finally:
            self._max_cycles = _NO_LIMIT
        return self._now


# ----------------------------------------------------------------- hit scans


def _first_divergence(
    lines: np.ndarray,
    sets: np.ndarray,
    store_mask: np.ndarray,
    load_line: np.ndarray,
    store_line: np.ndarray,
    start: int,
    limit: int,
) -> int:
    """Index of the first access in ``[start, limit)`` the mirrors miss.

    Chunked with a growing window: short runs (the common case after a
    miss) only pay for a small slice, long hit runs amortise into a few
    large vector ops.
    """
    i = start
    step = 64
    while i < limit:
        j = i + step
        if j > limit:
            j = limit
        st = sets[i:j]
        expect = np.where(store_mask[i:j], store_line[st], load_line[st])
        mism = (expect != lines[i:j]).nonzero()[0]
        if mism.size:
            return i + int(mism[0])
        i = j
        if step < 4096:
            step <<= 1
    return limit


# --------------------------------------------------------------------- cores


class LockstepCore(Core):
    """Replay core whose issue scheduling goes through hit-run plans.

    The core logic itself (miss handling, run-ahead bookkeeping, resume
    cases) is inherited unchanged; only the two scheduling seams
    (``_schedule_issue`` / ``_schedule_ra``) are redirected to the
    coordinator, and ``on_fill`` materialises the pending run-ahead plan
    into the exact ``_ra_next`` / ``_ra_blocked`` / ``_ra_exhausted``
    state the inherited resume logic expects.

    ``fast_path`` is forced off: inline hit retirement would advance the
    clock past boundaries the coordinator tracks outside the heap, and
    the plans batch hits far more aggressively anyway.
    """

    __slots__ = (
        "coord",
        "_due_prefix",
        "_sets",
        # main-plan state (valid while _plan_active)
        "_plan_active",
        "_plan_s",
        "_plan_c",
        "_plan_b",
        "_plan_due0",
        "_plan_epoch",
        # lineage chain of the current uninterrupted retire sequence
        "_chain_start",
        "_chain_due0",
        "_chain_anchor",
        "_resume_pending",
        # run-ahead plan state (valid while _rap_active)
        "_rap_active",
        "_rap_s",
        "_rap_c",
        "_rap_due0",
        "_rap_bound",
        "_rap_block",
        "_rap_limit",
        "_rap_final",
    )

    def __init__(self, coord: "LockstepCoordinator", **kwargs) -> None:
        kwargs["fast_path"] = False
        super().__init__(**kwargs)
        self.coord = coord
        self._due_prefix = self._decoded.due_prefix(self.hit_latency)
        self._sets = self._decoded.set_index(coord.num_sets)
        self._plan_active = False
        self._plan_s = 0
        self._plan_c = 0
        self._plan_b = 0
        self._plan_due0 = 0
        self._plan_epoch = 0
        self._chain_start = 0
        self._chain_due0 = 0
        self._chain_anchor: Tuple[int, int, int] = (-1, -1, self.core_id)
        self._resume_pending = False
        self._rap_active = False
        self._rap_s = 0
        self._rap_c = 0
        self._rap_due0 = 0
        self._rap_bound = 0
        self._rap_block = False
        self._rap_limit = 0
        self._rap_final: Optional[Tuple[str, int, int]] = None

    def start(self) -> None:
        """Begin replay with a fresh retire chain anchored before cycle 0."""
        self._chain_start = 0
        self._chain_due0 = self._gaps[0] if self.num_entries else 0
        self._chain_anchor = (-1, -1, self.core_id)
        super().start()

    def _schedule_issue(self, index: int, at: int) -> None:
        if self._resume_pending:
            # First schedule after a fill: a new retire chain starts here,
            # anchored at the real kernel event that caused the resume.
            self._resume_pending = False
            self._chain_start = index
            self._chain_due0 = at
            self._chain_anchor = self.system.kernel.current_key
        self.coord.plan_main(self, index, at)

    def _schedule_ra(self, index: int, at: int) -> None:
        self.coord.plan_ra(self, index, at)

    def on_fill(self, fill_cycle: int) -> None:
        """Resume after a fill: settle run-ahead, refresh the mirror row."""
        coord = self.coord
        coord.materialize_ra(self, fill_cycle)
        if self._miss_index is not None:
            # The filled/upgraded line may have changed state immediately
            # before this callback (upgrades mutate in place, with no
            # cache.fill notification); refresh its mirror row so the
            # resume plan scans against current reality.
            coord.refresh_mirror(self.core_id, self._line_addrs[self._miss_index])
        self._resume_pending = True
        try:
            super().on_fill(fill_cycle)
        finally:
            self._resume_pending = False


# ---------------------------------------------------------------- coordinator


class LockstepCoordinator:
    """Owns the per-core mirrors, plans and the boundary dispatcher."""

    __slots__ = (
        "system",
        "kernel",
        "num_sets",
        "_mask",
        "_num_cores",
        "_slots",
        "_load",
        "_store",
        "_cores",
        "_actions",
        "_disp_at",
        "_core_stats",
        "_hit_latency",
        "_perform_write",
        # telemetry
        "plans",
        "replans",
        "touches",
        "touch_changes",
        "committed_hits",
        "dispatches",
        "order_fallbacks",
    )

    def __init__(self, system: "LockstepSystem") -> None:
        self.system = system
        self.kernel: LockstepKernel = system.kernel
        array = system.caches[0].array
        self._mask = array._set_mask
        self.num_sets = self._mask + 1
        self._num_cores = system.config.num_cores
        self._slots = [cache.array._lines for cache in system.caches]
        self._load = [
            np.full(self.num_sets, -1, dtype=np.int64)
            for _ in range(self._num_cores)
        ]
        self._store = [
            np.full(self.num_sets, -1, dtype=np.int64)
            for _ in range(self._num_cores)
        ]
        self._cores: List[LockstepCore] = []
        #: Pending boundary actions: core_id -> (cycle, index, plan_epoch).
        self._actions: Dict[int, Tuple[int, int, int]] = {}
        self._disp_at: Optional[int] = None
        self._core_stats = None
        self._hit_latency = system.config.latencies.hit
        # Lock-step peels check_coherence configs, so golden writes can
        # skip the oracle's per-store check dispatch entirely.
        self._perform_write = system.oracle.unchecked_writer()
        self.plans = 0
        self.replans = 0
        self.touches = 0
        self.touch_changes = 0
        self.committed_hits = 0
        self.dispatches = 0
        self.order_fallbacks = 0

    def add_core(self, core: LockstepCore) -> None:
        """Register a replay core (called while the system wires itself)."""
        self._cores.append(core)

    def finalize(self) -> None:
        """Grab references built after construction (stats arrive last)."""
        self._core_stats = self.system.stats.cores

    # ---------------------------------------------------------------- horizon

    def _phase_horizon(self) -> int:
        """Latest due cycle whose planned hits the current event may see.

        From an EFFECT (or CORE) event at cycle ``t``, a planned hit due
        at ``t`` has *not yet* run in the per-event engine (CORE follows
        EFFECT); from an ARBITRATE event it has.
        """
        cycle, phase, _seq = self.kernel.current_key
        return cycle if phase == PHASE_ARBITRATE else cycle - 1

    # ------------------------------------------------------------------ plans

    def plan_main(self, core: LockstepCore, index: int, at: int) -> None:
        """Plan the hit run starting at ``index`` issuing at ``at``.

        Schedules exactly one dispatcher action at the first miss (or at
        the final access, whose retirement finishes the core).
        """
        dec = core._decoded
        n = dec.n
        cid = core.core_id
        m = _first_divergence(
            dec.lines_np, core._sets, dec.store_mask,
            self._load[cid], self._store[cid], index, n,
        )
        b = m if m < n else n - 1
        prefix = core._due_prefix
        due_b = at if b == index else at + int(prefix[b] - prefix[index])
        core._plan_active = True
        core._plan_s = index
        core._plan_c = index
        core._plan_b = b
        core._plan_due0 = at
        core._plan_epoch += 1
        self.plans += 1
        self._register(core, due_b, b)

    def plan_ra(self, core: LockstepCore, index: int, at: int) -> None:
        """Plan the run-ahead window opened by the miss at ``_miss_index``."""
        dec = core._decoded
        cid = core.core_id
        miss = core._miss_index
        limit = miss + core.runahead_window + 1
        if limit > dec.n:
            limit = dec.n
        m = _first_divergence(
            dec.lines_np, core._sets, dec.store_mask,
            self._load[cid], self._store[cid], index, limit,
        )
        core._rap_active = True
        core._rap_s = index
        core._rap_c = index
        core._rap_due0 = at
        core._rap_limit = limit
        core._rap_block = m < limit
        core._rap_bound = m if m < limit else limit
        core._rap_final = None
        self.plans += 1

    # ---------------------------------------------------------------- commits

    def _commit_main(self, core: LockstepCore, horizon: Optional[int]) -> None:
        """Retire planned hits due up to ``horizon`` (None: the whole run)."""
        c = core._plan_c
        b = core._plan_b
        if c >= b:
            return
        prefix = core._due_prefix
        base = core._plan_due0 - int(prefix[core._plan_s])
        if horizon is None:
            kmax = b
        else:
            kmax = c + int(
                np.searchsorted(prefix[c:b], horizon - base, side="right")
            )
            if kmax <= c:
                return
        self._apply_stores(core, c, kmax)
        stats = self._core_stats[core.core_id]
        cnt = kmax - c
        stats.hits += cnt
        stats.total_memory_latency += cnt * self._hit_latency
        self.committed_hits += cnt
        core.pos = kmax
        core._plan_c = kmax

    def _commit_ra(self, core: LockstepCore, horizon: int) -> None:
        """Retire run-ahead hits due up to ``horizon``; finalise outcomes.

        A block decision is final once its due cycle passes (the seed
        engine never retries a blocked run-ahead); exhaustion is final
        once the last in-window hit retires.
        """
        c = core._rap_c
        e = core._rap_bound
        prefix = core._due_prefix
        base = core._rap_due0 - int(prefix[core._rap_s])
        if c < e:
            kmax = c + int(
                np.searchsorted(prefix[c:e], horizon - base, side="right")
            )
            if kmax > c:
                self._apply_stores(core, c, kmax)
                stats = self._core_stats[core.core_id]
                cnt = kmax - c
                stats.hits += cnt
                stats.runahead_hits += cnt
                stats.total_memory_latency += cnt * self._hit_latency
                self.committed_hits += cnt
                core._rap_c = kmax
                c = kmax
        if c == e and core._rap_final is None:
            if core._rap_block:
                since = base + int(prefix[e])
                if since <= horizon:
                    core._rap_final = ("blocked", e, since)
            else:
                retire = base + int(prefix[e - 1]) + self._hit_latency
                core._rap_final = ("exhausted", e, retire)

    def _apply_stores(self, core: LockstepCore, c: int, kmax: int) -> None:
        """Apply deferred golden-value writes of stores in ``[c, kmax)``."""
        sp = core._decoded.store_pos
        a = int(np.searchsorted(sp, c))
        z = int(np.searchsorted(sp, kmax))
        if z <= a:
            return
        slots = self._slots[core.core_id]
        mask = self._mask
        lines = core._line_addrs
        pw = self._perform_write
        for k in sp[a:z]:
            pw(slots[lines[k] & mask])

    def commit_core(self, core_id: int) -> None:
        """Flush planned effects an engine step is about to observe.

        Called before any read of a line's ``version``/``dirty`` (data
        handover, owner spill, back-invalidation, victim eviction).
        """
        core = self._cores[core_id]
        if core._plan_active:
            self._commit_main(core, self._phase_horizon())
        elif core._rap_active and core._rap_final is None:
            self._commit_ra(core, self._phase_horizon())

    def materialize_ra(self, core: LockstepCore, fill_cycle: int) -> None:
        """Resolve the run-ahead plan into the core's resume fields.

        Mirrors exactly what the per-event engine's cancelled run-ahead
        events would have left behind at ``fill_cycle``: hits due before
        the fill are retired, a block/exhaust decision due before the
        fill is final, and anything else becomes the pending ``_ra_next``
        probe the inherited ``on_fill`` resumes from.
        """
        if not core._rap_active:
            return
        self._commit_ra(core, fill_cycle - 1)
        fin = core._rap_final
        if fin is not None:
            kind, idx, cyc = fin
            if kind == "blocked":
                core._ra_blocked = (idx, cyc)
            else:
                core._ra_exhausted = (idx, cyc)
            core._ra_next = None
        else:
            c = core._rap_c
            prefix = core._due_prefix
            due = core._rap_due0 + int(prefix[c] - prefix[core._rap_s])
            core._ra_next = (c, due)
        core._rap_active = False
        core._rap_final = None

    # ---------------------------------------------------------------- touches

    def _mirror_values(self, core_id: int, set_idx: int) -> Tuple[int, int]:
        """(load, store) mirror values for one cache set, from reality.

        Same predicate as the inlined hit path: a valid, non-frozen line
        serves loads; only a Modified one serves stores.
        """
        slot = self._slots[core_id][set_idx]
        state = slot.state
        if state and not (slot.handover_ready and not slot.pending_is_downgrade):
            la = slot.line_addr
            return la, (la if state == 2 else -1)
        return -1, -1

    def refresh_mirror(self, core_id: int, line_addr: int) -> None:
        """Unconditionally sync one mirror row (resume path: no plans live)."""
        s = line_addr & self._mask
        la, ls = self._mirror_values(core_id, s)
        self._load[core_id][s] = la
        self._store[core_id][s] = ls

    def touch_line(self, core_id: int, line_addr: int) -> None:
        """Re-check one core's classification of ``line_addr``'s set.

        Cheap when nothing observable changed (the common case); on a
        real change, pending hits up to the phase horizon are committed
        and the live plan is re-scanned against the new mirror.
        """
        self.touches += 1
        s = line_addr & self._mask
        la, ls = self._mirror_values(core_id, s)
        load = self._load[core_id]
        store = self._store[core_id]
        if load[s] == la and store[s] == ls:
            return
        self.touch_changes += 1
        core = self._cores[core_id]
        if core._plan_active:
            self._commit_main(core, self._phase_horizon())
        elif core._rap_active and core._rap_final is None:
            self._commit_ra(core, self._phase_horizon())
        load[s] = la
        store[s] = ls
        self._replan(core)

    def touch_all(self, line_addr: int) -> None:
        """Refresh every core's mirror row for ``line_addr`` (bus snoops)."""
        for core_id in range(self._num_cores):
            self.touch_line(core_id, line_addr)

    def _replan(self, core: LockstepCore) -> None:
        """Re-scan the live plan after a classification change.

        Dues are unaffected (they only depend on the trace), so the main
        plan restarts from its first uncommitted access at its original
        due; only the boundary can move (and only earlier — remote
        activity never improves a running core's classification).
        """
        if core._plan_active:
            self.replans += 1
            c = core._plan_c
            prefix = core._due_prefix
            at = core._plan_due0 + int(prefix[c] - prefix[core._plan_s])
            self.plan_main(core, c, at)
        elif core._rap_active and core._rap_final is None:
            self.replans += 1
            dec = core._decoded
            cid = core.core_id
            limit = core._rap_limit
            m = _first_divergence(
                dec.lines_np, core._sets, dec.store_mask,
                self._load[cid], self._store[cid], core._rap_c, limit,
            )
            core._rap_block = m < limit
            core._rap_bound = m if m < limit else limit

    # ------------------------------------------------------------- dispatcher

    def _register(self, core: LockstepCore, cycle: int, index: int) -> None:
        self._actions[core.core_id] = (cycle, index, core._plan_epoch)
        if self._disp_at is None or cycle < self._disp_at:
            self._disp_at = cycle
            self.kernel.schedule(cycle, PHASE_CORE, self._dispatch)

    def _dispatch(self) -> None:
        """Run every boundary action due now, in the seed engine's order."""
        kernel = self.kernel
        now = kernel._now
        if self._disp_at is not None and self._disp_at <= now:
            self._disp_at = None
        actions = self._actions
        while True:
            due = []
            for cid in list(actions):
                cyc, idx, epoch = actions[cid]
                core = self._cores[cid]
                if epoch != core._plan_epoch:
                    del actions[cid]  # superseded by a replan
                    continue
                if cyc == now:
                    due.append((core, idx))
            if not due:
                break
            if len(due) > 1:
                due.sort(key=cmp_to_key(self._issue_order))
            for core, idx in due:
                ent = actions.get(core.core_id)
                if (
                    ent is None
                    or ent[2] != core._plan_epoch
                    or ent[0] != now
                ):
                    continue
                del actions[core.core_id]
                self.dispatches += 1
                self._commit_main(core, None)
                core._plan_active = False
                Core._issue(core, core._epoch, idx)
            # A self-healed boundary may have registered a follow-up at
            # `now` (possible only with a zero hit latency); loop again.
        if actions:
            nxt = min(ent[0] for ent in actions.values())
            if self._disp_at is None or nxt < self._disp_at:
                self._disp_at = nxt
                kernel.schedule(nxt, PHASE_CORE, self._dispatch)

    # ----------------------------------------------------- same-cycle ordering

    def _ancestor(
        self, core: LockstepCore, j: int
    ) -> Optional[Tuple[int, int, Optional[int]]]:
        """The ``(cycle, phase, seq)`` key of ancestor access ``j``.

        Accesses inside the current retire chain are virtual CORE-phase
        events at their due cycle (seq unknown — they were never pushed);
        one step past the chain start sits the real anchor event that
        resumed the chain (seq known).
        """
        start = core._chain_start
        if j >= start:
            prefix = core._due_prefix
            due = core._chain_due0 + int(prefix[j] - prefix[start])
            return (due, PHASE_CORE, None)
        if j == start - 1:
            return core._chain_anchor
        return None

    def _issue_order(self, a, b) -> int:
        """Seed-engine pop order of two same-cycle boundary actions.

        In the per-event engine every access is a heap event pushed
        during its predecessor's execution, so FIFO ties resolve by the
        predecessors' execution order — recursively, until the lineages
        reach real anchor events whose seq decides.  Walking both
        lineages level by level reproduces that order without ever
        having pushed the events.
        """
        core_a, ia = a
        core_b, ib = b
        ja = ia - 1
        jb = ib - 1
        while True:
            ka = self._ancestor(core_a, ja)
            kb = self._ancestor(core_b, jb)
            if ka is None or kb is None:
                self.order_fallbacks += 1
                return -1 if core_a.core_id < core_b.core_id else 1
            if ka[0] != kb[0] or ka[1] != kb[1]:
                return -1 if (ka[0], ka[1]) < (kb[0], kb[1]) else 1
            sa = ka[2]
            sb = kb[2]
            if sa is not None and sb is not None:
                if sa != sb:
                    return -1 if sa < sb else 1
                self.order_fallbacks += 1
                return -1 if core_a.core_id < core_b.core_id else 1
            if sa is not None or sb is not None:
                # A real anchor colliding with a virtual CORE event at the
                # same (cycle, phase) cannot happen (anchors are EFFECT
                # fills or start sentinels); counted defensively.
                self.order_fallbacks += 1
                return -1 if core_a.core_id < core_b.core_id else 1
            ja -= 1
            jb -= 1

    def telemetry(self) -> Dict[str, int]:
        """Plan/replan/touch/commit counters for this system's run."""
        return {
            "plans": self.plans,
            "replans": self.replans,
            "touches": self.touches,
            "touch_changes": self.touch_changes,
            "committed_hits": self.committed_hits,
            "dispatches": self.dispatches,
            "order_fallbacks": self.order_fallbacks,
        }


# ------------------------------------------------------------ cache & engine


class MirroredPrivateCache(PrivateCache):
    """Private cache that keeps the coordinator's mirrors in sync.

    Only the two mutation entry points the engine does not already route
    through wrapped methods are hooked: fills (which also evict the
    victim of the same set) and DRAM-side back-invalidations.
    """

    __slots__ = ("coord",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.coord: Optional[LockstepCoordinator] = None

    def fill(self, line_addr, state, cycle, version):
        """Install a line, then refresh its mirror row (victim included)."""
        victim = super().fill(line_addr, state, cycle, version)
        if self.coord is not None:
            self.coord.touch_line(self.core_id, line_addr)
        return victim

    def back_invalidate(self, line_addr: int) -> Optional[EvictedLine]:
        """Inclusion-driven invalidation: commit pending stores first."""
        coord = self.coord
        if coord is not None:
            # The eviction snapshot reads version/dirty: flush pending
            # store effects of this core first.
            coord.commit_core(self.core_id)
        evicted = super().back_invalidate(line_addr)
        if coord is not None and evicted is not None:
            coord.touch_line(self.core_id, line_addr)
        return evicted


class LockstepEngine(ProtocolEngine):
    """Protocol engine wrapped with commit/touch notifications.

    Commits run *before* any step that reads a line's version or dirty
    bit (the deferred store effects must be visible); touches run
    *after* every step that can change a line's hit classification.
    """

    def __init__(self, system: "LockstepSystem") -> None:
        super().__init__(system)
        self.coord = system.coord

    def refresh_snoop(self, line_addr: int) -> None:
        """Snoop refresh; every core's classification of the line may move."""
        super().refresh_snoop(line_addr)
        self.coord.touch_all(line_addr)

    def on_timer_expiry(self, core_id: int, line_addr: int, generation: int) -> None:
        """Countdown expiry can release the line: refresh the owner's row."""
        super().on_timer_expiry(core_id, line_addr, generation)
        self.coord.touch_line(core_id, line_addr)

    def _evaluate_request(self, req, copies, owner) -> bool:
        changed = super()._evaluate_request(req, copies, owner)
        # Upgrades and self-invalidations mutate the requester's copy.
        self.coord.touch_line(req.core_id, req.line_addr)
        return changed

    def _spill_owner(self, ocache: PrivateCache, ocopy: CacheLine) -> None:
        line_addr = ocopy.line_addr
        self.coord.commit_core(ocache.core_id)
        super()._spill_owner(ocache, ocopy)
        self.coord.touch_line(ocache.core_id, line_addr)

    def on_data_done(self, req: CoherenceRequest) -> None:
        """Data transfer completes: commit the source, settle the requester."""
        coord = self.coord
        src = req.source
        if src is not None and src >= 0:
            # The transfer reads the source copy's version (and its fate
            # depends on dirty): flush the source's pending store hits.
            coord.commit_core(src)
        # The fill may evict a victim (version/dirty snapshot) and always
        # resumes the requester: settle its run-ahead plan against
        # pre-fill reality before the fill improves it.
        coord.commit_core(req.core_id)
        coord.materialize_ra(self.system.cores[req.core_id], self.kernel.now)
        super().on_data_done(req)
        if src is not None and src >= 0:
            coord.touch_line(src, req.line_addr)


# -------------------------------------------------------------------- system


class LockstepSystem(System):
    """A :class:`System` whose cores issue through lock-step hit plans.

    Drop-in for supported configs: same construction signature (minus
    the engine flags), same :meth:`run` contract, bit-identical stats.
    """

    def __init__(
        self,
        config: SimConfig,
        traces: Sequence[Trace],
        record_latencies: bool = False,
    ) -> None:
        reason = lockstep_unsupported_reason(config)
        if reason is not None:
            raise LockstepUnsupported(reason)
        self.coord: Optional[LockstepCoordinator] = None
        super().__init__(
            config, traces, record_latencies=record_latencies, fast_path=False
        )
        self.coord.finalize()

    # Factory seams --------------------------------------------------------

    def _make_kernel(self) -> EventKernel:
        return LockstepKernel()

    def _make_cache(self, core_id: int) -> PrivateCache:
        return MirroredPrivateCache(
            core_id, self.config.l1, self.config.core_config(core_id).theta,
            protocol=self.protocol,
        )

    def _make_engine(self) -> ProtocolEngine:
        self.coord = LockstepCoordinator(self)
        for cache in self.caches:
            cache.coord = self.coord
        return LockstepEngine(self)

    def _make_core(self, core_id: int, trace: Trace, fast_path: bool) -> Core:
        core = LockstepCore(
            coord=self.coord,
            core_id=core_id,
            trace=trace,
            system=self,
            line_bytes=self.config.l1.line_bytes,
            hit_latency=self.config.latencies.hit,
            runahead_window=self.config.runahead_window,
        )
        self.coord.add_core(core)
        return core

    def run(self) -> SystemStats:
        """Run to completion; refuses per-hit subscribers (see peel rules)."""
        if self.events.hot:
            raise LockstepUnsupported(
                "per-hit event subscribers require the per-event engine"
            )
        return super().run()

