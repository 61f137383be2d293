"""Static in-isolation cache analysis: guaranteed hits under a timer.

This is the "cache analysis model" the optimization engine of Section V
uses as a black box to capture the Θ→M_hit relationship (Figure 2a).

**Model.**  Under worst-case interference every other core perpetually
requests every line, so a timed line is lost exactly ``θ`` cycles after
its acquisition (the countdown counter never replenishes).  An access is
a *guaranteed hit* iff

1. it hits in isolation on the private cache geometry (direct-mapped
   residency depends only on the core's own access stream, so isolation
   residency is preserved under interference), and
2. the line's current ownership state serves it (stores need M; a store
   to a Shared copy is an upgrade transaction and counts as a miss,
   matching the simulator), and
3. it is issued strictly before the protection window closes —
   ``θ`` cycles after the acquiring transaction's completion — where
   elapsed time is computed pessimistically: every non-guaranteed access
   is charged the per-request worst-case latency ``WCL`` and every
   guaranteed hit the hit latency.

The pessimistic time-charging makes the analysis *sound*: measured
elapsed times in any real execution are never larger, so a guaranteed
hit can never turn into a miss (the test-suite checks experimental hits
dominate guaranteed hits on random traces).

For an MSI core (``θ = -1``) no hits can be guaranteed and the analysis
degenerates to Equation 3 (all ``Λ`` accesses assumed misses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.params import MSI_THETA, CacheGeometry, MemOp
from repro.sim.timer import MAX_THETA
from repro.sim.trace import Trace


@dataclass(frozen=True)
class GuaranteedCounts:
    """Output of the analysis for one core at one (θ, WCL) point."""

    m_hit: int
    m_miss: int

    @property
    def total(self) -> int:
        return self.m_hit + self.m_miss

    @property
    def hit_rate(self) -> float:
        return self.m_hit / self.total if self.total else 0.0


class IsolationProfile:
    """Pre-processed per-core trace ready for repeated (θ, WCL) queries.

    Construction is O(n); each :meth:`analyze` call is a single O(n)
    pass and results are memoised, which is what makes the genetic
    optimization engine practical.
    """

    def __init__(
        self,
        trace: Trace,
        geometry: CacheGeometry,
        hit_latency: int = 1,
    ) -> None:
        if geometry.ways != 1:
            raise ValueError(
                "the guaranteed-hit analysis models direct-mapped L1 caches"
            )
        self.trace = trace
        self.geometry = geometry
        self.hit_latency = hit_latency
        lines = trace.line_addrs(geometry.line_bytes)
        self._lines = lines.astype(np.int64)
        self._sets = (lines % geometry.num_sets).astype(np.int64)
        self._gaps = trace.gaps.astype(np.int64)
        self._stores = trace.ops == int(MemOp.STORE)
        self._cache: Dict[Tuple[int, int], GuaranteedCounts] = {}
        self._sat_cache: Dict[int, int] = {}

    @property
    def num_accesses(self) -> int:
        return len(self.trace)

    # ------------------------------------------------------------- analysis

    def analyze(self, theta: int, wcl: int) -> GuaranteedCounts:
        """Guaranteed hits/misses at timer ``theta`` and per-miss cost ``wcl``."""
        if wcl < 1:
            raise ValueError("wcl must be at least one cycle")
        if theta == MSI_THETA:
            return GuaranteedCounts(m_hit=0, m_miss=self.num_accesses)
        if theta < 1:
            raise ValueError(f"theta must be >= 1 or MSI_THETA, got {theta}")
        key = (theta, wcl)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        hits, _ = self._pass(theta=theta, wcl=wcl)
        result = GuaranteedCounts(m_hit=hits, m_miss=self.num_accesses - hits)
        self._cache[key] = result
        return result

    def analyze_flags(self, theta: int, wcl: int) -> np.ndarray:
        """Per-access guaranteed-hit booleans (test/debug aid)."""
        if theta == MSI_THETA:
            return np.zeros(self.num_accesses, dtype=bool)
        _, flags = self._pass(theta=theta, wcl=wcl, want_flags=True)
        return flags

    def _pass(
        self, theta: float, wcl: int, want_flags: bool = False
    ) -> Tuple[int, Optional[np.ndarray]]:
        """One sequential analysis pass.  ``theta`` may be ``inf``.

        The cache state lives in flat per-set arrays and the trace arrays
        are converted to Python lists up front — both are significant
        constant-factor wins for this hot loop (the optimization engine
        calls it once per distinct (θ, WCL) query).
        """
        lines = self._lines.tolist()
        sets = self._sets.tolist()
        gaps = self._gaps.tolist()
        stores = self._stores.tolist()
        hit_latency = self.hit_latency
        n = len(lines)
        flags = np.zeros(n, dtype=bool) if want_flags else None

        num_sets = self.geometry.num_sets
        occupant = [-1] * num_sets
        modified = [False] * num_sets
        window_end = [0.0] * num_sets
        time = 0.0
        hits = 0
        for k in range(n):
            issue = time + gaps[k]
            s = sets[k]
            if occupant[s] == lines[k] and issue < window_end[s]:
                if not stores[k] or modified[s]:
                    hits += 1
                    time = issue + hit_latency
                    if flags is not None:
                        flags[k] = True
                    continue
            # Miss (cold, conflict, window expired, or upgrade).
            fill = issue + wcl
            occupant[s] = lines[k]
            modified[s] = stores[k]
            window_end[s] = fill + theta
            time = fill
        return hits, flags

    # ----------------------------------------------------------- saturation

    def theta_sat(self, wcl: int) -> int:
        """Smallest timer at which guaranteed hits saturate (Section V).

        Computed from a single pass with an unbounded timer: the largest
        observed acquisition-to-reuse elapsed time, plus one cycle (the
        window check is strict).  Clamped to the 16-bit register range.
        """
        if wcl in self._sat_cache:
            return self._sat_cache[wcl]
        lines = self._lines.tolist()
        sets = self._sets.tolist()
        gaps = self._gaps.tolist()
        stores = self._stores.tolist()
        hit_latency = self.hit_latency
        n = len(lines)

        num_sets = self.geometry.num_sets
        occupant = [-1] * num_sets
        modified = [False] * num_sets
        acquired = [0.0] * num_sets
        time = 0.0
        max_elapsed = 0.0
        for k in range(n):
            issue = time + gaps[k]
            s = sets[k]
            if occupant[s] == lines[k] and (not stores[k] or modified[s]):
                elapsed = issue - acquired[s]
                if elapsed > max_elapsed:
                    max_elapsed = elapsed
                time = issue + hit_latency
                continue
            fill = issue + wcl
            occupant[s] = lines[k]
            modified[s] = stores[k]
            acquired[s] = fill
            time = fill
        sat = min(int(max_elapsed) + 1, MAX_THETA)
        self._sat_cache[wcl] = sat
        return sat


def build_profiles(
    traces: Sequence[Trace],
    geometry: CacheGeometry,
    hit_latency: int = 1,
) -> List[IsolationProfile]:
    """One :class:`IsolationProfile` per core."""
    return [IsolationProfile(t, geometry, hit_latency) for t in traces]
