"""Synthetic trace building blocks.

The paper evaluates on SPLASH-2 binaries; this reproduction substitutes
deterministic synthetic traces with the same *coherence-visible*
structure (see DESIGN.md).  This module provides the reusable pattern
primitives; :mod:`repro.workloads.splash` composes them into the named
benchmarks.

All generators are deterministic given their ``seed``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.params import MemOp
from repro.sim.trace import Trace

#: Default cache-line size used for address arithmetic.
LINE = 64
#: Word size: accesses are word-granular, so sequential sweeps touch each
#: 64-byte line eight times — the spatial locality the timers protect.
WORD = 8

#: Base byte address of the per-thread private regions.
PRIVATE_BASE = 1 << 24
#: Byte stride between consecutive threads' private regions.
PRIVATE_STRIDE = 1 << 22
#: Base byte address of the shared regions.
SHARED_BASE = 1 << 30


def private_base(thread: int) -> int:
    """Base address of a thread's private region."""
    return PRIVATE_BASE + thread * PRIVATE_STRIDE


class TraceBuilder:
    """Incrementally composes a :class:`Trace` from access patterns."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = np.random.default_rng(seed)
        self._gaps: List[int] = []
        self._ops: List[int] = []
        self._addrs: List[int] = []
        self._pending_gap = 0

    def __len__(self) -> int:
        return len(self._gaps)

    # -- primitive -----------------------------------------------------------

    def access(self, addr: int, store: bool = False, gap: int = 0) -> "TraceBuilder":
        """Append one access after ``gap`` compute cycles."""
        self._gaps.append(int(gap) + self._pending_gap)
        self._pending_gap = 0
        self._ops.append(int(MemOp.STORE) if store else int(MemOp.LOAD))
        self._addrs.append(int(addr))
        return self

    # -- patterns -------------------------------------------------------------

    def sequential(
        self,
        base: int,
        count: int,
        stride: int = WORD,
        store: bool = False,
        gap: int = 2,
    ) -> "TraceBuilder":
        """A streaming sweep of ``count`` words: ``base, base+stride, ...``.

        With the default word stride, every 64-byte line is touched eight
        consecutive times — the spatial reuse a timer window protects.
        """
        for i in range(count):
            self.access(base + i * stride, store=store, gap=gap)
        return self

    def stencil_sweep(
        self,
        base: int,
        cells: int,
        row_bytes: int,
        gap: int = 2,
    ) -> "TraceBuilder":
        """Per cell: read centre/east/north/south words, write the centre."""
        for i in range(cells):
            cell = base + i * WORD
            self.access(cell, gap=gap)
            self.access(cell - row_bytes if cell >= row_bytes else cell, gap=0)
            self.access(cell + row_bytes, gap=0)
            self.access(cell, store=True, gap=1)
        return self

    def random_region(
        self,
        base: int,
        region_bytes: int,
        count: int,
        write_ratio: float = 0.0,
        gap_max: int = 4,
    ) -> "TraceBuilder":
        """Uniform random word accesses within a region."""
        words = max(1, region_bytes // WORD)
        offsets = self.rng.integers(0, words, size=count)
        writes = self.rng.random(count) < write_ratio
        gaps = self.rng.integers(0, gap_max + 1, size=count)
        for off, wr, g in zip(offsets, writes, gaps):
            self.access(base + int(off) * WORD, store=bool(wr), gap=int(g))
        return self

    def zipf_region(
        self,
        base: int,
        region_bytes: int,
        count: int,
        a: float = 1.3,
        write_ratio: float = 0.0,
        gap_max: int = 4,
    ) -> "TraceBuilder":
        """Zipf-distributed word accesses: a hot head with a long tail.

        Models pointer-chasing over shared data structures (tree roots and
        upper levels are re-read constantly — Barnes/raytrace style).
        """
        words = max(1, region_bytes // WORD)
        ranks = self.rng.zipf(a, size=count)
        offsets = np.minimum(ranks - 1, words - 1)
        writes = self.rng.random(count) < write_ratio
        gaps = self.rng.integers(0, gap_max + 1, size=count)
        for off, wr, g in zip(offsets, writes, gaps):
            self.access(base + int(off) * WORD, store=bool(wr), gap=int(g))
        return self

    def blocked_reuse(
        self,
        base: int,
        block_words: int,
        repeats: int,
        write_ratio: float = 0.3,
        gap: int = 1,
    ) -> "TraceBuilder":
        """Repeated word sweeps over one block (dense-kernel inner loops)."""
        for _r in range(repeats):
            for i in range(block_words):
                store = self.rng.random() < write_ratio
                self.access(base + i * WORD, store=store, gap=gap)
        return self

    def scatter(
        self,
        base: int,
        region_bytes: int,
        indices: Sequence[int],
        gap: int = 2,
    ) -> "TraceBuilder":
        """Read-modify-write scatter into a region (radix histogram style)."""
        words = max(1, region_bytes // WORD)
        for idx in indices:
            addr = base + (int(idx) % words) * WORD
            self.access(addr, gap=gap)
            self.access(addr, store=True, gap=0)
        return self

    def compute(self, cycles: int) -> "TraceBuilder":
        """Pure computation: adds the given cycles to the next access's gap."""
        if cycles < 0:
            raise ValueError("compute cycles must be non-negative")
        self._pending_gap += int(cycles)
        return self

    # -- finalisation ------------------------------------------------------------

    def build(self) -> Trace:
        """Finalise into an immutable :class:`Trace`."""
        return Trace.from_arrays(self._gaps, self._ops, self._addrs)


def timer_sweep(
    num_cores: int = 4,
    accesses_per_core: int = 40_000,
    hot_lines: int = 48,
    touches_per_line: int = 8,
    shared_read_fraction: float = 0.002,
    shared_store_fraction: float = 0.0002,
    seed: int = 0,
) -> List[Trace]:
    """The timer-protected, hit-dominated regime of a θ sweep.

    Each core streams over a private ``hot_lines``-line working set
    (``touches_per_line`` word touches per line, one store per line —
    exactly the spatial reuse a timer window protects), with a light
    sprinkle of shared reads and rarer shared exchanges.  Miss rates
    land around 0.3%, where lock-step batching pays off most; this is
    the workload of the ``lockstep`` throughput benchmark.

    Address-map care: with the reference 16 KiB direct-mapped L1
    (256 sets), the private hot sets occupy set indices
    ``0..hot_lines-1``, so the shared lines are pinned to high set
    indices (200+) — placing them low would alias with every core's
    hot set and turn the workload conflict-miss-bound.
    """
    if hot_lines < 1 or hot_lines > 200:
        raise ValueError("hot_lines must be in 1..200 (shared lines sit at 200+)")
    rng = np.random.default_rng(seed)
    shared_read_base = (1 << 20) + 200  # line index → set indices 200..207
    shared_exch_base = (1 << 20) + 240  # set indices 240..243
    traces = []
    for core in range(num_cores):
        n = accesses_per_core
        hot = (1 << 18) + core * 4096 + np.arange(hot_lines)
        idx = (np.arange(n) // touches_per_line) % hot_lines
        lines = hot[idx]
        ops = np.where(
            np.arange(n) % touches_per_line == touches_per_line - 3,
            int(MemOp.STORE),
            int(MemOp.LOAD),
        )
        r = rng.random(n)
        sh_read = r < shared_read_fraction
        sh_store = (r >= shared_read_fraction) & (
            r < shared_read_fraction + shared_store_fraction
        )
        lines = np.where(sh_read, shared_read_base + rng.integers(0, 8, n), lines)
        lines = np.where(sh_store, shared_exch_base + rng.integers(0, 4, n), lines)
        ops = np.where(
            sh_store,
            int(MemOp.STORE),
            np.where(sh_read, int(MemOp.LOAD), ops),
        )
        gaps = rng.integers(1, 4, n)
        traces.append(Trace.from_arrays(gaps, ops, lines * LINE))
    return traces


def uniform_shared_mix(
    num_cores: int,
    accesses_per_core: int,
    shared_lines: int = 16,
    private_lines: int = 64,
    shared_fraction: float = 0.25,
    write_ratio: float = 0.35,
    seed: int = 0,
    gap_max: int = 4,
) -> List[Trace]:
    """A fully parameterised mixed private/shared workload.

    The workhorse of the unit and property tests: every knob the
    paper's effects depend on (sharing degree, write intensity, reuse)
    is directly controllable.
    """
    traces = []
    for core in range(num_cores):
        rng = np.random.default_rng(seed * 1000 + core)
        gaps = rng.integers(0, gap_max + 1, size=accesses_per_core)
        shared = rng.random(accesses_per_core) < shared_fraction
        writes = rng.random(accesses_per_core) < write_ratio
        shared_idx = rng.integers(0, max(1, shared_lines), size=accesses_per_core)
        private_idx = rng.integers(0, max(1, private_lines), size=accesses_per_core)
        addrs = np.where(
            shared,
            SHARED_BASE + shared_idx * LINE,
            private_base(core) + private_idx * LINE,
        )
        ops = np.where(writes, int(MemOp.STORE), int(MemOp.LOAD))
        traces.append(Trace.from_arrays(gaps, ops, addrs))
    return traces
