"""Memory access traces.

A :class:`Trace` is a per-core sequence of memory accesses, each with a
*gap* (compute cycles the core spends before issuing the access, counted
from the retirement of the previous access), an operation kind and a byte
address.  Traces are what the workload generators in
:mod:`repro.workloads` produce and what the simulator's cores replay.
"""

from __future__ import annotations

import hashlib
import io
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.params import MemOp


@dataclass(frozen=True)
class TraceAccess:
    """One memory access of a trace."""

    gap: int
    op: MemOp
    addr: int

    def __post_init__(self) -> None:
        if self.gap < 0:
            raise ValueError("gap must be non-negative")
        if self.addr < 0:
            raise ValueError("addresses are non-negative byte addresses")


class Trace:
    """An immutable sequence of :class:`TraceAccess` entries.

    Internally array-backed so that large traces stay compact and the
    in-isolation cache analysis can vectorise over them.
    """

    __slots__ = ("_gaps", "_ops", "_addrs", "_digest")

    def __init__(self, accesses: Iterable[TraceAccess] = ()) -> None:
        gaps: List[int] = []
        ops: List[int] = []
        addrs: List[int] = []
        for acc in accesses:
            gaps.append(acc.gap)
            ops.append(int(acc.op))
            addrs.append(acc.addr)
        self._gaps = np.asarray(gaps, dtype=np.int64)
        self._ops = np.asarray(ops, dtype=np.int8)
        self._addrs = np.asarray(addrs, dtype=np.int64)
        self._digest: str = ""

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        gaps: Sequence[int],
        ops: Sequence[int],
        addrs: Sequence[int],
    ) -> "Trace":
        """Build a trace directly from parallel arrays (no copies of lists)."""
        gaps = np.asarray(gaps, dtype=np.int64)
        ops = np.asarray(ops, dtype=np.int8)
        addrs = np.asarray(addrs, dtype=np.int64)
        if not (len(gaps) == len(ops) == len(addrs)):
            raise ValueError("gaps, ops and addrs must have equal length")
        if len(gaps) and gaps.min() < 0:
            raise ValueError("gaps must be non-negative")
        if len(addrs) and addrs.min() < 0:
            raise ValueError("addresses must be non-negative")
        if len(ops) and not np.isin(ops, (int(MemOp.LOAD), int(MemOp.STORE))).all():
            raise ValueError("ops must be MemOp values")
        trace = cls.__new__(cls)
        trace._gaps = gaps
        trace._ops = ops
        trace._addrs = addrs
        trace._digest = ""
        return trace

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._gaps)

    def __getitem__(self, i: int) -> TraceAccess:
        return TraceAccess(
            gap=int(self._gaps[i]),
            op=MemOp(int(self._ops[i])),
            addr=int(self._addrs[i]),
        )

    def __iter__(self) -> Iterator[TraceAccess]:
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            np.array_equal(self._gaps, other._gaps)
            and np.array_equal(self._ops, other._ops)
            and np.array_equal(self._addrs, other._addrs)
        )

    def __repr__(self) -> str:
        return (
            f"Trace(n={len(self)}, addrs={self.footprint_bytes}, "
            f"writes={self.num_stores})"
        )

    # -- raw views ---------------------------------------------------------

    @property
    def gaps(self) -> np.ndarray:
        return self._gaps

    @property
    def ops(self) -> np.ndarray:
        return self._ops

    @property
    def addrs(self) -> np.ndarray:
        return self._addrs

    def line_addrs(self, line_bytes: int) -> np.ndarray:
        """Line addresses (byte address divided by the line size)."""
        if line_bytes <= 0:
            raise ValueError("line_bytes must be positive")
        return self._addrs // line_bytes

    def content_digest(self) -> str:
        """Content hash over the raw access arrays (memoized per object).

        Two traces with equal accesses share a digest regardless of how
        they were constructed; the decoded-trace cache below is keyed on
        it so every process decodes each distinct trace at most once.
        """
        if not self._digest:
            h = hashlib.sha1()
            h.update(self._gaps.tobytes())
            h.update(self._ops.tobytes())
            h.update(self._addrs.tobytes())
            self._digest = h.hexdigest()
        return self._digest

    # -- summary statistics --------------------------------------------------

    @property
    def num_accesses(self) -> int:
        return len(self)

    @property
    def num_stores(self) -> int:
        return int((self._ops == int(MemOp.STORE)).sum())

    @property
    def num_loads(self) -> int:
        return len(self) - self.num_stores

    @property
    def write_ratio(self) -> float:
        return self.num_stores / len(self) if len(self) else 0.0

    @property
    def footprint_bytes(self) -> int:
        """Number of distinct byte addresses touched by the trace."""
        if len(self) == 0:
            return 0
        return int(np.unique(self._addrs).size)

    def unique_lines(self, line_bytes: int = 64) -> int:
        """Number of distinct cache lines touched."""
        if len(self) == 0:
            return 0
        return int(np.unique(self.line_addrs(line_bytes)).size)

    # -- transformations -----------------------------------------------------

    def slice(self, start: int, stop: int) -> "Trace":
        """The sub-trace of accesses ``[start, stop)``."""
        return Trace.from_arrays(
            self._gaps[start:stop], self._ops[start:stop], self._addrs[start:stop]
        )

    def concat(self, other: "Trace") -> "Trace":
        """This trace followed by ``other``."""
        return Trace.from_arrays(
            np.concatenate([self._gaps, other._gaps]),
            np.concatenate([self._ops, other._ops]),
            np.concatenate([self._addrs, other._addrs]),
        )

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Save to an ``.npz`` file."""
        np.savez_compressed(path, gaps=self._gaps, ops=self._ops, addrs=self._addrs)

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Load a trace saved with :meth:`save`."""
        with np.load(path) as data:
            return cls.from_arrays(data["gaps"], data["ops"], data["addrs"])

    def to_csv(self) -> str:
        """Render as ``gap,op,addr`` CSV text (op is ``R`` or ``W``)."""
        buf = io.StringIO()
        for i in range(len(self)):
            op = "W" if self._ops[i] == int(MemOp.STORE) else "R"
            buf.write(f"{int(self._gaps[i])},{op},{int(self._addrs[i])}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Trace":
        """Parse ``gap,op,addr`` CSV text (op is ``R`` or ``W``)."""
        gaps: List[int] = []
        ops: List[int] = []
        addrs: List[int] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'gap,op,addr'")
            gap, op, addr = parts
            op = op.strip().upper()
            if op not in ("R", "W"):
                raise ValueError(f"line {lineno}: op must be R or W, got {op!r}")
            gaps.append(int(gap))
            ops.append(int(MemOp.STORE) if op == "W" else int(MemOp.LOAD))
            addrs.append(int(addr))
        return cls.from_arrays(gaps, ops, addrs)


class DecodedTrace:
    """Immutable decode products of one ``(trace, line_bytes)`` pair.

    Owns the per-entry Python lists the replay cores index (building them
    is the dominant per-``System`` setup cost) plus the numpy planes the
    lock-step engine scans.  Instances are shared: consumers must treat
    every field as read-only.
    """

    __slots__ = (
        "n", "line_bytes", "lines", "gaps", "ops",
        "lines_np", "gaps_np", "ops_np", "store_mask", "store_pos",
        "_set_idx", "_due_prefix", "_misses",
    )

    def __init__(self, trace: Trace, line_bytes: int) -> None:
        lines_np = trace.line_addrs(line_bytes)
        self.n = len(trace)
        self.line_bytes = line_bytes
        self.lines = lines_np.tolist()
        self.gaps = trace.gaps.tolist()
        self.ops = trace.ops.tolist()
        self.lines_np = lines_np
        self.gaps_np = trace.gaps
        self.ops_np = trace.ops
        self.store_mask = trace.ops != int(MemOp.LOAD)
        #: Indices of store accesses, ascending (for batched write commits).
        self.store_pos = np.flatnonzero(self.store_mask)
        self._set_idx: Dict[int, np.ndarray] = {}
        self._due_prefix: Dict[int, np.ndarray] = {}
        self._misses: Dict[int, int] = {}

    def set_index(self, num_sets: int) -> np.ndarray:
        """Per-access direct-mapped set index (cached per geometry)."""
        cached = self._set_idx.get(num_sets)
        if cached is None:
            cached = self.lines_np & (num_sets - 1)
            self._set_idx[num_sets] = cached
        return cached

    def isolation_misses(self, num_sets: int) -> int:
        """Misses of a direct-mapped cache of ``num_sets`` sets, in isolation.

        An access misses when the previous access to its set was to
        another line, or when there was none.  One vectorised pass: a
        stable sort by set keeps each set's accesses in trace order, so
        an access's predecessor in its set is its neighbour (cached per
        geometry).
        """
        cached = self._misses.get(num_sets)
        if cached is None:
            sets = self.set_index(num_sets)
            order = np.argsort(sets, kind="stable")
            by_set, lines = sets[order], self.lines_np[order]
            cached = min(self.n, 1) + int(np.count_nonzero(
                (by_set[1:] != by_set[:-1]) | (lines[1:] != lines[:-1])
            ))
            self._misses[num_sets] = cached
        return cached

    def due_prefix(self, hit_latency: int) -> np.ndarray:
        """Prefix sums of retire times along an uninterrupted hit chain.

        ``due[k] - due[s]`` is the issue-cycle distance between accesses
        ``k`` and ``s`` when every access in between hits: each entry
        costs its own gap plus one hit latency.
        """
        cached = self._due_prefix.get(hit_latency)
        if cached is None:
            cached = np.cumsum(self.gaps_np) + np.arange(self.n, dtype=np.int64) * hit_latency
            self._due_prefix[hit_latency] = cached
        return cached


#: Process-local decoded-trace cache, content-keyed (LRU-bounded).
_DECODE_CACHE: "OrderedDict[Tuple[str, int], DecodedTrace]" = OrderedDict()
_DECODE_CACHE_MAX = 256
#: Cumulative cache statistics, surfaced as ``trace_decode_hits`` in
#: :meth:`repro.runner.SweepRunner.telemetry`.
decode_stats = {"hits": 0, "misses": 0}


def decode_trace(trace: Trace, line_bytes: int) -> DecodedTrace:
    """The shared :class:`DecodedTrace` for ``trace`` at ``line_bytes``.

    Content-keyed: equal traces hit the same entry no matter how many
    `Trace` objects carry them (sweep jobs rebuild traces per payload).
    """
    key = (trace.content_digest(), line_bytes)
    dec = _DECODE_CACHE.get(key)
    if dec is not None:
        decode_stats["hits"] += 1
        _DECODE_CACHE.move_to_end(key)
        return dec
    decode_stats["misses"] += 1
    dec = DecodedTrace(trace, line_bytes)
    _DECODE_CACHE[key] = dec
    while len(_DECODE_CACHE) > _DECODE_CACHE_MAX:
        _DECODE_CACHE.popitem(last=False)
    return dec


def clear_decode_cache() -> None:
    """Drop cached decodes and reset the hit/miss counters (tests)."""
    _DECODE_CACHE.clear()
    decode_stats["hits"] = 0
    decode_stats["misses"] = 0


def merge_stats(traces: Sequence[Trace], line_bytes: int = 64) -> Tuple[int, int]:
    """Total accesses and number of lines shared by at least two traces."""
    total = sum(len(t) for t in traces)
    seen: dict = {}
    shared = set()
    for idx, t in enumerate(traces):
        for line in np.unique(t.line_addrs(line_bytes)):
            line = int(line)
            if line in seen and seen[line] != idx:
                shared.add(line)
            else:
                seen[line] = idx
    return total, len(shared)
