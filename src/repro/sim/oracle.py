"""The golden-value coherence oracle.

Every store bumps a per-line *golden version* and stamps it on the
written cache line; loads (when checking is enabled) must observe the
latest golden version.  The version plumbing is always on — write-backs
and the LLC/DRAM version stores rely on it — while the single-writer /
read-latest *checks* are enabled by ``SimConfig.check_coherence`` (the
property-based test-suite runs with them on).

Violations raise :class:`CoherenceViolationError`, which carries the
offending core, line address, cycle and violation kind as structured
attributes, and whose message includes the core's criticality, the
current operating mode and the line's remaining timer budget (when the
owning :class:`~repro.sim.system.System` supplies a ``core_info``
callback) — fault-injection campaign reports are built from these.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.params import MSI_THETA
from repro.sim.cache import CacheLine, LineState
from repro.sim.private_cache import PrivateCache

#: ``core_info`` callback: core id → context mapping (criticality, mode).
CoreInfoFn = Callable[[int], Dict[str, object]]


class CoherenceViolationError(RuntimeError):
    """The golden-value oracle observed a protocol violation.

    Structured fields (``core``, ``line``, ``cycle``, ``kind``) mirror
    the rendered message so CLI diagnostics and fault-campaign reports
    never have to parse it.
    """

    def __init__(
        self,
        message: str,
        *,
        core: Optional[int] = None,
        line: Optional[int] = None,
        cycle: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.core = core
        self.line = line
        self.cycle = cycle
        self.kind = kind


class CoherenceOracle:
    """Tracks golden versions and (optionally) checks every access."""

    __slots__ = ("check", "_caches", "_golden", "_now", "_core_info")

    def __init__(
        self,
        check: bool,
        caches: Sequence[PrivateCache],
        now: Callable[[], int],
        core_info: Optional[CoreInfoFn] = None,
    ) -> None:
        self.check = check
        self._caches = caches
        self._golden: Dict[int, int] = {}
        self._now = now
        self._core_info = core_info

    # -- context -----------------------------------------------------------

    def golden_versions(self) -> Dict[int, int]:
        """Snapshot of the per-line golden versions (campaign audits)."""
        return dict(self._golden)

    def describe_core(
        self, core_id: int, line: Optional[CacheLine] = None
    ) -> str:
        """Render one core's coherence context for diagnostics.

        Includes the criticality level and current operating mode (when
        the system supplied them), the timer register, and — when a line
        with an armed countdown is given — its remaining timer budget.
        """
        cache = self._caches[core_id]
        parts = []
        if self._core_info is not None:
            info = self._core_info(core_id)
            parts.append(f"crit={info.get('criticality', '?')}")
            mode = info.get("mode")
            parts.append(f"mode={'-' if mode is None else mode}")
        theta = cache.theta
        parts.append("θ=MSI" if theta == MSI_THETA else f"θ={theta}")
        if line is not None and line.inv_at is not None:
            parts.append(f"timer budget={max(0, line.inv_at - self._now())}")
        return f"c{core_id}[{' '.join(parts)}]"

    def _violation(
        self, kind: str, core_id: int, line: CacheLine, detail: str
    ) -> CoherenceViolationError:
        cycle = self._now()
        return CoherenceViolationError(
            f"{kind}: {self.describe_core(core_id, line)} {detail} "
            f"(cycle {cycle})",
            core=core_id,
            line=line.line_addr,
            cycle=cycle,
            kind=kind,
        )

    # -- checks ------------------------------------------------------------

    def perform_write(self, core_id: int, line: CacheLine) -> None:
        """Perform a store: bump the golden version of the line."""
        addr = line.line_addr
        if self.check:
            if line.state != LineState.M:
                raise self._violation(
                    "write-without-ownership", core_id, line,
                    f"stores to line {addr} in state {line.state.name}",
                )
            for cache in self._caches:
                if cache.core_id == core_id:
                    continue
                other = cache.lookup(addr)
                if other is not None and other.valid:
                    raise self._violation(
                        "multiple-copies-on-write", core_id, line,
                        f"writes line {addr} while "
                        f"{self.describe_core(cache.core_id, other)} holds "
                        f"it in {other.state.name}",
                    )
        version = self._golden.get(addr, 0) + 1
        self._golden[addr] = version
        line.version = version
        line.dirty = True

    def unchecked_writer(self) -> Callable[[CacheLine], None]:
        """A ``perform_write`` closure minus the coherence checks.

        For hot paths that have already excluded checked configurations
        (the lock-step engine peels ``check_coherence=True``); raises if
        checking is on, since the closure would skip the single-writer
        check.
        """
        if self.check:
            raise RuntimeError(
                "unchecked_writer() requires check_coherence=False"
            )
        golden = self._golden

        def write(line: CacheLine) -> None:
            version = golden.get(line.line_addr, 0) + 1
            golden[line.line_addr] = version
            line.version = version
            line.dirty = True

        return write

    def check_read(self, core_id: int, line: CacheLine) -> None:
        """Check a load observes the latest performed write."""
        if not self.check:
            return
        addr = line.line_addr
        expected = self._golden.get(addr, 0)
        if line.version != expected:
            raise self._violation(
                "stale-read", core_id, line,
                f"reads line {addr} version {line.version}, "
                f"expected {expected}",
            )
