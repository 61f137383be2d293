"""Global configuration objects for the CoHoRT reproduction.

Everything the paper's experimental setup (Section VIII) parameterises is
collected here: cache geometries, bus latencies, per-core coherence
configuration (the timer registers) and whole-system simulation options.

The defaults mirror the paper: four out-of-order cores, 16 KiB direct-mapped
private caches with 64-byte lines, an 8-way shared LLC, and hit / request /
data latencies of 1 / 4 / 50 cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

#: Special timer-register value that reduces a core's protocol to plain
#: snooping MSI (Section III-B of the paper).
MSI_THETA = -1


class MemOp(enum.IntEnum):
    """A memory operation kind as seen by the cache hierarchy."""

    LOAD = 0
    STORE = 1


class ArbiterKind(str, enum.Enum):
    """Shared-bus arbitration policies implemented by :mod:`repro.sim.arbiter`."""

    RROF = "rrof"          #: Round-Robin Oldest-First (CoHoRT / PCC).
    ROUND_ROBIN = "rr"     #: Plain round-robin (rotates on every grant).
    FCFS = "fcfs"          #: COTS first-come first-serve (baseline MSI system).
    TDM = "tdm"            #: Time-division multiplexing over critical cores
    #: with non-critical cores served only in slack (PENDULUM).


@dataclass(frozen=True)
class LatencyParams:
    """Bus and cache latencies, in cycles.

    ``slot_width`` (``SW`` in the paper's Equation 1) is the worst-case bus
    occupancy of one complete transaction: a request broadcast followed by a
    data transfer.
    """

    hit: int = 1
    request: int = 4
    data: int = 50

    def __post_init__(self) -> None:
        if self.hit < 1 or self.request < 1 or self.data < 1:
            raise ValueError("all latencies must be at least one cycle")

    @property
    def slot_width(self) -> int:
        """``SW``: request latency plus data latency."""
        return self.request + self.data


@dataclass(frozen=True)
class CacheGeometry:
    """Size / associativity / line size of one cache level."""

    size_bytes: int = 16 * 1024
    line_bytes: int = 64
    ways: int = 1

    def __post_init__(self) -> None:
        if self.line_bytes <= 0 or self.size_bytes <= 0 or self.ways <= 0:
            raise ValueError("cache geometry fields must be positive")
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ValueError(
                "cache size must be a whole number of (line_bytes * ways)"
            )
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways

    def set_index(self, line_addr: int) -> int:
        """Map a line address (byte address >> log2(line)) to a set index."""
        return line_addr % self.num_sets


@dataclass(frozen=True)
class CoreConfig:
    """Per-core coherence and criticality configuration.

    ``theta`` is the coherence timer threshold register of Section III-B:
    ``theta >= 1`` selects time-based coherence with that protection window,
    while ``theta == MSI_THETA`` (-1) freezes the countdown counter and the
    core behaves exactly as a snooping MSI core.

    ``criticality`` is the level :math:`l_i` of the task currently mapped to
    the core; ``critical`` is the PENDULUM-style binary Cr/nCr flag derived
    from it by the experiment configurations.
    """

    theta: int = MSI_THETA
    criticality: int = 1
    critical: bool = True

    def __post_init__(self) -> None:
        if self.theta != MSI_THETA and self.theta < 1:
            raise ValueError(
                f"theta must be >= 1 or MSI_THETA (-1), got {self.theta}"
            )
        if self.criticality < 1:
            raise ValueError("criticality levels start at 1")

    @property
    def is_msi(self) -> bool:
        return self.theta == MSI_THETA

    @property
    def is_timed(self) -> bool:
        return self.theta != MSI_THETA


@dataclass(frozen=True)
class SimConfig:
    """Whole-system configuration for :class:`repro.sim.system.System`."""

    num_cores: int = 4
    cores: Optional[Sequence[CoreConfig]] = None
    l1: CacheGeometry = field(default_factory=CacheGeometry)
    llc: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            size_bytes=1024 * 1024, line_bytes=64, ways=8
        )
    )
    latencies: LatencyParams = field(default_factory=LatencyParams)
    arbiter: ArbiterKind = ArbiterKind.RROF
    #: Name of the coherence protocol, resolved through
    #: :func:`repro.sim.protocols.get_protocol` at system-build time.
    #: ``"timed_msi"`` is CoHoRT's heterogeneous timed/MSI protocol;
    #: ``"msi"`` forces plain snooping MSI on every core and ``"pmsi"``
    #: selects the PMSI-style predictable baseline.  Third-party
    #: protocols registered via :func:`repro.sim.protocols.register` are
    #: selectable here by name.
    protocol: str = "timed_msi"
    #: Perfect LLC (paper's main configuration): every access hits in the LLC.
    perfect_llc: bool = True
    #: Fixed main-memory latency for the non-perfect LLC model (footnote 1).
    dram_latency: int = 100
    #: Route dirty cache-to-cache transfers through the LLC (write-back then
    #: refetch) as the PCC/PMSI family of predictable protocols does.
    via_llc_transfers: bool = False
    #: Serialise eviction write-backs on the main bus instead of the
    #: dedicated write-back port (see :mod:`repro.sim.bus`).
    wb_on_bus: bool = False
    #: Hits-over-misses window of the non-blocking private caches: how many
    #: trace entries a core may run ahead past an outstanding miss.
    runahead_window: int = 8
    #: Enable the golden-value coherence oracle (used by the test-suite).
    check_coherence: bool = False
    #: Safety valve: abort the simulation after this many cycles.
    max_cycles: int = 50_000_000

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("need at least one core")
        if self.cores is not None and len(self.cores) != self.num_cores:
            raise ValueError(
                f"len(cores)={len(self.cores)} does not match "
                f"num_cores={self.num_cores}"
            )
        if self.l1.line_bytes != self.llc.line_bytes:
            raise ValueError("L1 and LLC must use the same line size")
        if self.runahead_window < 0:
            raise ValueError("runahead_window must be non-negative")
        if self.dram_latency < 0:
            raise ValueError("dram_latency must be non-negative")

    def core_config(self, core_id: int) -> CoreConfig:
        """The :class:`CoreConfig` for ``core_id`` (defaults to MSI)."""
        if self.cores is None:
            return CoreConfig()
        return self.cores[core_id]

    @property
    def thetas(self) -> List[int]:
        """The timer vector Θ across all cores."""
        return [self.core_config(i).theta for i in range(self.num_cores)]

    def with_thetas(self, thetas: Sequence[int]) -> "SimConfig":
        """A copy of this configuration with the timer vector replaced."""
        if len(thetas) != self.num_cores:
            raise ValueError("one theta per core required")
        base = [self.core_config(i) for i in range(self.num_cores)]
        new_cores = [replace(cfg, theta=int(t)) for cfg, t in zip(base, thetas)]
        return replace(self, cores=tuple(new_cores))


def config_to_dict(config: SimConfig) -> dict:
    """Serialise a :class:`SimConfig` to a plain JSON-compatible dict."""
    return {
        "num_cores": config.num_cores,
        "cores": [
            {
                "theta": cc.theta,
                "criticality": cc.criticality,
                "critical": cc.critical,
            }
            for cc in (
                [config.core_config(i) for i in range(config.num_cores)]
            )
        ],
        "l1": {
            "size_bytes": config.l1.size_bytes,
            "line_bytes": config.l1.line_bytes,
            "ways": config.l1.ways,
        },
        "llc": {
            "size_bytes": config.llc.size_bytes,
            "line_bytes": config.llc.line_bytes,
            "ways": config.llc.ways,
        },
        "latencies": {
            "hit": config.latencies.hit,
            "request": config.latencies.request,
            "data": config.latencies.data,
        },
        "arbiter": config.arbiter.value,
        "protocol": config.protocol,
        "perfect_llc": config.perfect_llc,
        "dram_latency": config.dram_latency,
        "via_llc_transfers": config.via_llc_transfers,
        "wb_on_bus": config.wb_on_bus,
        "runahead_window": config.runahead_window,
    }


def config_from_dict(data: dict) -> SimConfig:
    """Rebuild a :class:`SimConfig` from :func:`config_to_dict` output."""
    cores = tuple(
        CoreConfig(
            theta=int(cc["theta"]),
            criticality=int(cc.get("criticality", 1)),
            critical=bool(cc.get("critical", True)),
        )
        for cc in data["cores"]
    )
    return SimConfig(
        num_cores=int(data["num_cores"]),
        cores=cores,
        l1=CacheGeometry(**data["l1"]),
        llc=CacheGeometry(**data["llc"]),
        latencies=LatencyParams(**data["latencies"]),
        arbiter=ArbiterKind(data["arbiter"]),
        protocol=str(data.get("protocol", "timed_msi")),
        perfect_llc=bool(data.get("perfect_llc", True)),
        dram_latency=int(data.get("dram_latency", 100)),
        via_llc_transfers=bool(data.get("via_llc_transfers", False)),
        wb_on_bus=bool(data.get("wb_on_bus", False)),
        runahead_window=int(data.get("runahead_window", 8)),
    )


def save_config(config: SimConfig, path: str) -> None:
    """Write a configuration to a JSON file."""
    import json

    with open(path, "w") as fh:
        json.dump(config_to_dict(config), fh, indent=2)


def load_config(path: str) -> SimConfig:
    """Read a configuration from a JSON file."""
    import json

    with open(path) as fh:
        return config_from_dict(json.load(fh))


def cohort_config(
    thetas: Sequence[int],
    criticalities: Optional[Sequence[int]] = None,
    critical: Optional[Sequence[bool]] = None,
    **kwargs,
) -> SimConfig:
    """Build a CoHoRT system configuration from a timer vector.

    Convenience constructor used throughout the examples and benchmarks:
    RROF arbitration, heterogeneous timed/MSI coherence per ``thetas``.
    """
    n = len(thetas)
    if criticalities is None:
        criticalities = [1] * n
    if critical is None:
        critical = [t != MSI_THETA for t in thetas]
    cores = tuple(
        CoreConfig(theta=int(t), criticality=int(l), critical=bool(c))
        for t, l, c in zip(thetas, criticalities, critical)
    )
    kwargs.setdefault("arbiter", ArbiterKind.RROF)
    return SimConfig(num_cores=n, cores=cores, **kwargs)


def msi_fcfs_config(num_cores: int = 4, **kwargs) -> SimConfig:
    """The COTS baseline of Figure 6: plain MSI with an FCFS arbiter."""
    cores = tuple(CoreConfig(theta=MSI_THETA) for _ in range(num_cores))
    kwargs.setdefault("arbiter", ArbiterKind.FCFS)
    return SimConfig(num_cores=num_cores, cores=cores, **kwargs)


def pcc_config(num_cores: int = 4, **kwargs) -> SimConfig:
    """The PCC baseline: predictable MSI, RROF, transfers via the LLC."""
    cores = tuple(CoreConfig(theta=MSI_THETA) for _ in range(num_cores))
    kwargs.setdefault("arbiter", ArbiterKind.RROF)
    kwargs.setdefault("via_llc_transfers", True)
    return SimConfig(num_cores=num_cores, cores=cores, **kwargs)


def pmsi_config(num_cores: int = 4, **kwargs) -> SimConfig:
    """A PMSI-style predictable-MSI baseline [Hassan et al.]: snooping
    MSI timing with invalidate-on-share handovers, dirty transfers routed
    through the LLC, and RROF arbitration.  Selected purely through the
    protocol registry (``protocol="pmsi"``) — the engine is unchanged."""
    cores = tuple(CoreConfig(theta=MSI_THETA) for _ in range(num_cores))
    kwargs.setdefault("arbiter", ArbiterKind.RROF)
    kwargs.setdefault("protocol", "pmsi")
    return SimConfig(num_cores=num_cores, cores=cores, **kwargs)


def pendulum_star_config(
    thetas: Sequence[int],
    **kwargs,
) -> SimConfig:
    """The PENDULUM* baseline [17]: requirement-aware timed coherence.

    PENDULUM* introduced per-core timers with guaranteed-hit analysis —
    the requirement-awareness CoHoRT builds on — but every core must run
    the time-based protocol (no heterogeneity, so no MSI cores, and no
    criticality/mode support).  Expressed here as an all-timed CoHoRT
    configuration with RROF arbitration; passing ``MSI_THETA`` is
    rejected to reflect the missing heterogeneity.
    """
    if any(t == MSI_THETA for t in thetas):
        raise ValueError(
            "PENDULUM* has no heterogeneous MSI mode; all cores are timed"
        )
    return cohort_config(list(thetas), critical=[True] * len(thetas), **kwargs)


def pendulum_config(
    critical: Sequence[bool],
    theta: int = 300,
    **kwargs,
) -> SimConfig:
    """The PENDULUM baseline: the time-based protocol with one global
    timer on *every* core (criticality only affects arbitration), TDM
    arbitration over critical cores, non-critical cores served only in
    slack."""
    cores = tuple(
        CoreConfig(
            theta=theta,
            criticality=2 if is_cr else 1,
            critical=bool(is_cr),
        )
        for is_cr in critical
    )
    kwargs.setdefault("arbiter", ArbiterKind.TDM)
    return SimConfig(num_cores=len(critical), cores=cores, **kwargs)
