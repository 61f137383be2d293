"""Cycle-equivalence regression against the pinned ocean×4 reference.

The layered refactor (protocol tables / memory backend / event bus) must
be *behaviour-preserving*: per-core cycle counts and stats on the
reference workloads are pinned byte-for-byte in
``tests/data/cycle_reference_ocean4.json`` and checked here for both
engines (inline hit batching on and off).  Any change to these numbers
is a protocol-timing change and needs a deliberate reference update.
"""

import json
from pathlib import Path

import pytest

from repro.params import cohort_config, msi_fcfs_config
from repro.sim.system import run_simulation
from repro.workloads import splash_traces

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "cycle_reference_ocean4.json").read_text()
)

CONFIGS = {
    "cohort_theta60": lambda: cohort_config([60] * 4),
    "msi_fcfs": lambda: msi_fcfs_config(4),
}


def _traces():
    w = REFERENCE["workload"]
    assert w["kind"] == "splash:ocean"
    return splash_traces("ocean", w["cores"], scale=w["scale"], seed=w["seed"])


def _snapshot(stats):
    return {
        "final_cycle": stats.final_cycle,
        "bus_busy_cycles": stats.bus_busy_cycles,
        "bus_grants": dict(stats.bus_grants),
        "timer_expiries": stats.timer_expiries,
        "writebacks": stats.writebacks,
        "cores": [
            {
                "hits": c.hits,
                "misses": c.misses,
                "upgrades": c.upgrades,
                "runahead_hits": c.runahead_hits,
                "total_memory_latency": c.total_memory_latency,
                "max_request_latency": c.max_request_latency,
                "finish_cycle": c.finish_cycle,
            }
            for c in stats.cores
        ],
    }


@pytest.mark.parametrize("system_key", sorted(CONFIGS))
@pytest.mark.parametrize("fast_path", [True, False])
def test_reference_workload_cycles_exact(system_key, fast_path):
    """Both engines reproduce the pinned reference stats exactly."""
    stats = run_simulation(
        CONFIGS[system_key](), _traces(), fast_path=fast_path
    )
    assert _snapshot(stats) == REFERENCE["systems"][system_key]


@pytest.mark.parametrize("system_key", sorted(CONFIGS))
def test_reference_workload_cycles_exact_lockstep(system_key):
    """The lock-step engine reproduces the pinned reference too."""
    from repro.sim.lockstep import LockstepSystem

    stats = LockstepSystem(CONFIGS[system_key](), _traces()).run()
    assert _snapshot(stats) == REFERENCE["systems"][system_key]


def test_reference_workload_cycles_exact_lockstep_batch():
    """One sweep-runner batch serves both reference configs exactly,
    through its lock-step group."""
    from repro.runner import SweepRunner

    runner = SweepRunner(jobs=1, cache_dir=None)
    results = runner.run_systems(
        {key: CONFIGS[key]() for key in sorted(CONFIGS)}, _traces()
    )
    assert (runner.lockstep_groups, runner.lockstep_jobs) == (1, 2)
    for key, result in results.items():
        expected = REFERENCE["systems"][key]
        snapshot = {k: result[k] for k in expected if k != "cores"}
        snapshot["cores"] = [
            {k: core[k] for k in expected["cores"][0]}
            for core in result["cores"]
        ]
        assert snapshot == expected


def test_reference_headline_cycles():
    """The headline numbers quoted across docs/CI stay what they are."""
    assert REFERENCE["systems"]["cohort_theta60"]["final_cycle"] == 76904
    assert REFERENCE["systems"]["msi_fcfs"]["final_cycle"] == 66496
