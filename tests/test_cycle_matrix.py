"""Cycle identity of the shared miss path across protocols and arbiters.

The fast path, the event-per-access path and the lock-step engine all
send their misses through the same arbitration, snoop and completion
code, so comparing the engines with each other cannot see a change to
that code.  This test pins it instead: ``tests/data/
cycle_reference_matrix.json`` holds the full ``stats_to_dict`` document
of fft, lu and radix (4 cores, scale 0.3, seed 1) under ten configs
that cover every arbiter, every protocol, both write-back disciplines
and the DRAM-backed LLC, and every engine must reproduce it exactly.

Regenerate the file (only for a deliberate timing change) with::

    PYTHONPATH=src python tests/test_cycle_matrix.py --write
"""

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.params import (
    ArbiterKind,
    CacheGeometry,
    cohort_config,
    msi_fcfs_config,
    pcc_config,
    pendulum_config,
    pmsi_config,
)
from repro.runner import stats_to_dict
from repro.sim.lockstep import LockstepSystem, lockstep_unsupported_reason
from repro.sim.system import run_simulation
from repro.workloads import splash_traces

REFERENCE_PATH = Path(__file__).parent / "data" / "cycle_reference_matrix.json"

BENCHMARKS = ("fft", "lu", "radix")
WORKLOAD = {"cores": 4, "scale": 0.3, "seed": 1}
THETAS = [20, 60, -1, 300]
PENDULUM_CRITICAL = [True, True, False, False]
#: An LLC small enough that the traces evict from it (back-invalidations).
SMALL_LLC = CacheGeometry(size_bytes=8 * 1024, line_bytes=64, ways=2)

CONFIGS = {
    "cohort": lambda: cohort_config(THETAS),
    "cohort_wb_on_bus": lambda: cohort_config(THETAS, wb_on_bus=True),
    "cohort_dram_llc": lambda: cohort_config(
        THETAS, perfect_llc=False, llc=SMALL_LLC
    ),
    "msi_fcfs": lambda: msi_fcfs_config(4),
    "msi_fcfs_wb_on_bus": lambda: msi_fcfs_config(4, wb_on_bus=True),
    "msi_round_robin": lambda: msi_fcfs_config(
        4, arbiter=ArbiterKind.ROUND_ROBIN
    ),
    "pcc": lambda: pcc_config(4),
    "pmsi": lambda: pmsi_config(4),
    "pendulum": lambda: pendulum_config(PENDULUM_CRITICAL),
    "pendulum_dram_llc": lambda: pendulum_config(
        PENDULUM_CRITICAL, perfect_llc=False, llc=SMALL_LLC
    ),
}


@lru_cache(maxsize=None)
def _traces(bench):
    return tuple(splash_traces(
        bench, WORKLOAD["cores"], scale=WORKLOAD["scale"], seed=WORKLOAD["seed"]
    ))


def _run(engine, config, traces):
    if engine == "lockstep":
        return LockstepSystem(config, traces).run()
    return run_simulation(config, traces, fast_path=(engine == "fast"))


def _matrix(engine="fast"):
    return {
        bench: {
            key: stats_to_dict(_run(engine, make(), _traces(bench)))
            for key, make in CONFIGS.items()
        }
        for bench in BENCHMARKS
    }


@lru_cache(maxsize=None)
def _reference():
    return json.loads(REFERENCE_PATH.read_text())


def test_reference_covers_the_matrix():
    ref = _reference()
    assert ref["workload"] == WORKLOAD
    assert sorted(ref["runs"]) == sorted(BENCHMARKS)
    for bench in BENCHMARKS:
        assert sorted(ref["runs"][bench]) == sorted(CONFIGS)


@pytest.mark.parametrize("bench", BENCHMARKS)
@pytest.mark.parametrize("engine", ["fast", "seed", "lockstep"])
def test_engine_reproduces_reference_matrix(engine, bench):
    """Every config's stats document equals the pinned one, key order
    included (``bus_grants`` is keyed in first-grant order)."""
    expected = _reference()["runs"][bench]
    mismatched = []
    for key, make in CONFIGS.items():
        config = make()
        if engine == "lockstep" and lockstep_unsupported_reason(config):
            continue
        doc = stats_to_dict(_run(engine, config, _traces(bench)))
        if json.dumps(doc) != json.dumps(expected[key]):
            mismatched.append(key)
    assert mismatched == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cycle_matrix.py --write")
    REFERENCE_PATH.write_text(
        json.dumps({"workload": WORKLOAD, "runs": _matrix()}, indent=1) + "\n"
    )
    print(f"wrote {REFERENCE_PATH}")
