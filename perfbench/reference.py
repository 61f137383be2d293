"""The ocean×4 cross-engine reference, checked after every run."""

from __future__ import annotations

from repro.params import cohort_config, msi_fcfs_config
from repro.sim.system import run_simulation
from repro.workloads import splash_traces

import inputs


def check(report) -> None:
    traces = splash_traces("ocean", 4, scale=4.0, seed=0)
    got = {
        "cohort_theta60": run_simulation(
            cohort_config([60] * 4), traces
        ).final_cycle,
        "msi_fcfs": run_simulation(msi_fcfs_config(4), traces).final_cycle,
    }
    if got != inputs.OCEAN_REFERENCE:
        report.mismatch(
            f"ocean x4 gave {got}, pinned {inputs.OCEAN_REFERENCE}"
        )
