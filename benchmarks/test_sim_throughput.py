"""Simulator throughput: simulated cycles per wall-clock second.

Documents the performance claim in docs/simulator.md and guards against
order-of-magnitude regressions in the event engine: the kernel skips
idle cycles, so timer waits are free and contended workloads dominate.
"""

import os
import time

from repro.params import cohort_config, msi_fcfs_config
from repro.experiments import dump_json, format_table
from repro.sim.system import run_simulation
from repro.workloads import splash_traces

from bench_workloads import TELEMETRY_ROUNDS, measure_lockstep, measure_telemetry
from conftest import OUT_DIR, emit, run_once


def test_simulator_throughput(benchmark):
    traces = splash_traces("ocean", 4, scale=4.0, seed=0)
    total_accesses = sum(len(t) for t in traces)

    def run():
        rows = []
        payload = {
            "workload": "ocean x4",
            "total_accesses": total_accesses,
            "systems": {},
        }
        for name, key, cfg in (
            ("CoHoRT θ=60", "cohort", cohort_config([60] * 4)),
            ("MSI-FCFS", "msi_fcfs", msi_fcfs_config(4)),
        ):
            started = time.perf_counter()
            stats = run_simulation(cfg, traces)
            wall = time.perf_counter() - started
            rows.append(
                [
                    name,
                    stats.final_cycle,
                    f"{wall:.2f}",
                    f"{stats.final_cycle / wall:,.0f}",
                    f"{total_accesses / wall:,.0f}",
                ]
            )
            payload["systems"][key] = {
                "cycles": stats.final_cycle,
                "wall_seconds": wall,
                "cycles_per_second": stats.final_cycle / wall,
                "accesses_per_second": total_accesses / wall,
            }

        # Telemetry overhead: the same CoHoRT run with the full repro.obs
        # stack attached.  Cycle counts must not move; the CPU-time
        # overhead is gated by the throughput soak at 20%.
        cycles, off_med, on_med = measure_telemetry(traces)
        assert cycles == payload["systems"]["cohort"]["cycles"]
        raw_overhead = on_med / off_med - 1.0
        rows.append(
            [
                "CoHoRT θ=60 + telemetry",
                cycles,
                f"{on_med:.2f}",
                f"{cycles / on_med:,.0f}",
                f"{total_accesses / on_med:,.0f}",
            ]
        )
        payload["telemetry"] = {
            "system": "cohort",
            "sample_every": 500,
            "cycles": cycles,
            "rounds": TELEMETRY_ROUNDS,
            "wall_seconds": on_med,
            "accesses_per_second": total_accesses / on_med,
            # A negative median means measurement noise still exceeded
            # the true overhead; clamp to 0 (telemetry cannot speed the
            # engine up) and keep the raw value for diagnosis.
            "overhead_fraction": max(0.0, raw_overhead),
            "raw_overhead_fraction": raw_overhead,
        }

        # Lock-step engine: one pinned 64-config θ-sweep population over
        # one shared timer_sweep trace set, run one config at a time on
        # the lock-step engine vs on the fast path (interleaved
        # median-of-N on CPU time, cycle identity asserted every
        # round).  The speedup here is the headline claim of
        # docs/performance.md and is gated in CI.
        ls = measure_lockstep()
        rows.append(
            [
                f"lock-step batch ({ls['configs']} configs)",
                "-",
                f"{ls['batch']['cpu_seconds']:.2f}",
                "-",
                f"{ls['batch']['accesses_per_second']:,.0f}",
            ]
        )
        payload["lockstep"] = ls
        assert ls["speedup"] >= 5.0, (
            f"lock-step batch speedup {ls['speedup']:.2f}x below the 5x "
            f"floor (rounds: {ls['speedups']})"
        )
        return rows, payload

    rows, payload = run_once(benchmark, run)
    emit(
        "sim_throughput",
        format_table(
            ["system", "cycles", "wall s", "cycles/s", "accesses/s"],
            rows,
            title=f"Simulator throughput (ocean x4, {total_accesses:,} accesses)",
        ),
    )
    dump_json(os.path.join(OUT_DIR, "BENCH_throughput.json"), payload)
    for row in rows:
        # Guard: at least 10^4 simulated cycles per second.  (The
        # lock-step batch row reports no single cycle count.)
        if row[3] != "-":
            assert float(row[3].replace(",", "")) > 10_000, row
