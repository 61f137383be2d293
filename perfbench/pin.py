"""Recompute ``pinned.json``: the final cycle count of every pool config.

Runs each config alone on the per-event fast path, so the pins do not
come from the lock-step engine the sweeps measure.  Run it only when the
simulation semantics change on purpose:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.sim.system import run_simulation  # noqa: E402

import inputs  # noqa: E402


def final_cycles(configs, traces):
    cycles = []
    for config in configs:
        started = time.perf_counter()
        cycles.append(run_simulation(config, traces).final_cycle)
        print(
            f"  {[c.theta for c in config.cores]} -> {cycles[-1]} "
            f"({time.perf_counter() - started:.2f} s)",
            file=sys.stderr,
        )
    return cycles


def main() -> None:
    pinned = {
        "sweep_lu": final_cycles(inputs.lu_pool(), inputs.lu_traces()),
        "sweep_timer": final_cycles(
            inputs.timer_pool(), inputs.timer_traces()
        ),
    }
    with open(os.path.join(HERE, "pinned.json"), "w") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
