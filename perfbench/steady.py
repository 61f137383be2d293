"""Steadiness self-check: repeat each workload and compare spreads to bounds.

    python3 perfbench/steady.py [--runs 10] [--workloads sweep_lu,...]

For every workload it makes ``--runs`` untraced runs, each with another
seed, and reports each end-to-end metric's spread: the distance between
the first and third quartile of its values (``statistics.quantiles``)
as a share of their median.  A spread above the metric's bound fails
(``setup_s`` is exempt, as it is only compared median to median); a
spread above a third of the bound is flagged.  It then makes two traced
runs with the same seed and fails unless every exact count (simulator
counts, runner counters, operation counts) repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Per-layer metrics that must repeat exactly for the same seed.
EXACT_PREFIXES = ("sim.accesses", "sim.misses", "sim.bus_grants",
                  "sim.timer_expiries", "sim.writebacks", "sim.final_cycle",
                  "runner.lockstep", "runner.cache_misses",
                  "runner.trace_decode", "ops.offered")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} exited "
            f"{proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def check_workload(workload, spec, args) -> bool:
    ok = True
    runs = [
        run_once(workload, args.first_seed + i, args.seconds, 0)
        for i in range(args.runs)
    ]
    print(f"\n{workload}: {args.runs} untraced runs")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in runs]
        s = spread(values)
        verdict = "ok"
        if s > bound and name != "setup_s":
            verdict, ok = "FAIL", False
        elif s > bound / 3:
            verdict = "unsteady"
        print(f"  {name:24s} median {statistics.median(values):14.6g} "
              f"{metric['unit']:6s} spread {s:7.4f} bound {bound:5.2f} "
              f"{verdict}")
        if args.verbose:
            print("    " + " ".join(f"{v:.5g}" for v in values))
    traced = [run_once(workload, args.first_seed, args.seconds, 1)
              for _ in range(2)]
    exact = [n for n in traced[0]["metrics"] if n.startswith(EXACT_PREFIXES)]
    differ = [
        n for n in exact
        if traced[0]["metrics"][n]["value"] != traced[1]["metrics"][n]["value"]
    ]
    print(f"  exact counts over two traced runs: "
          f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
    return ok and not differ


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--verbose", action="store_true",
                        help="print every run's value under each metric")
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in spec["workloads"]),
    )
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workloads.split(","):
        ok = check_workload(workload, spec, args) and ok
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
