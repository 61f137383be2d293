"""Run one benchmark workload and print every metric with its unit.

    python3 perfbench/run.py --workload sweep_lu --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate traced run that measures the per-layer ones.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

A wrong output (a final cycle count off its pin, a served result that
differs from a direct run) sets ``correct`` to false and the exit code
to 1.  Without the ``repro`` sources next to this directory the run
fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

from stats import deepest_trusted, describe, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout; removed when the run ends.
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("sweep_lu", "sweep_timer", "serve_warm")


class Report:
    """Metrics, operation counts and the correctness verdict of one run."""

    def __init__(self) -> None:
        self.metrics = {}
        self.notes = {}
        self.log = []
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        if note:
            self.notes[name] = note

    def timing(self, name: str, samples, unit: str) -> None:
        """The median of repeated timings."""
        self.add(name, statistics.median(samples), unit,
                 f"median of {len(samples)}: "
                 + ", ".join(f"{s:.4g}" for s in samples))

    def latency(self, prefix: str, samples_ms) -> None:
        """``<prefix>_p50_ms`` and ``<prefix>_p99_ms`` from raw samples.

        The tail figure is p99 only when at least ``stats.MIN_TAIL``
        samples lie beyond it; otherwise it is the highest percentile
        that has that many, or the median, as its note says.
        """
        q = min(0.99, deepest_trusted(len(samples_ms)) or 0.5)
        note = describe(samples_ms)
        self.add(f"{prefix}_p50_ms", percentile(samples_ms, 0.5), "ms", note)
        self.add(f"{prefix}_p99_ms", percentile(samples_ms, q), "ms",
                 f"p{q * 100:g} reported; {note}")

    def counts(self, counts) -> None:
        """Operation counts (``ops.*``) and the share that did not succeed."""
        for key in ("offered", "accepted", "rejected_429", "errored",
                    "failed", "lost", "pending_at_end"):
            self.add(f"ops.{key}", counts.get(key, 0), "count")
        self.add("error_share", self.failed / max(1, self.attempted), "share",
                 "429s, errors, failures, losses and jobs still pending, "
                 "over jobs offered")

    def note(self, line: str) -> None:
        self.log.append(line)

    def mismatch(self, message: str) -> None:
        self.correct = False
        self.log.append(f"OUTPUT MISMATCH: {message}")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def render(report: Report, wanted) -> dict:
    """Print the human-readable table; return the result object."""
    for line in report.log:
        print(line)
    out = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        value, measured_unit = report.metrics.get(name, (0.0, unit))
        if measured_unit != unit:
            raise ValueError(f"{name} is in {measured_unit}, not {unit}")
        note = report.notes.get(name, "")
        if name not in report.metrics:
            note = "layer not exercised by this workload"
        print(f"{name:32s} {value:16.6g} {unit:6s} {note}")
        out[name] = {"value": value, "unit": unit}
    return {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": out,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    report = Report()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        if args.workload == "serve_warm":
            import serving

            serving.run(report, args.seed, args.seconds, bool(args.trace),
                        WORK, SRC)
        else:
            import sweeps

            sweeps.run(report, args.workload, args.seed, args.seconds,
                       bool(args.trace), WORK)
        import reference

        reference.check(report)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if report.attempted < 1:
        print("perfbench: the run attempted no operations", file=sys.stderr)
        return 1
    result = render(report, wanted)
    print(json.dumps(result))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
