"""One driver for the gated soaks: measure, validate, gate.

    python benchmarks/soak.py {serve,chaos,capacity,throughput} [DIR]

NAME picks the soak module ``benchmarks/<NAME>_soak.py``.  A soak module
only measures.  Its ``measure(out_dir)`` runs the workload, leaves its
artefacts in ``out_dir`` and returns the run manifests to judge, as a
list of ``(spec, manifest, baseline)`` triples: ``spec`` names a shipped
gate spec and ``baseline`` is ``None`` unless the spec compares a pair.
Its ``SCHEMA_TAGGED`` names the artefacts in ``out_dir`` that the
in-repo schemas cover (oplogs, service traces).

Every soak then shares one tail:

1. empty DIR (default ``NAME-artifacts``) and call ``measure(DIR)``;
2. write each manifest to ``DIR/<spec>.manifest.json`` and a baseline to
   ``DIR/<spec>.baseline.manifest.json``;
3. validate the schema-tagged artefacts and the manifests
   (``python -m repro.obs.validate``);
4. gate each manifest with ``cohort gate run``, which reloads it from
   disk, refuses it if its fingerprint no longer matches, and writes
   ``DIR/<spec>.verdict.json``;
5. exit with the worst code: 0 pass, 1 a failed question or an invalid
   artefact, 2 a manifest or spec that does not load.

A broken harness (a server that never listens, a fleet that never
heals) raises ``SystemExit`` from ``measure``: exit 1, no verdict.
"""

import argparse
import http.client
import importlib
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import cli  # noqa: E402
from repro.obs import parse_prometheus_text  # noqa: E402
from repro.obs.validate import main as validate  # noqa: E402
from repro.qa import write_manifest  # noqa: E402


def archive_metrics(doc, host, port, stem):
    """Save ``doc`` (a ``/metrics`` document) as ``stem.json`` and a fresh
    Prometheus scrape, which must parse, as ``stem.prom.txt``."""
    path = f"{stem}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/metrics?format=prometheus")
        response = conn.getresponse()
        body = response.read().decode()
    finally:
        conn.close()
    if response.status != 200:
        raise SystemExit(f"prometheus scrape returned {response.status}")
    try:
        families = parse_prometheus_text(body)
    except ValueError as exc:
        raise SystemExit(f"prometheus exposition does not parse: {exc}")
    with open(f"{stem}.prom.txt", "w") as fh:
        fh.write(body)
    print(f"prometheus scrape OK ({len(families)} families)")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", choices=["serve", "chaos", "capacity", "throughput"])
    parser.add_argument(
        "out_dir", nargs="?",
        help="artifact directory, emptied first (default NAME-artifacts)",
    )
    args = parser.parse_args(argv)
    out_dir = args.out_dir or f"{args.name}-artifacts"
    soak = importlib.import_module(f"{args.name}_soak")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    artefacts = [os.path.join(out_dir, name) for name in soak.SCHEMA_TAGGED]
    gate_runs = []
    for spec, manifest, baseline in soak.measure(out_dir):
        path = os.path.join(out_dir, f"{spec}.manifest.json")
        write_manifest(manifest, path)
        artefacts.append(path)
        gate_args = [
            "gate", "run", "--spec", spec, "--manifest", path,
            "--report-out", os.path.join(out_dir, f"{spec}.verdict.json"),
        ]
        if baseline is not None:
            path = os.path.join(out_dir, f"{spec}.baseline.manifest.json")
            write_manifest(baseline, path)
            artefacts.append(path)
            gate_args += ["--baseline", path]
        gate_runs.append(gate_args)

    status = validate(artefacts)
    for gate_args in gate_runs:
        print()
        status = max(status, cli.main(gate_args))
    print(f"\nsoak {args.name}: exit {status}")
    return status


if __name__ == "__main__":
    sys.exit(main())
