"""Tests for the soak driver (``benchmarks/soak.py``).

A stub soak module stands in for the real ones: its ``measure`` writes
an oplog and returns hand-built serve and slo manifests, so the shared
tail — write, validate, gate, exit with the worst code — runs without
any server in well under a second.
"""

import importlib
import json
import os
import sys
import types

import pytest

from repro.obs import OpLogger
from repro.qa import build_manifest

BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "benchmarks")

SERVE_CLEAN = {
    "round1_failures": 0, "round2_failures": 0, "client_mismatches": 0,
    "round2_hit_rate": 1.0, "drain_exit_code": 0,
    "final_snapshot_written": True, "trace_propagation_ok": True,
}
SLO_CLEAN = {
    "queue_wait_ms_p99": 5.0, "error_ratio": 0.0, "availability": 1.0,
    "warm_hit_rate": 0.5, "requests_admitted": 2, "requests_retired": 2,
    "distinct_trace_ids": 1,
}


def stub_soak(serve=SERVE_CLEAN, slo=SLO_CLEAN, extra_oplog_lines=()):
    """A soak module whose ``measure`` writes an oplog and two manifests."""
    module = types.ModuleType("stub_soak")
    module.SCHEMA_TAGGED = ("stub.oplog.jsonl",)

    def measure(out_dir):
        path = os.path.join(out_dir, "stub.oplog.jsonl")
        oplog = OpLogger(path=path, component="stub")
        oplog.emit("admit", trace_id="stub-trace")
        oplog.close()
        with open(path, "a") as fh:
            for line in extra_oplog_lines:
                fh.write(line + "\n")
        return [
            ("serve", build_manifest("serve_smoke", "stub", metrics=serve),
             None),
            ("slo", build_manifest("slo", "stub", metrics=slo), None),
        ]

    module.measure = measure
    return module


@pytest.fixture
def soak(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    return importlib.import_module("soak")


@pytest.fixture
def drive(soak, monkeypatch, tmp_path):
    """Run ``soak.py chaos OUT`` with ``module`` as the chaos soak."""
    out = tmp_path / "out"

    def run(module):
        monkeypatch.setitem(sys.modules, "chaos_soak", module)
        return soak.main(["chaos", str(out)])

    return run, out


def verdict(out, spec):
    with open(out / f"{spec}.verdict.json") as fh:
        return json.load(fh)


class TestSoakDriver:
    def test_one_verdict_per_manifest_from_an_emptied_dir(self, drive):
        run, out = drive
        out.mkdir()
        (out / "stale.verdict.json").write_text("left by an earlier run")
        assert run(stub_soak()) == 0
        assert sorted(p.name for p in out.glob("*.verdict.json")) == [
            "serve.verdict.json", "slo.verdict.json",
        ]
        assert [verdict(out, spec)["spec"]["name"]
                for spec in ("serve", "slo")] == ["serve", "slo"]

    @pytest.mark.parametrize("serve, slo, expected", [
        (SERVE_CLEAN, SLO_CLEAN, 0),
        (dict(SERVE_CLEAN, drain_exit_code=143), SLO_CLEAN, 1),
        (SERVE_CLEAN, dict(SLO_CLEAN, error_ratio=0.5), 1),
        (dict(SERVE_CLEAN, round1_failures=2),
         dict(SLO_CLEAN, availability=0.5), 1),
    ], ids=["both-pass", "serve-fails", "slo-fails", "both-fail"])
    def test_exit_code_is_the_worst_verdict(self, drive, serve, slo, expected):
        run, out = drive
        assert run(stub_soak(serve, slo)) == expected
        passed = [verdict(out, spec)["passed"] for spec in ("serve", "slo")]
        assert passed == [serve == SERVE_CLEAN, slo == SLO_CLEAN]

    def test_manifest_edited_after_it_was_written_is_refused(
        self, drive, soak, monkeypatch
    ):
        # The slo run fails; a hand edit that "fixes" its metric keeps
        # the schema valid, but the stored fingerprint no longer
        # matches, so the gate refuses the manifest (exit 2).
        write = soak.write_manifest

        def write_then_edit(manifest, path):
            fingerprint = write(manifest, path)
            if path.endswith("slo.manifest.json"):
                with open(path) as fh:
                    doc = json.load(fh)
                doc["metrics"]["error_ratio"] = 0.0
                with open(path, "w") as fh:
                    json.dump(doc, fh)
            return fingerprint

        monkeypatch.setattr(soak, "write_manifest", write_then_edit)
        run, out = drive
        failing = stub_soak(
            serve=dict(SERVE_CLEAN, drain_exit_code=143),
            slo=dict(SLO_CLEAN, error_ratio=0.5),
        )
        assert run(failing) == 2  # worse than the serve gate's 1
        assert verdict(out, "serve")["passed"] is False
        assert not (out / "slo.verdict.json").exists()

    def test_oplog_line_breaking_its_schema_fails_the_run(self, drive):
        run, out = drive
        negative_ts = json.dumps({
            "schema": "repro.obs/oplog/1", "ts": -1.0,
            "component": "stub", "event": "retire",
        })
        assert run(stub_soak(extra_oplog_lines=[negative_ts])) == 1
        # Both gates still ran and passed: the failure is the artefact's.
        assert verdict(out, "serve")["passed"] is True
        assert verdict(out, "slo")["passed"] is True
