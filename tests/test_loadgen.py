"""Tests for the open-loop load generator (repro.serve.loadgen).

Determinism and accounting are tested against stdlib stub HTTP servers
(no subprocesses, no real fleet): a 429-only server proves backpressure
never stalls the arrival clock, and an accepting server proves the
submit → batched-poll → e2e accounting loop closes.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.serve.loadgen import (
    THETA_GRID,
    LoadGenerator,
    arrival_schedule,
    theta_population,
)


class TestArrivalSchedule:
    def test_deterministic_under_fixed_seed(self):
        a = arrival_schedule(50.0, 5.0, seed=11)
        b = arrival_schedule(50.0, 5.0, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        assert arrival_schedule(50.0, 5.0, seed=1) != arrival_schedule(
            50.0, 5.0, seed=2
        )

    def test_rate_is_approximately_honoured(self):
        # 2000 expected arrivals: the Poisson count is within ±10% at
        # this sample size for any reasonable seed.
        offsets = arrival_schedule(200.0, 10.0, seed=3)
        assert 1800 <= len(offsets) <= 2200
        assert all(0 <= t < 10.0 for t in offsets)
        assert offsets == sorted(offsets)

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(ValueError):
            arrival_schedule(0.0, 1.0)
        with pytest.raises(ValueError):
            arrival_schedule(1.0, 0.0)


class TestThetaPopulation:
    def test_specs_are_distinct_and_reproducible(self):
        pop = theta_population(16)
        again = theta_population(16)
        assert [s.to_dict() for s in pop] == [s.to_dict() for s in again]
        assert len({s.spec_key() for s in pop}) == 16
        for spec in pop:
            assert spec.benchmark == "fft"
            assert all(t in THETA_GRID for t in spec.thetas)

    def test_rejects_impossible_sizes(self):
        with pytest.raises(ValueError):
            theta_population(0)
        with pytest.raises(ValueError):
            theta_population(10_000)


class _StubHandler(BaseHTTPRequestHandler):
    """Minimal serve-shaped endpoint; subclasses set the behaviour."""

    def _reply(self, status, doc, extra=None):
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (extra or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # quiet
        pass


def _serve(handler_cls):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler_cls)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


class TestLoadGenerator429Accounting:
    def test_backpressure_is_counted_but_never_slept_on(self):
        class Always429(_StubHandler):
            def do_POST(self):
                self.rfile.read(
                    int(self.headers.get("Content-Length", 0))
                )
                self._reply(
                    429,
                    {"error": "full", "retry_after": 30.0},
                    {"Retry-After": "30"},
                )

        server = _serve(Always429)
        try:
            gen = LoadGenerator(
                "127.0.0.1", server.server_address[1],
                rate=40.0, duration=1.0,
                population=theta_population(4), seed=5,
                workers=8, drain_timeout=1.0,
            )
            t0 = time.monotonic()
            report = gen.run()
            elapsed = time.monotonic() - t0
        finally:
            server.shutdown()
            server.server_close()
        assert report.offered > 0
        assert report.rejected_429 == report.offered
        assert report.accepted == report.completed == 0
        assert report.errors == 0
        assert report.ratio_429 == 1.0
        # The arrival clock never sleeps on a 429: had any worker
        # honoured the 30s Retry-After hint even once, the run could
        # not finish in a few seconds.
        assert elapsed < 5.0

    def test_unreachable_endpoint_counts_errors_not_429(self):
        from repro.serve.fleet import free_port

        gen = LoadGenerator(
            "127.0.0.1", free_port(),
            rate=20.0, duration=0.5,
            population=theta_population(2), seed=5,
            workers=4, drain_timeout=0.5,
        )
        report = gen.run()
        assert report.errors == report.offered > 0
        assert report.rejected_429 == 0


class TestLoadGeneratorCompletion:
    def test_accepted_jobs_are_polled_to_completion(self):
        jobs = {}
        lock = threading.Lock()

        class Accepting(_StubHandler):
            def do_POST(self):
                raw = self.rfile.read(
                    int(self.headers.get("Content-Length", 0))
                )
                doc = json.loads(raw)
                if self.path == "/jobs/poll":
                    with lock:
                        known = {
                            jid: {"id": jid, "status": "done"}
                            for jid in doc["ids"] if jid in jobs
                        }
                        unknown = [
                            jid for jid in doc["ids"] if jid not in jobs
                        ]
                    self._reply(
                        200, {"jobs": known, "unknown": unknown}
                    )
                    return
                with lock:
                    job_id = f"job-{len(jobs)}"
                    jobs[job_id] = doc
                self._reply(202, {"jobs": [{"id": job_id}]})

        server = _serve(Accepting)
        try:
            gen = LoadGenerator(
                "127.0.0.1", server.server_address[1],
                rate=30.0, duration=1.0,
                population=theta_population(4), seed=9,
                workers=8, drain_timeout=5.0,
            )
            report = gen.run()
        finally:
            server.shutdown()
            server.server_close()
        assert report.offered > 0
        assert report.accepted == report.offered
        assert report.completed == report.accepted
        assert report.lost == report.failed == report.pending_at_end == 0
        doc = report.to_dict()
        assert doc["sustained_rps"] > 0
        assert doc["e2e"]["p99_ms"] >= doc["e2e"]["p50_ms"] >= 0
        assert doc["histograms_us"]["e2e"]["total"] == report.completed
