"""Unit tests for the shared bus occupancy model and the stats layer."""

import pytest

from repro.params import MemOp
from repro.sim.bus import SharedBus
from repro.sim.messages import CoherenceRequest, ReqKind
from repro.sim.stats import CoreStats, SystemStats


def job():
    """A request to grant the bus to (for its broadcast)."""
    return CoherenceRequest(
        req_id=1, core_id=0, line_addr=0, kind=ReqKind.GETS,
        op=MemOp.LOAD, issue_cycle=0,
    )


class TestSharedBus:
    def test_idle_initially(self):
        assert SharedBus().idle(0)

    def test_grant_occupies(self):
        bus = SharedBus()
        done = bus.grant(job(), now=10, duration=4)
        assert done == 14
        assert not bus.idle(12)
        assert bus.idle(14)
        assert bus.current_job is not None

    def test_double_grant_rejected(self):
        bus = SharedBus()
        bus.grant(job(), now=0, duration=10)
        with pytest.raises(RuntimeError):
            bus.grant(job(), now=5, duration=10)

    def test_release_clears_job(self):
        bus = SharedBus()
        bus.grant(job(), now=0, duration=3)
        bus.release(now=3)
        assert bus.current_job is None

    def test_early_release_rejected(self):
        bus = SharedBus()
        bus.grant(job(), now=0, duration=10)
        with pytest.raises(RuntimeError):
            bus.release(now=5)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            SharedBus().grant(job(), now=0, duration=0)

    def test_stall_blocks_grants_until_horizon(self):
        bus = SharedBus()
        until = bus.stall(now=5, duration=10)
        assert until == 15
        assert not bus.idle(14)
        assert bus.idle(15)
        with pytest.raises(RuntimeError):
            bus.grant(job(), now=10, duration=2)

    def test_stall_mid_transfer_does_not_break_release(self):
        # Regression: a fault-injected stall landing while a job is in
        # flight used to extend the single busy-until clock past the
        # job's completion cycle, making the engine's perfectly timed
        # release raise "bus released before the job completed".
        bus = SharedBus()
        bus.grant(job(), now=10, duration=5)  # job completes at 15
        until = bus.stall(now=12, duration=10)  # stall holds bus to 22
        assert until == 22
        bus.release(now=15)  # on-schedule release must succeed
        assert bus.current_job is None
        # ... but new grants stay blocked until the stall expires.
        assert not bus.idle(21)
        assert bus.idle(22)
        done = bus.grant(job(), now=22, duration=3)
        assert done == 25

    def test_stall_shorter_than_transfer_is_absorbed(self):
        bus = SharedBus()
        bus.grant(job(), now=0, duration=10)
        assert bus.stall(now=2, duration=3) == 10  # job horizon dominates
        bus.release(now=10)
        assert bus.idle(10)

    def test_stall_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            SharedBus().stall(now=0, duration=0)


class TestMessages:
    def test_request_latency_requires_completion(self):
        req = CoherenceRequest(
            req_id=1, core_id=0, line_addr=0, kind=ReqKind.GETM,
            op=MemOp.STORE, issue_cycle=10,
        )
        with pytest.raises(ValueError):
            req.latency
        req.complete_cycle = 25
        assert req.latency == 15

    def test_wants_ownership(self):
        def req(kind):
            return CoherenceRequest(1, 0, 0, kind, MemOp.LOAD, 0)

        assert req(ReqKind.GETM).wants_ownership
        assert req(ReqKind.UPG).wants_ownership
        assert not req(ReqKind.GETS).wants_ownership


class TestCoreStats:
    def test_hit_recording(self):
        stats = CoreStats(core_id=0)
        stats.record_hit(1)
        stats.record_hit(1, runahead=True)
        assert stats.hits == 2
        assert stats.runahead_hits == 1
        assert stats.total_memory_latency == 2

    def test_miss_recording_tracks_max(self):
        stats = CoreStats(core_id=0, request_latencies=[])
        stats.record_miss(54)
        stats.record_miss(200, upgrade=True)
        stats.record_miss(100)
        assert stats.misses == 3
        assert stats.upgrades == 1
        assert stats.max_request_latency == 200
        assert stats.request_latencies == [54, 200, 100]
        assert stats.total_memory_latency == 354

    def test_hit_rate(self):
        stats = CoreStats(core_id=0)
        assert stats.hit_rate == 0.0
        stats.record_hit(1)
        stats.record_miss(10)
        assert stats.hit_rate == 0.5


class TestSystemStats:
    def test_execution_time_is_last_finish(self):
        stats = SystemStats(cores=[CoreStats(0), CoreStats(1)])
        stats.cores[0].finish_cycle = 100
        stats.cores[1].finish_cycle = 250
        assert stats.execution_time == 250

    def test_bus_utilization(self):
        stats = SystemStats()
        stats.record_grant("DATA", 50)
        stats.record_grant("BROADCAST", 4)
        stats.final_cycle = 108
        assert stats.bus_utilization() == pytest.approx(0.5)
        assert stats.bus_grants == {"DATA": 1, "BROADCAST": 1}

    def test_bus_utilization_zero_cycles(self):
        assert SystemStats().bus_utilization() == 0.0

    def test_summary_mentions_cores(self):
        stats = SystemStats(cores=[CoreStats(0)])
        assert "c0" in stats.summary()
