"""Unit tests for the bus arbitration policies (repro.sim.arbiter)."""

import pytest

from repro.params import ArbiterKind, MemOp, SimConfig, cohort_config, pendulum_config
from repro.sim.arbiter import (
    FCFSArbiter,
    RoundRobinArbiter,
    RROFArbiter,
    TDMArbiter,
    build_arbiter,
)
from repro.sim.messages import (
    CoherenceRequest,
    ReqKind,
    ReqState,
    Writeback,
)


def req(core, seq, state=ReqState.QUEUED, ready=False, line=0):
    r = CoherenceRequest(
        req_id=seq,
        core_id=core,
        line_addr=line,
        kind=ReqKind.GETM,
        op=MemOp.STORE,
        issue_cycle=0,
    )
    r.state = state
    r.ready = ready
    return r


def broadcast(core, seq):
    """A queued request: its broadcast is grantable."""
    return req(core, seq)


def data(core, seq):
    """A waiting, ready request: its data transfer is grantable."""
    return req(core, seq, state=ReqState.WAITING, ready=True)


def stalled(core, seq):
    """A waiting request whose source is not ready: its core is busy,
    but it has nothing grantable."""
    return req(core, seq, state=ReqState.WAITING)


def wb(core, seq):
    return Writeback(core_id=core, line_addr=seq, version=0, created_cycle=0,
                     seq=seq)


def table(*reqs):
    """The engine's request table: core id -> its one request."""
    return {r.core_id: r for r in reqs}


class TestRROF:
    def test_grants_in_cyclic_order(self):
        arb = RROFArbiter(3)
        requests = table(*[broadcast(c, c + 1) for c in range(3)])
        assert arb.decide(0, requests, ()).core_id == 0

    def test_skips_cores_without_jobs_but_keeps_position(self):
        arb = RROFArbiter(3)
        assert arb.decide(0, table(broadcast(2, 1)), ()).core_id == 2
        # Core 0 did not lose its place: it is still first when it has work.
        requests = table(broadcast(0, 2), broadcast(2, 3))
        assert arb.decide(1, requests, ()).core_id == 0

    def test_rotates_only_on_request_completion(self):
        arb = RROFArbiter(2)
        requests = table(broadcast(0, 1), broadcast(1, 2))
        assert arb.decide(0, requests, ()).core_id == 0
        # No completion: core 0 still leads.
        assert arb.decide(1, requests, ()).core_id == 0
        arb.on_request_completed(0)
        assert arb.decide(2, requests, ()).core_id == 1
        assert arb.order == [1, 0]

    def test_out_of_turn_completion_drops_core_behind_all_waiters(self):
        # Pins the reconciled RROF semantics: rotation happens for
        # whichever core the bus actually served, even when it was served
        # out of turn (everyone ahead of it was stalled), and the served
        # core drops behind *every* still-waiting core — the one-slot-per-
        # competitor budget Equation 1 charges.
        arb = RROFArbiter(3)
        # Cores 0 and 2 are busy (outstanding requests) but have nothing
        # grantable — stalled on remote timers — so core 1 is served.
        requests = table(stalled(0, 1), broadcast(1, 2), stalled(2, 3))
        assert arb.decide(0, requests, ()).core_id == 1
        arb.on_request_completed(1)
        # Core 1 went behind core 2 as well, not just one slot back.
        assert arb.order == [0, 2, 1]

    def test_wb_slot_rotates_core_behind_waiting_requester(self):
        # Regression: bus write-backs never rotated the served core, so a
        # core with two buffered write-backs could drain both ahead of
        # another core's waiting request — two slots where the shared-WB
        # bound (wcl_miss_shared_wb) budgets one per competing core.
        arb = RROFArbiter(2)
        wb_first = wb(0, 1)
        wb_second = wb(0, 2)
        transfer = data(1, 3)
        granted = arb.decide(0, table(transfer), [wb_first, wb_second])
        assert granted is wb_first  # core 0's turn
        arb.on_writeback_completed(0)
        assert arb.order == [1, 0]
        # Core 1's pending transfer now precedes core 0's second write-back.
        assert arb.decide(1, table(transfer), [wb_second]) is transfer

    def test_per_core_priority_data_over_broadcast_over_wb(self):
        # A core has one request at most, so its data transfer or its
        # broadcast goes before its write-backs, even older ones.
        arb = RROFArbiter(1)
        assert arb.decide(0, table(data(0, 3)), [wb(0, 1)]).req_id == 3
        assert arb.decide(0, table(broadcast(0, 2)), [wb(0, 1)]).req_id == 2
        assert arb.decide(0, table(stalled(0, 2)), [wb(0, 1)]).seq == 1

    def test_empty_jobs(self):
        arb = RROFArbiter(2)
        assert arb.decide(0, {}, ()) is None
        assert arb.decide(0, table(stalled(0, 1)), ()) is None
        assert arb.wake_at is None


class TestRoundRobin:
    def test_rotates_on_every_grant(self):
        arb = RoundRobinArbiter(2)
        requests = table(broadcast(0, 1), broadcast(1, 2))
        assert arb.decide(0, requests, ()).core_id == 0
        assert arb.decide(1, requests, ()).core_id == 1
        assert arb.decide(2, requests, ()).core_id == 0


class TestFCFS:
    def test_grants_lowest_seq(self):
        arb = FCFSArbiter(3)
        requests = table(broadcast(2, 7), data(0, 9), broadcast(1, 3))
        assert arb.decide(0, requests, ()).req_id == 3

    def test_write_backs_compete_by_age(self):
        arb = FCFSArbiter(3)
        requests = table(broadcast(2, 7), stalled(1, 3))
        assert arb.decide(0, requests, [wb(0, 5), wb(1, 8)]).seq == 5
        assert arb.decide(0, requests, [wb(1, 8)]).req_id == 7


class TestTDM:
    def make(self):
        # Critical cores 0 and 1, slot width 10.
        return TDMArbiter(4, critical_cores=[0, 1], slot_width=10)

    def test_rejects_empty_critical_set(self):
        with pytest.raises(ValueError):
            TDMArbiter(2, critical_cores=[], slot_width=10)

    def test_slot_ownership_cycles(self):
        arb = self.make()
        assert arb.slot_owner(0) == 0
        assert arb.slot_owner(10) == 1
        assert arb.slot_owner(20) == 0
        assert arb.slot_owner(15) == 1

    def test_waits_for_slot_boundary(self):
        arb = self.make()
        assert arb.decide(3, table(broadcast(0, 1)), ()) is None
        assert arb.wake_at == 10

    def test_grants_slot_owner_at_boundary(self):
        arb = self.make()
        requests = table(broadcast(0, 1), broadcast(1, 2))
        assert arb.decide(0, requests, ()).core_id == 0
        assert arb.decide(10, requests, ()).core_id == 1

    def test_idle_slot_when_owner_not_ready_but_cr_busy(self):
        """PENDULUM's wasted slots: owner has nothing, another Cr core waits."""
        arb = self.make()
        requests = table(broadcast(1, 2), broadcast(2, 3))
        assert arb.decide(0, requests, ()) is None  # slot owner 0 idle
        assert arb.wake_at == 10

    def test_ncr_served_only_when_no_cr_outstanding(self):
        arb = self.make()
        ncr = [broadcast(2, 5), broadcast(3, 6)]
        # Some critical core still has an outstanding request: starve nCr.
        assert arb.decide(0, table(stalled(1, 4), *ncr), ()) is None
        # No critical requests at all: nCr gets the slack, round-robin.
        assert arb.decide(10, table(*ncr), ()).core_id == 2
        assert arb.decide(20, table(*ncr), ()).core_id == 3

    def test_ncr_transfers_run_in_idle_slots_while_cr_busy(self):
        """Only nCr *broadcasts* are gated: a data transfer or a write-back
        of a non-critical core still takes an idle slot."""
        arb = self.make()
        cr_waiting = stalled(1, 1)
        assert arb.decide(0, table(cr_waiting, data(2, 2)), ()).core_id == 2
        assert arb.decide(
            10, table(cr_waiting, broadcast(3, 3)), [wb(3, 4)]
        ).seq == 4

    def test_no_wake_without_grantable_work(self):
        arb = self.make()
        assert arb.decide(3, table(stalled(0, 1)), ()) is None
        assert arb.wake_at is None

    def test_next_boundary(self):
        arb = self.make()
        assert arb.next_boundary(0) == 10
        assert arb.next_boundary(9) == 10
        assert arb.next_boundary(10) == 20


class TestBuildArbiter:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            (ArbiterKind.RROF, RROFArbiter),
            (ArbiterKind.ROUND_ROBIN, RoundRobinArbiter),
            (ArbiterKind.FCFS, FCFSArbiter),
        ],
    )
    def test_builds_kind(self, kind, cls):
        cfg = cohort_config([10, 10], arbiter=kind)
        assert isinstance(build_arbiter(cfg), cls)

    def test_builds_tdm_with_critical_cores(self):
        cfg = pendulum_config([True, False, True, False])
        arb = build_arbiter(cfg)
        assert isinstance(arb, TDMArbiter)
        assert arb.critical_cores == [0, 2]
        assert arb.slot_width == cfg.latencies.slot_width

    def test_tdm_all_ncr_falls_back_to_all_cores(self):
        cfg = SimConfig(num_cores=2, arbiter=ArbiterKind.TDM)
        arb = build_arbiter(cfg)
        assert arb.critical_cores == [0, 1]
