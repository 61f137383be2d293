"""Unit tests for the unified event bus (repro.sim.events)."""

import pytest

from repro.params import cohort_config, pendulum_config
from repro.runner import stats_to_dict
from repro.sim.debug import ProtocolTracer
from repro.sim.events import (
    EVENT_KINDS,
    LAYER_OF,
    EventBus,
)
from repro.sim.kernel import EventKernel
from repro.sim.system import System
from repro.workloads import splash_traces

from conftest import t


class Recorder:
    def __init__(self):
        self.seen = []

    def __call__(self, cycle, kind, payload):
        self.seen.append((cycle, kind, dict(payload)))


def make_bus():
    return EventBus(EventKernel())


class TestSubscriptions:
    def test_subscribe_all_receives_everything(self):
        bus = make_bus()
        rec = bus.subscribe(Recorder())
        bus.emit("miss", core=0)
        bus.emit("grant", core=1)
        assert [(k, p) for _, k, p in rec.seen] == [
            ("miss", {"core": 0}),
            ("grant", {"core": 1}),
        ]

    def test_by_kind_subscription_filters(self):
        bus = make_bus()
        rec = bus.subscribe(Recorder(), kinds=("grant",))
        bus.emit("miss", core=0)
        bus.emit("grant", core=1)
        assert [k for _, k, _ in rec.seen] == ["grant"]

    def test_by_kind_listeners_notified_before_subscribe_all(self):
        bus = make_bus()
        order = []
        bus.subscribe(lambda c, k, p: order.append("all"))
        bus.subscribe(lambda c, k, p: order.append("by_kind"), kinds=("fill",))
        bus.emit("fill", core=0)
        assert order == ["by_kind", "all"]

    def test_unsubscribe_removes_every_registration(self):
        bus = make_bus()
        rec = Recorder()
        bus.subscribe(rec)
        bus.subscribe(rec, kinds=("fill", "grant"))
        bus.unsubscribe(rec)
        bus.emit("fill", core=0)
        bus.emit("grant", core=0)
        assert rec.seen == []

    def test_listener_may_unsubscribe_itself_mid_event(self):
        """Regression: emit iterates a snapshot, so a subscriber that
        unsubscribes itself (one-shot listener) must not silence other
        listeners of the same event or corrupt the iteration."""
        bus = make_bus()
        seen = []

        def one_shot(cycle, kind, payload):
            seen.append(("one_shot", kind))
            bus.unsubscribe(one_shot)

        bus.subscribe(one_shot)
        after = bus.subscribe(Recorder())
        bus.emit("fill", core=0)
        bus.emit("fill", core=1)
        assert seen == [("one_shot", "fill")]
        assert [p["core"] for _, _, p in after.seen] == [0, 1]

    def test_by_kind_listener_may_unsubscribe_itself_mid_event(self):
        bus = make_bus()
        seen = []

        def one_shot(cycle, kind, payload):
            seen.append(kind)
            bus.unsubscribe(one_shot)

        bus.subscribe(one_shot, kinds=("fill",))
        rest = bus.subscribe(Recorder(), kinds=("fill",))
        bus.emit("fill", core=0)
        bus.emit("fill", core=1)
        assert seen == ["fill"]
        assert len(rest.seen) == 2

    def test_listener_may_subscribe_another_mid_event(self):
        """A listener attaching a new listener mid-event must not make
        the new one see the *current* event."""
        bus = make_bus()
        late = Recorder()

        def attacher(cycle, kind, payload):
            if not late.seen and late not in bus.listeners:
                bus.subscribe(late)

        bus.subscribe(attacher)
        bus.emit("fill", core=0)
        bus.emit("grant", core=1)
        assert [k for _, k, _ in late.seen] == ["grant"]

    def test_events_stamp_current_kernel_cycle(self):
        kernel = EventKernel()
        bus = EventBus(kernel)
        rec = bus.subscribe(Recorder())
        kernel.schedule(7, 0, lambda: bus.emit("fill", core=0))
        kernel.run(max_cycles=100)
        assert rec.seen == [(7, "fill", {"core": 0})]


class TestHotFlag:
    def test_idle_bus_is_cold(self):
        assert not make_bus().hot

    def test_subscribe_all_heats(self):
        bus = make_bus()
        rec = bus.subscribe(Recorder())
        assert bus.hot
        bus.unsubscribe(rec)
        assert not bus.hot

    def test_hit_by_kind_heats_other_kinds_do_not(self):
        bus = make_bus()
        rec = bus.subscribe(Recorder(), kinds=("grant",))
        assert not bus.hot
        bus.subscribe(rec, kinds=("hit",))
        assert bus.hot
        bus.unsubscribe(rec)
        assert not bus.hot

    def test_legacy_listeners_append_heats(self):
        """The pre-bus ``system.listeners.append(tracer)`` idiom."""
        bus = make_bus()
        rec = Recorder()
        bus.listeners.append(rec)
        assert bus.hot
        bus.listeners.remove(rec)
        assert not bus.hot
        bus.listeners.append(rec)
        bus.listeners.clear()
        assert not bus.hot


class TestCountsAndLayers:
    def test_counts_tally_without_subscribers(self):
        bus = make_bus()
        bus.emit("grant", core=0)
        bus.emit("grant", core=1)
        bus.emit("fill", core=0)
        assert bus.counts == {"grant": 2, "fill": 1}

    def test_every_stock_kind_has_a_layer(self):
        assert set(EVENT_KINDS) == set(LAYER_OF)
        assert set(LAYER_OF.values()) == {
            "core",
            "bus",
            "protocol",
            "backend",
            "system",
            "fault",
        }

    def test_layer_counts_aggregate(self):
        bus = make_bus()
        bus.emit("miss", core=0)
        bus.emit("grant", core=0)
        bus.emit("fill", core=0)
        bus.emit("timer_expiry", core=0)
        bus.emit("custom_kind")
        assert bus.layer_counts() == {
            "core": 1,
            "bus": 1,
            "protocol": 2,
            "other": 1,
        }


class TestSystemIntegration:
    def test_system_publishes_layer_counts(self):
        traces = splash_traces("ocean", 4, scale=0.25, seed=0)
        system = System(cohort_config([60] * 4), traces)
        stats = system.run()
        layers = stats.layer_counts()
        assert layers["core"] > 0  # misses
        assert layers["bus"] > 0  # grants
        assert layers["protocol"] > 0  # fills (+ expiries)

    def test_hit_events_materialise_only_when_hot(self):
        traces = [t([(0, "R", 0), (1, "R", 0), (1, "R", 0)])]
        cold = System(cohort_config([60]), traces)
        cold_stats = cold.run()
        assert cold_stats.core(0).hits > 0
        assert "hit" not in cold.events.counts

        hot = System(cohort_config([60]), traces)
        rec = hot.events.subscribe(Recorder())
        hot_stats = hot.run()
        hit_events = [e for e in rec.seen if e[1] == "hit"]
        assert len(hit_events) == hot_stats.core(0).hits
        assert hot.events.counts["hit"] == hot_stats.core(0).hits


class TestMissPathEmissionGate:
    """``miss``/``grant``/``fill`` payloads are built only for listeners,
    yet every event is counted and the run is the same either way."""

    #: The payload keys each gated kind carries.
    PAYLOAD_KEYS = {
        "miss": {"core", "line", "req_kind", "req_id"},
        "grant": {"job", "core", "line", "duration", "until"},
        "fill": {"core", "line", "req_kind", "latency", "upgrade", "source"},
    }

    CONFIGS = {
        "cohort": lambda: cohort_config([20, 60, -1, 300], wb_on_bus=True),
        "pendulum": lambda: pendulum_config([True, True, False, False]),
    }

    @staticmethod
    def run(make_config, attach):
        traces = splash_traces("fft", 4, scale=0.3, seed=1)
        system = System(make_config(), traces)
        listener = attach(system)
        return system, stats_to_dict(system.run()), listener

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_listeners_see_every_counted_event(self, name):
        make_config = self.CONFIGS[name]

        def by_kind(system):
            recorders = {kind: Recorder() for kind in self.PAYLOAD_KEYS}
            for kind, rec in recorders.items():
                system.events.subscribe(rec, kinds=(kind,))
            return recorders

        quiet, quiet_stats, _ = self.run(make_config, lambda s: None)
        keyed, keyed_stats, recorders = self.run(make_config, by_kind)
        traced, traced_stats, tracer = self.run(
            make_config, ProtocolTracer.attach
        )

        assert keyed_stats == quiet_stats
        assert traced_stats == quiet_stats
        assert keyed.stats.layer_counts() == quiet.stats.layer_counts()
        # A subscribe-all listener also materialises (and so counts) the
        # per-access hit events; every other count is the same.
        traced_counts = dict(traced.events.counts)
        assert traced_counts.pop("hit") == sum(
            core["hits"] for core in quiet_stats["cores"]
        )
        assert traced_counts == quiet.events.counts

        for kind, keys in self.PAYLOAD_KEYS.items():
            count = quiet.events.counts[kind]
            assert count > 0
            seen = recorders[kind].seen
            assert len(seen) == count
            assert all(set(payload) == keys for _, _, payload in seen)
            traced_kind = [e for e in tracer.events if e.kind == kind]
            assert len(traced_kind) == count
            assert all(set(e.payload) == keys for e in traced_kind)
