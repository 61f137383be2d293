"""Unit tests for the event kernel (repro.sim.kernel)."""

import pytest

from repro.sim.kernel import (
    PHASE_ARBITRATE,
    PHASE_CORE,
    PHASE_EFFECT,
    EventKernel,
    SimulationLimitError,
)


class TestEventKernel:
    def test_runs_in_cycle_order(self):
        k = EventKernel()
        log = []
        k.schedule(5, PHASE_EFFECT, lambda: log.append(5))
        k.schedule(1, PHASE_EFFECT, lambda: log.append(1))
        k.schedule(3, PHASE_EFFECT, lambda: log.append(3))
        k.run(100)
        assert log == [1, 3, 5]

    def test_phase_order_within_cycle(self):
        k = EventKernel()
        log = []
        k.schedule(2, PHASE_ARBITRATE, lambda: log.append("arb"))
        k.schedule(2, PHASE_CORE, lambda: log.append("core"))
        k.schedule(2, PHASE_EFFECT, lambda: log.append("effect"))
        k.run(100)
        assert log == ["effect", "core", "arb"]

    def test_fifo_within_same_cycle_and_phase(self):
        k = EventKernel()
        log = []
        for i in range(5):
            k.schedule(1, PHASE_CORE, lambda i=i: log.append(i))
        k.run(100)
        assert log == [0, 1, 2, 3, 4]

    def test_events_can_schedule_events(self):
        k = EventKernel()
        log = []

        def first():
            log.append("first")
            k.schedule(k.now + 2, PHASE_EFFECT, lambda: log.append("second"))

        k.schedule(1, PHASE_EFFECT, first)
        final = k.run(100)
        assert log == ["first", "second"]
        assert final == 3

    def test_cannot_schedule_in_the_past(self):
        k = EventKernel()
        k.schedule(5, PHASE_EFFECT, lambda: None)
        k.run(100)
        with pytest.raises(ValueError):
            k.schedule(2, PHASE_EFFECT, lambda: None)

    def test_stop_stops_processing(self):
        k = EventKernel()
        log = []

        def first():
            log.append(1)
            k.stop()

        k.schedule(1, PHASE_EFFECT, first)
        k.schedule(2, PHASE_EFFECT, lambda: log.append(2))
        assert k.run(100) == 1
        assert log == [1]
        assert k.pending_events == 1

    def test_stop_before_run_processes_nothing_once(self):
        k = EventKernel()
        log = []
        k.schedule(1, PHASE_EFFECT, lambda: log.append(1))
        k.stop()
        k.run(100)
        assert log == []
        k.run(100)  # the stop ended one run, not the kernel
        assert log == [1]

    def test_scheduled_events_counts_every_push(self):
        k = EventKernel()
        k.schedule(1, PHASE_EFFECT, lambda: None)
        k.schedule(1, PHASE_CORE, lambda: None)
        assert k.scheduled_events == 2
        k.run(100)
        assert k.scheduled_events == 2
        assert k.pending_events == 0

    def test_max_cycles_guard(self):
        k = EventKernel()

        def forever():
            k.schedule(k.now + 10, PHASE_EFFECT, forever)

        k.schedule(0, PHASE_EFFECT, forever)
        with pytest.raises(SimulationLimitError):
            k.run(50)

    def test_now_tracks_current_cycle(self):
        k = EventKernel()
        seen = []
        k.schedule(7, PHASE_EFFECT, lambda: seen.append(k.now))
        k.run(100)
        assert seen == [7]
