"""Tests for the discrete-event simulator."""

import pytest

from repro.errors import SimulationError
from repro.engine.simulator import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(0.5, lambda: order.append("late"))
        simulator.schedule(0.1, lambda: order.append("early"))
        simulator.run()
        assert order == ["early", "late"]
        assert simulator.now == pytest.approx(0.5)

    def test_same_time_events_run_in_scheduling_order(self):
        simulator = Simulator()
        order = []
        for index in range(5):
            simulator.schedule(1.0, lambda i=index: order.append(i))
        simulator.run()
        assert order == [0, 1, 2, 3, 4]

    def test_events_can_schedule_more_events(self):
        simulator = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                simulator.schedule(1.0, lambda: chain(depth + 1))

        simulator.schedule(0.0, lambda: chain(0))
        simulator.run()
        assert seen == [0, 1, 2, 3]
        assert simulator.now == pytest.approx(3.0)

    def test_schedule_at_absolute_time(self):
        simulator = Simulator()
        fired = []
        simulator.schedule_at(2.5, lambda: fired.append(simulator.now))
        simulator.run()
        assert fired == [2.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_time_rejected(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.schedule_at(0.5, lambda: None)

    def test_zero_delay_follow_ups_run_after_queued_same_instant_events(self):
        """An event scheduled at the current instant joins the back of that
        instant: everything already queued for it runs first."""
        simulator = Simulator()
        log = []

        def event(name, follow_up=None):
            def fire():
                log.append(name)
                if follow_up is not None:
                    simulator.schedule(0.0, event(follow_up))

            return fire

        simulator.schedule(1.0, event("a1", "a1-follow"))
        simulator.schedule(1.0, event("b1"))
        simulator.schedule(1.0, event("a2", "a2-follow"))
        simulator.schedule(1.0, event("b2"))
        assert simulator.run() == 6
        assert log == ["a1", "b1", "a2", "b2", "a1-follow", "a2-follow"]
        assert (simulator.processed_events, simulator.rounds, simulator.now) == (6, 1, 1.0)

    def test_delay_counts_from_the_scheduling_events_time(self):
        simulator = Simulator()
        times = []
        for _ in range(2):
            simulator.schedule(2.0, lambda: simulator.schedule(1.5, lambda: times.append(simulator.now)))
        simulator.run()
        assert times == [3.5, 3.5]

    def test_schedule_at_the_current_time_runs_in_the_current_round(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, lambda: simulator.schedule_at(simulator.now, lambda: fired.append(simulator.now)))
        simulator.run()
        assert fired == [1.0]
        assert simulator.rounds == 1

    def test_schedule_call_passes_its_argument(self):
        simulator = Simulator()
        received = []
        simulator.schedule_call(0.5, received.append, "payload")
        simulator.schedule_call(0.5, received.append, None)
        simulator.run()
        # ``None`` is a real argument, not the zero-argument marker.
        assert received == ["payload", None]

    def test_every_scheduling_call_shares_one_order(self):
        """``schedule``, ``schedule_call`` and ``schedule_at`` draw from one
        sequence, so same-instant events run in the order they were made."""
        simulator = Simulator()
        order = []
        simulator.schedule_call(1.0, order.append, "call")
        simulator.schedule_at(1.0, lambda: order.append("at"))
        simulator.schedule(1.0, lambda: order.append("plain"))
        simulator.schedule_call(0.5, order.append, "earlier")
        simulator.run()
        assert order == ["earlier", "call", "at", "plain"]

    def test_schedule_call_negative_delay_rejected(self):
        simulator = Simulator()
        with pytest.raises(SimulationError, match="in the past"):
            simulator.schedule_call(-0.1, print, "never")
        assert simulator.pending_events == 0


class TestRunControl:
    def test_run_until_time_leaves_future_events_pending(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))
        simulator.schedule(5.0, lambda: fired.append(5))
        simulator.run(until=2.0)
        assert fired == [1]
        assert simulator.pending_events == 1
        assert simulator.now == pytest.approx(2.0)

    def test_max_events_cap(self):
        simulator = Simulator()
        for _ in range(10):
            simulator.schedule(1.0, lambda: None)
        executed = simulator.run(max_events=4)
        assert executed == 4
        assert simulator.pending_events == 6

    def test_run_to_quiescence_raises_on_runaway(self):
        simulator = Simulator()

        def forever():
            simulator.schedule(0.1, forever)

        simulator.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            simulator.run_to_quiescence(max_events=50)

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_processed_event_counter(self):
        simulator = Simulator()
        simulator.schedule(0.1, lambda: None)
        simulator.schedule(0.2, lambda: None)
        simulator.run()
        assert simulator.processed_events == 2

    def test_raising_event_leaves_later_events_queued(self):
        simulator = Simulator()
        log = []

        def boom():
            raise RuntimeError("boom")

        simulator.schedule(1.0, boom)
        simulator.schedule(1.0, lambda: log.append("after"))
        with pytest.raises(RuntimeError, match="boom"):
            simulator.run()
        assert simulator.pending_events == 1 and log == []
        # The failed run released the loop, so the next one resumes.
        assert simulator.run() == 1
        assert log == ["after"]
        assert (simulator.processed_events, simulator.rounds) == (2, 1)

    def test_run_until_includes_events_at_exactly_that_time(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(2.0, lambda: fired.append(2))
        simulator.schedule(2.5, lambda: fired.append(2.5))
        assert simulator.run(until=2.0) == 1
        assert fired == [2]
        assert simulator.run() == 1
        assert fired == [2, 2.5]
        assert simulator.now == 2.5

    def test_max_events_stops_mid_instant_and_resumes_in_order(self):
        simulator = Simulator()
        log = []
        for index in range(5):
            simulator.schedule(1.0, lambda index=index: log.append(index))
        assert simulator.run(max_events=2) == 2
        assert log == [0, 1]
        assert simulator.pending_events == 3
        assert simulator.run() == 3
        assert log == [0, 1, 2, 3, 4]
        # Both calls ran at one instant, so they share one round.
        assert (simulator.processed_events, simulator.rounds) == (5, 1)

    def test_run_on_an_empty_queue_does_nothing(self):
        simulator = Simulator()
        assert simulator.run() == 0
        assert (simulator.now, simulator.processed_events, simulator.rounds) == (0.0, 0, 0)

    def test_reentrant_run_rejected_and_loop_released(self):
        simulator = Simulator()
        errors = []

        def nested():
            try:
                simulator.run()
            except SimulationError as error:
                errors.append(str(error))

        simulator.schedule(1.0, nested)
        simulator.schedule(2.0, lambda: None)
        assert simulator.run() == 2
        assert errors and "re-entrant" in errors[0]
        # The outer run released the loop on its way out.
        simulator.schedule(1.0, lambda: None)
        assert simulator.run() == 1

    def test_first_raising_event_wins_and_the_next_raises_on_resume(self):
        """Two events at one instant raise: the earlier one in scheduling
        order propagates, the later one is still queued and raises from the
        next run, and the event after both runs on the run after that."""
        simulator = Simulator()
        finished = []

        def fail(error):
            def fire():
                raise error

            return fire

        simulator.schedule(1.0, fail(ValueError("first in sequence")))
        simulator.schedule(1.0, fail(KeyError("second in sequence")))
        simulator.schedule(1.0, lambda: finished.append("c"))
        with pytest.raises(ValueError, match="first in sequence"):
            simulator.run()
        assert finished == [] and simulator.pending_events == 2
        with pytest.raises(KeyError, match="second in sequence"):
            simulator.run()
        assert simulator.run() == 1
        assert finished == ["c"]

    def test_step_runs_exactly_one_event(self):
        simulator = Simulator()
        log = []
        simulator.schedule(1.0, lambda: log.append(1))
        simulator.schedule(3.0, lambda: log.append(3))
        assert simulator.step() is True
        assert (log, simulator.now, simulator.pending_events) == ([1], 1.0, 1)
        assert simulator.step() is True
        assert (log, simulator.now, simulator.pending_events) == ([1, 3], 3.0, 0)
        assert simulator.step() is False

    def test_run_to_quiescence_returns_the_events_it_ran(self):
        simulator = Simulator()
        for delay in (0.1, 0.2, 0.2):
            simulator.schedule(delay, lambda: None)
        assert simulator.run_to_quiescence() == 3
        assert simulator.run_to_quiescence() == 0

    def test_runaway_guard_leaves_the_rest_queued(self):
        """Exceeding the cap stops the loop, not the program: the events
        still queued run when the caller asks again."""
        simulator = Simulator()
        for delay in range(10):
            simulator.schedule(float(delay), lambda: None)
        with pytest.raises(SimulationError, match="did not quiesce within 4 events"):
            simulator.run_to_quiescence(max_events=4)
        assert simulator.pending_events == 6
        assert simulator.run_to_quiescence() == 6

    def test_schedule_accepts_and_ignores_a_key(self):
        """The fourth positional argument of ``schedule`` is kept for
        wrappers written against the older signature; it changes nothing."""
        simulator = Simulator()
        order = []
        simulator.schedule(1.0, lambda: order.append("a"), "first", "k1")
        simulator.schedule(1.0, lambda: order.append("b"), "second", None)
        simulator.run()
        assert order == ["a", "b"]
