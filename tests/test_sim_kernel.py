"""Unit tests for the discrete-event kernel."""

import math

import pytest

from repro.sim import Simulator, SimulationError


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, lambda: order.append("b"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_preserves_insertion_order():
    sim = Simulator()
    order = []
    for tag in "abcde":
        sim.schedule(1.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == list("abcde")


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(4.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.5]
    assert sim.now == 4.5


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_nan_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_sets_final_time():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until(10.0)
    assert sim.now == 10.0


def test_run_until_does_not_run_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(5.0))
    sim.schedule(15.0, lambda: fired.append(15.0))
    sim.run_until(10.0)
    assert fired == [5.0]
    sim.run_until(20.0)
    assert fired == [5.0, 15.0]


def test_settled_marks_every_event_due_as_run():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(sim.settled))
    assert sim.settled == -math.inf
    sim.run_until(1.0)
    # Inside the event at 1.0 the kernel had not settled 1.0 yet.
    assert seen == [-math.inf] and sim.settled == 1.0
    sim.schedule(0.0, sim.stop)
    sim.schedule(0.5, lambda: None)
    sim.run_until(2.0)
    assert (sim.now, sim.settled) == (1.0, 1.0)   # stopped: unchanged
    sim.run()
    assert (sim.now, sim.settled) == (1.5, 1.5)   # drained


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.run_until(1.0)


def test_nested_scheduling():
    sim = Simulator()
    times = []

    def outer():
        times.append(sim.now)
        sim.schedule(1.0, inner)

    def inner():
        times.append(sim.now)

    sim.schedule(1.0, outer)
    sim.run()
    assert times == [1.0, 2.0]


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [(1, None)] or fired == [1]
    # The later event is still queued and runs on the next run().
    sim.run()
    assert 2 in fired


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert math.isinf(sim.peek())
    sim.schedule(3.0, lambda: None)
    assert sim.peek() == 3.0


def test_livelock_guard():
    sim = Simulator()

    def rearm():
        sim.schedule(0.0, rearm)

    sim.schedule(0.0, rearm)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_determinism_across_instances():
    def build_and_run():
        sim = Simulator()
        trace = []
        for i in range(50):
            sim.schedule(((i * 7919) % 100) / 10.0,
                         lambda i=i: trace.append((sim.now, i)))
        sim.run()
        return trace

    assert build_and_run() == build_and_run()
