"""Tests for the Message Handler's poll loop as plain kernel callbacks.

One cycle is ``_poll`` -> POST ``/request_denm`` -> response callback
-> sleep -> wake-up hop -> ``_poll``.  With a jitter-free HTTP hop
(1 ms each way, 2 ms of service) a cycle takes exactly 4 ms plus the
poll interval, so poll counts and event times below are exact.
"""

import math

import numpy as np
import pytest

from repro.obs import ObsContext
from repro.openc2x.http import HttpConfig, HttpServer
from repro.sim import RandomStreams, Simulator
from repro.sim.kernel import build_simulator
from repro.vehicle import MessageHandler

FIXED = HttpConfig(latency_mean=1e-3, latency_std=0.0,
                   service_mean=2e-3, service_std=0.0)
RTT = 4e-3
INTERVAL = 0.05


class Planner:
    def __init__(self):
        self.stopped = []
        self.resumed = 0

    def emergency_stop(self, reason="denm"):
        self.stopped.append(reason)

    def resume(self):
        self.resumed += 1


def build(sim=None, poll_interval=INTERVAL, **kwargs):
    sim = sim or Simulator()
    server = HttpServer(sim, np.random.default_rng(1), "obu", FIXED)
    pending = []

    def request_denm(_body):
        if pending:
            return 200, {"denm": pending.pop(0)}
        return 200, {}

    server.route("/request_denm", request_denm)
    planner = Planner()
    handler = MessageHandler(sim, server, planner,
                             rng=np.random.default_rng(2),
                             poll_interval=poll_interval, **kwargs)
    return sim, server, pending, planner, handler


def expected_polls(horizon, interval=INTERVAL, start=0.0):
    return math.floor((horizon - start) / (interval + RTT)) + 1


# ---------------------------------------------------------------------------
# Cadence and event order
# ---------------------------------------------------------------------------


def test_one_cycle_event_times():
    sim, server, pending, planner, handler = build()
    sim.schedule_at(1e-4, handler.stop)
    times = []
    while sim.step():
        times.append(sim.now)
    # poll, stop, submit, server finish, response, callback hop,
    # sleep expiry, wake-up hop, stale request timeout.
    assert times == pytest.approx([
        0.0, 1e-4, 1e-3, 3e-3, 4e-3, 4e-3,
        4e-3 + INTERVAL, 4e-3 + INTERVAL, handler.REQUEST_TIMEOUT])
    assert handler.polls == 1


def test_steady_poll_count_is_exact():
    sim, server, pending, planner, handler = build()
    sim.run_until(1.0)
    assert handler.polls == expected_polls(1.0) == 19
    assert server.requests_served == 19


@pytest.mark.parametrize("interval", [0.01, 0.05, 0.1])
def test_poll_interval_sets_cadence(interval):
    sim, server, pending, planner, handler = build(poll_interval=interval)
    sim.run_until(1.0)
    assert handler.polls == expected_polls(1.0, interval)


@pytest.mark.parametrize("policy", ["fifo", "lifo", "seeded"])
def test_poll_schedule_independent_of_tie_break(policy):
    sim = build_simulator(policy, RandomStreams(5))
    sim, server, pending, planner, handler = build(sim)
    sim.run_until(1.0)
    assert handler.polls == expected_polls(1.0)


# ---------------------------------------------------------------------------
# start / stop
# ---------------------------------------------------------------------------


def test_disabled_handler_does_not_poll():
    sim, server, pending, planner, handler = build(enabled=False)
    sim.run_until(1.0)
    assert handler.polls == 0
    assert sim.peek() == float("inf")


def test_start_after_disabled_begins_polling():
    sim, server, pending, planner, handler = build(enabled=False)
    sim.schedule_at(0.2, handler.start)
    sim.run_until(1.0)
    assert handler.polls == expected_polls(1.0, start=0.2)


def test_start_is_idempotent():
    sim, server, pending, planner, handler = build()
    sim.schedule_at(0.2, handler.start)
    sim.schedule_at(0.2, handler.start)
    sim.run_until(1.0)
    assert handler.polls == expected_polls(1.0)


@pytest.mark.parametrize("stop_at,start_at", [
    (1e-4, 2e-3),     # both while the request is in flight
    (5e-3, 0.03),     # both during the sleep
    (2e-3, 0.03),     # stop in flight, start during the sleep
    (0.101, 0.101),   # same instant
])
def test_restart_within_one_cycle_resumes_the_same_loop(stop_at, start_at):
    sim, server, pending, planner, handler = build()
    sim.schedule_at(stop_at, handler.stop)
    sim.schedule_at(start_at, handler.start)
    sim.run_until(1.0)
    assert handler.polls == expected_polls(1.0)


def test_restart_after_loop_ended_starts_a_new_loop():
    sim, server, pending, planner, handler = build()
    sim.schedule_at(0.01, handler.stop)
    sim.schedule_at(0.2, handler.start)
    sim.run_until(1.0)
    # One poll before the stop, then a fresh cadence from t=0.2.
    assert handler.polls == 1 + expected_polls(1.0, start=0.2)


def test_stop_lets_in_flight_request_complete():
    sim, server, pending, planner, handler = build()
    pending.append({"termination": None})
    sim.schedule_at(1e-4, handler.stop)
    sim.run()
    assert handler.polls == 1
    assert planner.stopped == ["denm"]


# ---------------------------------------------------------------------------
# Timeouts and backoff
# ---------------------------------------------------------------------------


def retries(handler):
    events = []
    handler.on_event(lambda event, record: events.append(
        (record["sim_time"], record["attempt"], record["backoff"]))
        if event == "poll_retry" else None)
    return events


def test_backoff_doubles_up_to_cap():
    sim, server, pending, planner, handler = build()
    server.online = False
    events = retries(handler)
    sim.run_until(5.0)
    timeout = handler.REQUEST_TIMEOUT
    backoffs = [0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.2, 0.2]
    expected, now = [], 0.0
    for attempt, backoff in enumerate(backoffs, start=1):
        now += timeout
        expected.append((now, attempt, backoff))
        now += backoff
    assert len(events) == len(expected)
    for got, want in zip(events, expected):
        assert got == pytest.approx(want)
    assert handler.timeouts == handler.retries == len(expected)


def test_offline_polls_are_all_dropped():
    sim, server, pending, planner, handler = build()
    server.online = False
    sim.run_until(5.0)
    assert server.requests_dropped == handler.polls
    assert server.requests_served == 0


def test_backoff_resets_after_a_successful_poll():
    sim, server, pending, planner, handler = build()
    server.online = False
    events = retries(handler)
    sim.schedule_at(1.2, lambda: setattr(server, "online", True))
    sim.schedule_at(2.0, lambda: setattr(server, "online", False))
    sim.run_until(3.0)
    attempts = [attempt for _, attempt, _ in events]
    assert attempts[:2] == [1, 2]
    assert 1 in attempts[2:]
    first_after_outage = next(e for e in events if e[0] > 2.0)
    assert first_after_outage[1:] == (1, pytest.approx(0.005))


def test_recovered_obu_is_polled_at_the_regular_cadence():
    sim, server, pending, planner, handler = build()
    server.online = False
    # Back online after the first timeout, before the retry lands.
    sim.schedule_at(0.502, lambda: setattr(server, "online", True))
    sim.run_until(3.0)
    # One lost poll, then steady polling from the first retry.
    assert handler.timeouts == 1
    first_retry = handler.REQUEST_TIMEOUT + handler.RETRY_BACKOFF_INITIAL
    assert handler.polls == 1 + expected_polls(3.0, start=first_retry)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_obs_counts_polls_and_timeouts():
    sim = Simulator()
    ctx = ObsContext().bind(sim)
    sim, server, pending, planner, handler = build(sim)
    server.online = False
    sim.schedule_at(1.2, lambda: setattr(server, "online", True))
    sim.schedule_at(2.0, handler.stop)
    sim.run()
    metrics = ctx.metrics
    resolved = metrics.counter("obu.polls", device="message-handler")
    timeouts = metrics.counter("obu.poll_timeouts",
                               device="message-handler")
    assert timeouts.value == handler.timeouts == 3
    # Every issued poll resolved, by a response or a timeout.
    assert resolved.value == handler.polls


def test_obs_poll_span_covers_round_trip():
    sim = Simulator()
    ctx = ObsContext().bind(sim)
    sim, server, pending, planner, handler = build(sim)
    sim.schedule_at(1e-4, handler.stop)
    sim.run()
    stats = ctx.spans.stats()["obu.poll"]
    assert stats.count == 1
    assert stats.total == pytest.approx(RTT)


# ---------------------------------------------------------------------------
# DENM handling
# ---------------------------------------------------------------------------


def test_denm_hook_receives_record():
    sim, server, pending, planner, handler = build()
    seen = []
    handler.on_event(lambda event, record: seen.append((event, record)))
    denm = {"situation": {"causeCode": 97}, "termination": None}
    sim.schedule_at(0.3, lambda: pending.append(denm))
    sim.run_until(1.0)
    handled = [record for event, record in seen if event == "denm_handled"]
    assert len(handled) == 1
    assert handled[0]["denm"] == denm
    assert 0.3 < handled[0]["sim_time"] < 0.3 + INTERVAL + 2 * RTT
    assert handler.last_denm == denm


def test_resume_on_termination_resumes_planner():
    sim, server, pending, planner, handler = build(
        resume_on_termination=True)
    pending.append({"termination": None})
    sim.schedule_at(0.3, lambda: pending.append(
        {"termination": "isCancellation"}))
    sim.run_until(1.0)
    assert planner.stopped == ["denm"]
    assert planner.resumed == 1
    assert handler.denms_handled == 2


def test_termination_without_resume_flag_keeps_planner_stopped():
    sim, server, pending, planner, handler = build()
    pending.append({"termination": None})
    sim.schedule_at(0.3, lambda: pending.append(
        {"termination": "isCancellation"}))
    sim.run_until(1.0)
    assert planner.stopped == ["denm"]
    assert planner.resumed == 0


def test_server_error_keeps_polling():
    sim, server, pending, planner, handler = build()

    def broken(_body):
        raise RuntimeError("OBU bug")

    server.route("/request_denm", broken)
    sim.run_until(1.0)
    assert handler.polls == expected_polls(1.0)
    assert handler.denms_handled == 0
    assert handler.timeouts == 0


def test_hook_exception_propagates_out_of_run():
    sim, server, pending, planner, handler = build()

    def broken_hook(event, record):
        raise KeyError(event)

    handler.on_event(broken_hook)
    sim.schedule_at(0.3, lambda: pending.append({"termination": None}))
    with pytest.raises(KeyError, match="denm_handled"):
        sim.run_until(1.0)
    assert 0.3 < sim.now < 0.3 + INTERVAL + 2 * RTT
