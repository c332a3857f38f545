"""Tests for the callback contract of :meth:`HttpClient.post`.

A POST resolves through its callback only: a response or a timeout,
whichever comes first, exactly once, each delivered in its own
zero-delay kernel event.
"""

import numpy as np
import pytest

from repro.obs import ObsContext
from repro.obs.metrics import MetricsRegistry
from repro.openc2x.http import HttpClient, HttpConfig, HttpServer
from repro.sim import Simulator

#: Jitter-free hop: 1 ms each way, 2 ms of service.
FIXED = HttpConfig(latency_mean=1e-3, latency_std=0.0,
                   service_mean=2e-3, service_std=0.0)


def build(config=FIXED):
    sim = Simulator()
    server = HttpServer(sim, np.random.default_rng(1), "srv", config)
    client = HttpClient(sim, np.random.default_rng(2))
    server.route("/x", lambda body: (200, {"echo": body}))
    return sim, server, client


def step_times(sim):
    times = []
    while sim.step():
        times.append(sim.now)
    return times


def test_post_returns_none():
    sim, server, client = build()
    assert client.post(server, "/x", callback=lambda r: None) is None
    assert client.post(server, "/x", timeout=1.0) is None
    sim.run()


def test_callback_runs_in_its_own_zero_delay_event():
    sim, server, client = build()
    got = []
    client.post(server, "/x", callback=lambda r: got.append(sim.now))
    # submit, server finish, response arrival, then the callback hop.
    assert step_times(sim) == pytest.approx([1e-3, 3e-3, 4e-3, 4e-3])
    assert got == pytest.approx([4e-3])


def test_post_without_callback_is_still_served():
    sim, server, client = build()
    client.post(server, "/x", {"a": 1})
    sim.run()
    assert server.requests_served == 1


def test_default_body_is_empty_dict():
    sim, server, client = build()
    got = []
    client.post(server, "/x", callback=got.append)
    sim.run()
    assert got[0].body == {"echo": {}}


def test_body_reaches_handler():
    sim, server, client = build()
    got = []
    client.post(server, "/x", {"k": [1, 2]}, callback=got.append)
    sim.run()
    assert got[0].body == {"echo": {"k": [1, 2]}}


def test_response_before_timeout_resolves_once():
    sim, server, client = build()
    got = []
    client.post(server, "/x", callback=got.append, timeout=1.0)
    sim.run()
    assert [r.status for r in got] == [200]
    assert sim.now == pytest.approx(1.0)  # the stale timeout still ran


def test_late_response_after_timeout_is_ignored():
    slow = HttpConfig(latency_mean=1e-3, latency_std=0.0,
                      service_mean=0.1, service_std=0.0)
    sim, server, client = build(slow)
    got = []
    client.post(server, "/x", callback=got.append, timeout=0.01)
    sim.run()
    assert [r.status for r in got] == [client.TIMEOUT_STATUS]
    assert server.requests_served == 1


def test_offline_server_times_out():
    sim, server, client = build()
    server.online = False
    got = []
    client.post(server, "/x", callback=got.append, timeout=0.25)
    sim.run()
    assert len(got) == 1
    assert got[0].status == client.TIMEOUT_STATUS
    assert got[0].body == {"error": "timeout"}
    assert not got[0].ok
    assert server.requests_dropped == 1


def test_timeout_response_timestamps():
    sim, server, client = build()
    server.online = False
    sim.run_until(2.0)
    got = []
    client.post(server, "/x", callback=got.append, timeout=0.25)
    sim.run()
    assert got[0].requested_at == pytest.approx(2.0)
    assert got[0].responded_at == pytest.approx(2.25)
    assert got[0].round_trip == pytest.approx(0.25)


def test_offline_server_without_timeout_stays_silent():
    sim, server, client = build()
    server.online = False
    got = []
    client.post(server, "/x", callback=got.append)
    sim.run()
    assert got == []
    assert sim.peek() == float("inf")


def test_zero_timeout_beats_any_response():
    sim, server, client = build()
    got = []
    client.post(server, "/x", callback=got.append, timeout=0.0)
    sim.run()
    assert [r.status for r in got] == [client.TIMEOUT_STATUS]
    assert got[0].responded_at == 0.0


def test_requests_sent_counts_lost_requests_too():
    lossy = HttpConfig(drop_probability=1.0)
    sim, server, client = build(lossy)
    for _ in range(3):
        client.post(server, "/x", timeout=0.1)
    sim.run()
    assert client.requests_sent == 3
    assert server.requests_served == 0


def test_concurrent_requests_resolve_independently():
    sim, online, client = build()
    offline = HttpServer(sim, np.random.default_rng(3), "dead", FIXED)
    offline.online = False
    got = []
    client.post(offline, "/x", callback=lambda r: got.append(
        ("dead", r.status)), timeout=0.05)
    client.post(online, "/x", callback=lambda r: got.append(
        ("live", r.status)), timeout=0.05)
    sim.run()
    assert got == [("live", 200), ("dead", client.TIMEOUT_STATUS)]


def test_callback_exception_propagates_out_of_run():
    sim, server, client = build()

    def explode(_response):
        raise ValueError("callback failed")

    client.post(server, "/x", callback=explode)
    with pytest.raises(ValueError, match="callback failed"):
        sim.run()
    assert sim.now == pytest.approx(4e-3)


def test_timeout_callback_exception_propagates_out_of_run():
    sim, server, client = build()
    server.online = False

    def explode(_response):
        raise ValueError("timeout handler failed")

    client.post(server, "/x", callback=explode, timeout=0.3)
    with pytest.raises(ValueError, match="timeout handler failed"):
        sim.run()
    assert sim.now == pytest.approx(0.3)


def test_same_seeds_same_timing():
    def run_once():
        sim = Simulator()
        server = HttpServer(sim, np.random.default_rng(11), "srv")
        client = HttpClient(sim, np.random.default_rng(12))
        server.route("/x", lambda body: (200, {}))
        got = []
        for _ in range(5):
            client.post(server, "/x", callback=got.append, timeout=0.1)
        sim.run()
        return [r.responded_at for r in got]

    first = run_once()
    assert len(first) == 5
    assert first == run_once()


def test_served_status_label_hits_the_handle_cache(monkeypatch):
    sim, server, client = build()
    sim.obs = ObsContext()
    resolved = []
    original = MetricsRegistry._resolve

    def counting(self, kind, name, labels, buckets):
        resolved.append(name)
        return original(self, kind, name, labels, buckets)

    monkeypatch.setattr(MetricsRegistry, "_resolve", counting)
    client.post(server, "/x")
    client.post(server, "/x")
    sim.run()
    assert resolved.count("http.requests_served") == 1
    served = sim.obs.metrics.counter("http.requests_served",
                                     device="srv", status="200")
    assert served.value == 2.0
