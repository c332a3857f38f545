"""Tests for the HTTP façade and the OBU/RSU units."""

import numpy as np
import pytest

from repro.geonet import LocalFrame
from repro.messages import StationType
from repro.net import WirelessMedium
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.openc2x import (
    HttpClient,
    HttpConfig,
    HttpServer,
    OnBoardUnit,
    RoadSideUnit,
)
from repro.sim import NtpModel, RandomStreams, Simulator

FRAME = LocalFrame()


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------


class TestHttp:
    def build(self, config=None):
        sim = Simulator()
        server = HttpServer(sim, np.random.default_rng(1), "srv", config)
        client = HttpClient(sim, np.random.default_rng(2))
        return sim, server, client

    def test_round_trip(self):
        sim, server, client = self.build()
        server.route("/echo", lambda body: (200, {"got": body["x"]}))
        responses = []
        client.post(server, "/echo", {"x": 42},
                    callback=responses.append)
        sim.run()
        assert responses[0].status == 200
        assert responses[0].body == {"got": 42}
        assert responses[0].ok

    def test_latency_charged(self):
        config = HttpConfig(latency_mean=1e-3, latency_std=0.0,
                            service_mean=2e-3, service_std=0.0)
        sim, server, client = self.build(config)
        server.route("/x", lambda body: (200, {}))
        responses = []
        client.post(server, "/x", callback=responses.append)
        sim.run()
        assert responses[0].round_trip == pytest.approx(4e-3, abs=1e-9)

    def test_unknown_route_404(self):
        sim, server, client = self.build()
        responses = []
        client.post(server, "/nope", callback=responses.append)
        sim.run()
        assert responses[0].status == 404
        assert not responses[0].ok

    def test_handler_exception_500(self):
        sim, server, client = self.build()
        def boom(body):
            raise RuntimeError("kaput")
        server.route("/boom", boom)
        responses = []
        client.post(server, "/boom", callback=responses.append)
        sim.run()
        assert responses[0].status == 500
        assert "kaput" in responses[0].body["error"]

    def test_single_worker_fifo(self):
        config = HttpConfig(latency_mean=0.0, latency_std=0.0,
                            service_mean=5e-3, service_std=0.0)
        sim, server, client = self.build(config)
        order = []
        server.route("/a", lambda body: (200, order.append("a") or {}))
        server.route("/b", lambda body: (200, order.append("b") or {}))
        finish = []
        client.post(server, "/a", callback=lambda r: finish.append(
            ("a", sim.now)))
        client.post(server, "/b", callback=lambda r: finish.append(
            ("b", sim.now)))
        sim.run()
        assert order == ["a", "b"]
        # Second request waits for the first's service time.
        assert finish[1][1] == pytest.approx(10e-3, abs=1e-9)


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


def build_units(seed=5):
    sim = Simulator()
    streams = RandomStreams(seed)
    medium = WirelessMedium(sim, streams.seed,
                            LinkBudget(path_loss=LogDistancePathLoss()))
    obu = OnBoardUnit(
        sim, medium, streams, "obu", 101, StationType.PASSENGER_CAR,
        position=lambda: FRAME.to_geo(3.0, 0.0),
        ntp=NtpModel.ideal(), local_frame=FRAME)
    rsu = RoadSideUnit(
        sim, medium, streams, "rsu", 900, StationType.ROAD_SIDE_UNIT,
        position=lambda: FRAME.to_geo(0.0, 0.5),
        ntp=NtpModel.ideal(), is_rsu=True, local_frame=FRAME)
    client = HttpClient(sim, streams.get("client"))
    return sim, obu, rsu, client


def trigger_body(x=1.5, y=0.0, **extra):
    geo = FRAME.to_geo(x, y)
    body = {"causeCode": 97, "subCauseCode": 2,
            "latitude": geo.latitude, "longitude": geo.longitude}
    body.update(extra)
    return body


class TestTriggerDenm:
    def test_trigger_sends_denm_to_obu(self):
        sim, obu, rsu, client = build_units()
        responses = []
        client.post(rsu.http, "/trigger_denm", trigger_body(),
                    callback=responses.append)
        sim.run_until(1.0)
        assert responses[0].status == 200
        assert obu.pending_denm_count == 1

    def test_missing_fields_400(self):
        sim, obu, rsu, client = build_units()
        responses = []
        client.post(rsu.http, "/trigger_denm", {"causeCode": 97},
                    callback=responses.append)
        sim.run_until(1.0)
        assert responses[0].status == 400

    def test_step_events_emitted(self):
        sim, obu, rsu, client = build_units()
        events = []
        rsu.on_event(lambda name, rec: events.append((name, rec)))
        obu.on_event(lambda name, rec: events.append((name, rec)))
        client.post(rsu.http, "/trigger_denm", trigger_body())
        sim.run_until(1.0)
        names = [name for name, _rec in events]
        assert names == ["denm_sent", "denm_received"]
        sent = dict(events)["denm_sent"]
        received = dict(events)["denm_received"]
        # Radio + stack: single-digit milliseconds.
        assert 0 < received["sim_time"] - sent["sim_time"] < 0.01

    def test_repetition_not_requeued(self):
        sim, obu, rsu, client = build_units()
        client.post(rsu.http, "/trigger_denm", trigger_body(
            repetitionInterval=0.1, repetitionDuration=0.5))
        sim.run_until(2.0)
        assert obu.pending_denm_count == 1


class TestRequestDenm:
    def test_empty_poll(self):
        sim, obu, rsu, client = build_units()
        responses = []
        client.post(obu.http, "/request_denm", {},
                    callback=responses.append)
        sim.run_until(1.0)
        assert responses[0].status == 200
        assert responses[0].body == {}
        assert obu.empty_polls == 1

    def test_poll_returns_denm_once(self):
        sim, obu, rsu, client = build_units()
        client.post(rsu.http, "/trigger_denm", trigger_body())
        responses = []
        sim.schedule(0.5, lambda: client.post(
            obu.http, "/request_denm", {}, callback=responses.append))
        sim.schedule(0.8, lambda: client.post(
            obu.http, "/request_denm", {}, callback=responses.append))
        sim.run_until(2.0)
        first, second = responses
        assert "denm" in first.body
        assert first.body["denm"]["situation"]["causeCode"] == 97
        assert first.body["denm"]["situation"]["description"] == \
            "Collision Risk: Crossing collision risk"
        assert second.body == {}

    def test_fifo_order(self):
        sim, obu, rsu, client = build_units()
        client.post(rsu.http, "/trigger_denm", trigger_body())
        sim.schedule(0.2, lambda: client.post(
            rsu.http, "/trigger_denm", trigger_body(causeCode=94)))
        responses = []
        for delay in (0.5, 0.6):
            sim.schedule(delay, lambda: client.post(
                obu.http, "/request_denm", {},
                callback=responses.append))
        sim.run_until(2.0)
        codes = [r.body["denm"]["situation"]["causeCode"]
                 for r in responses]
        assert codes == [97, 94]


class TestAuxiliaryEndpoints:
    def test_trigger_cam(self):
        sim, obu, rsu, client = build_units()
        before = obu.station.ca.cams_sent
        client.post(obu.http, "/trigger_cam", {})
        sim.run_until(0.2)
        assert obu.station.ca.cams_sent >= before + 1

    def test_cam_info_lists_vehicles(self):
        sim, obu, rsu, client = build_units()
        responses = []
        sim.schedule(1.5, lambda: client.post(
            rsu.http, "/cam_info", {}, callback=responses.append))
        sim.run_until(2.0)
        vehicles = responses[0].body["vehicles"]
        assert any(v["stationID"] == 101 for v in vehicles)

    def test_denm_all_lists_events(self):
        sim, obu, rsu, client = build_units()
        client.post(rsu.http, "/trigger_denm", trigger_body())
        responses = []
        sim.schedule(0.5, lambda: client.post(
            obu.http, "/denm_all", {}, callback=responses.append))
        sim.run_until(1.0)
        events = responses[0].body["events"]
        assert len(events) == 1
        assert events[0]["stationID"] == 900


class TestPushChannel:
    def test_push_delivers_denm(self):
        sim, obu, rsu, client = build_units()
        got = []
        obu.subscribe_push(got.append)
        client.post(rsu.http, "/trigger_denm", trigger_body())
        sim.run_until(1.0)
        assert len(got) == 1
        assert got[0]["situation"]["causeCode"] == 97

    def test_push_latency_small(self):
        sim, obu, rsu, client = build_units()
        times = []
        obu.subscribe_push(lambda record: times.append(sim.now))
        received = []
        obu.on_event(lambda name, rec: received.append(rec["sim_time"])
                     if name == "denm_received" else None)
        client.post(rsu.http, "/trigger_denm", trigger_body())
        sim.run_until(1.0)
        assert times and received
        assert times[0] - received[0] == pytest.approx(1e-3, abs=1e-6)

    def test_push_and_poll_coexist(self):
        sim, obu, rsu, client = build_units()
        pushed = []
        obu.subscribe_push(pushed.append)
        client.post(rsu.http, "/trigger_denm", trigger_body())
        polled = []
        sim.schedule(0.5, lambda: client.post(
            obu.http, "/request_denm", {}, callback=polled.append))
        sim.run_until(1.0)
        assert pushed
        assert "denm" in polled[0].body  # still in the poll queue

    def test_multiple_push_subscribers(self):
        sim, obu, rsu, client = build_units()
        a, b = [], []
        obu.subscribe_push(a.append)
        obu.subscribe_push(b.append, latency=5e-3)
        client.post(rsu.http, "/trigger_denm", trigger_body())
        sim.run_until(1.0)
        assert len(a) == len(b) == 1


class TestFaultInjection:
    def test_client_timeout_on_dropped_request(self):
        sim = Simulator()
        config = HttpConfig(drop_probability=1.0)
        server = HttpServer(sim, np.random.default_rng(1), "srv",
                            config)
        server.route("/x", lambda body: (200, {}))
        client = HttpClient(sim, np.random.default_rng(2))
        responses = []
        client.post(server, "/x", callback=responses.append,
                    timeout=0.5)
        sim.run_until(2.0)
        assert len(responses) == 1
        assert responses[0].status == HttpClient.TIMEOUT_STATUS
        assert responses[0].round_trip == pytest.approx(0.5)

    def test_no_timeout_means_silence_on_drop(self):
        sim = Simulator()
        config = HttpConfig(drop_probability=1.0)
        server = HttpServer(sim, np.random.default_rng(1), "srv",
                            config)
        client = HttpClient(sim, np.random.default_rng(2))
        responses = []
        client.post(server, "/x", callback=responses.append)
        sim.run_until(2.0)
        assert responses == []

    def test_response_arrives_before_timeout(self):
        sim = Simulator()
        server = HttpServer(sim, np.random.default_rng(1), "srv")
        server.route("/x", lambda body: (200, {"v": 1}))
        client = HttpClient(sim, np.random.default_rng(2))
        responses = []
        client.post(server, "/x", callback=responses.append,
                    timeout=1.0)
        sim.run_until(2.0)
        assert len(responses) == 1
        assert responses[0].status == 200

    def test_partial_loss_some_requests_survive(self):
        sim = Simulator()
        config = HttpConfig(drop_probability=0.5)
        server = HttpServer(sim, np.random.default_rng(1), "srv",
                            config)
        server.route("/x", lambda body: (200, {}))
        client = HttpClient(sim, np.random.default_rng(2))
        statuses = []
        for k in range(40):
            sim.schedule(0.1 * k, lambda: client.post(
                server, "/x", callback=lambda r: statuses.append(
                    r.status), timeout=0.05))
        sim.run_until(10.0)
        assert statuses.count(200) > 5
        assert statuses.count(HttpClient.TIMEOUT_STATUS) > 5

    def test_handler_survives_lossy_obu_link(self):
        # 30% of polls lost: the Message Handler keeps retrying and
        # the emergency stop still happens, just later.
        from repro.core import EmergencyBrakeScenario, ScaleTestbed

        scenario = EmergencyBrakeScenario(
            seed=3,
            obu_http=HttpConfig(service_mean=4e-3, service_std=1e-3,
                                drop_probability=0.3))
        testbed = ScaleTestbed(scenario)
        measurement = testbed.run()
        assert measurement.completed
        assert testbed.handler.timeouts > 0
