"""Tests for the CA and DEN basic services and the ITS station."""

import pytest

from repro.facilities import CaConfig, ItsStation, ObjectKind, StationState
from repro.geonet import CircularArea, LocalFrame
from repro.messages import ActionId, Denm, ReferencePosition, StationType
from repro.net import WirelessMedium
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.obs import ObsContext
from repro.sim import NtpModel, RandomStreams, Simulator

FRAME = LocalFrame()


def build_stations(count=2, spacing=5.0, enable_cam=True, ca_config=None,
                   seed=42, mobile=None):
    """A line of stations; `mobile` maps index -> position list."""
    sim = Simulator()
    streams = RandomStreams(seed)
    medium = WirelessMedium(sim, streams.seed,
                            LinkBudget(path_loss=LogDistancePathLoss()))
    mobile = mobile or {}
    stations = []
    for index in range(count):
        def fixed_position(x=index * spacing):
            return FRAME.to_geo(x, 0.0)

        position = mobile.get(index, fixed_position)
        stations.append(ItsStation(
            sim, medium, streams, f"st{index}", 100 + index,
            StationType.PASSENGER_CAR,
            position=position,
            ntp=NtpModel.ideal(),
            ca_config=ca_config,
            enable_cam=enable_cam,
            local_frame=FRAME,
        ))
    return sim, stations


class TestCaGenerationRules:
    def test_stationary_station_sends_at_max_period(self):
        sim, (a, b) = build_stations()
        sim.run_until(5.05)
        # 1 Hz when dynamics are static: ~5 CAMs in 5 s.
        assert 4 <= a.ca.cams_sent <= 6
        assert b.ca.cams_received == a.ca.cams_sent

    def test_speed_change_triggers_cam(self):
        speed = [0.0]
        sim, stations = build_stations(count=2)
        a = stations[0]
        a.dynamics = lambda: (speed[0], 0.0)
        a.ca.state_provider = lambda: StationState(
            position=FRAME.to_geo(0, 0), speed=speed[0])
        sim.run_until(1.05)
        before = a.ca.cams_sent
        speed[0] = 2.0  # > 0.5 m/s threshold
        sim.run_until(1.25)
        assert a.ca.cams_sent > before

    def test_moving_station_sends_faster(self):
        x = [0.0]

        def tick(sim):
            x[0] += 0.06  # 6 m/s at the 10 ms tick
        sim, stations = build_stations(
            count=2, mobile={0: lambda: FRAME.to_geo(x[0], 0.0)})

        def mover():
            x[0] += 0.06
            sim.schedule(0.01, mover)
        sim.schedule(0.01, mover)
        sim.run_until(5.05)
        moving = stations[0]
        # Position changes >4 m roughly every 0.67 s -> more than 1 Hz.
        assert moving.ca.cams_sent >= 7

    def test_min_period_respected(self):
        # Even wild dynamics cannot push CAMs below 100 ms spacing.
        x = [0.0]
        sim, stations = build_stations(
            count=2, mobile={0: lambda: FRAME.to_geo(x[0], 0.0)})

        def mover():
            x[0] += 5.0  # 5 m per 10 ms: insane speed
            sim.schedule(0.01, mover)
        sim.schedule(0.01, mover)
        sim.run_until(2.05)
        assert stations[0].ca.cams_sent <= 21

    def test_received_cam_lands_in_ldm(self):
        sim, (a, b) = build_stations()
        sim.run_until(1.0)
        entry = b.ldm.get("cam:100")
        assert entry is not None
        assert entry.kind == ObjectKind.VEHICLE
        assert entry.source == "cam"

    def test_cam_callback(self):
        sim, (a, b) = build_stations()
        got = []
        b.ca.on_cam(lambda cam: got.append(cam.station_id))
        sim.run_until(1.0)
        assert 100 in got

    def test_disabled_cam(self):
        sim, (a, b) = build_stations(enable_cam=False)
        sim.run_until(3.0)
        assert a.ca.cams_sent == 0

    def test_adaptive_period_locks_to_dynamics(self):
        config = CaConfig()
        x = [0.0]
        sim, stations = build_stations(
            count=2, ca_config=config,
            mobile={0: lambda: FRAME.to_geo(x[0], 0.0)})

        def mover():
            x[0] += 0.15  # 15 m/s: crosses 4 m every ~0.27 s
            sim.schedule(0.01, mover)
        sim.schedule(0.01, mover)
        sim.run_until(3.0)
        assert stations[0].ca.current_period < config.t_gen_cam_max


def collision_denm(station, x=2.0, y=0.0):
    """A fresh collision-risk DENM originated by *station*."""
    geo = FRAME.to_geo(x, y)
    return Denm.collision_risk(
        station.den.allocate_action_id(),
        detection_time=station.its_time(),
        event_position=ReferencePosition(geo.latitude, geo.longitude),
        station_type=StationType.ROAD_SIDE_UNIT,
    )


class TestDenService:
    def make_denm(self, station, x=2.0, y=0.0):
        return collision_denm(station, x, y)

    def test_trigger_delivers(self):
        sim, (a, b) = build_stations(enable_cam=False)
        got = []
        b.den.on_denm(lambda denm, cls: got.append(cls))
        sim.schedule(0.1, lambda: a.den.trigger(self.make_denm(a)))
        sim.run_until(1.0)
        assert got == ["new"]

    def test_cannot_originate_foreign_event(self):
        sim, (a, b) = build_stations(enable_cam=False)
        denm = self.make_denm(a)
        with pytest.raises(ValueError):
            b.den.trigger(denm)

    def test_repetition_classified(self):
        sim, (a, b) = build_stations(enable_cam=False)
        got = []
        b.den.on_denm(lambda denm, cls: got.append(cls))
        sim.schedule(0.1, lambda: a.den.trigger(
            self.make_denm(a), repetition_interval=0.1,
            repetition_duration=0.35))
        sim.run_until(1.0)
        assert got[0] == "new"
        assert set(got[1:]) == {"repetition"}
        assert len(got) >= 3

    def test_update_classified(self):
        sim, (a, b) = build_stations(enable_cam=False)
        got = []
        b.den.on_denm(lambda denm, cls: got.append(cls))
        denm = self.make_denm(a)

        def trigger():
            a.den.trigger(denm)
        def update():
            a.den.update(denm.action_id, denm)
        sim.schedule(0.1, trigger)
        sim.schedule(0.5, update)
        sim.run_until(1.0)
        assert got == ["new", "update"]

    def test_cancellation_removes_from_ldm(self):
        sim, (a, b) = build_stations(enable_cam=False)
        denm = self.make_denm(a)
        key = f"denm:{denm.action_id.station_id}" \
              f":{denm.action_id.sequence_number}"
        sim.schedule(0.1, lambda: a.den.trigger(denm))
        sim.run_until(0.3)
        assert b.ldm.get(key) is not None
        sim.schedule_at(0.5, lambda: a.den.cancel(denm.action_id))
        sim.run_until(1.0)
        assert b.ldm.get(key) is None

    def test_cancel_unknown_event_raises(self):
        sim, (a, _b) = build_stations(enable_cam=False)
        with pytest.raises(KeyError):
            a.den.cancel(ActionId(100, 999))

    def test_termination_classification(self):
        sim, (a, b) = build_stations(enable_cam=False)
        got = []
        b.den.on_denm(lambda denm, cls: got.append(cls))
        denm = self.make_denm(a)
        sim.schedule(0.1, lambda: a.den.trigger(denm))
        sim.schedule(0.5, lambda: a.den.cancel(denm.action_id))
        sim.run_until(1.0)
        assert got == ["new", "termination"]

    def test_negation_of_foreign_event(self):
        sim, (a, b) = build_stations(enable_cam=False)
        got_b = []
        b.den.on_denm(lambda denm, cls: got_b.append(
            (cls, denm.termination)))
        denm = self.make_denm(a)
        sim.schedule(0.1, lambda: a.den.trigger(denm))
        # b negates a's event (it observed the hazard is gone).
        sim.schedule(0.5, lambda: b.den.negate(denm))
        sim.run_until(1.0)
        # a's own view: nothing (own packets filtered); check a's LDM
        # got the negation via classification on a's side instead.
        assert got_b[0] == ("new", None)

    def test_gbc_area_limits_delivery(self):
        sim, (a, b) = build_stations(count=2, spacing=5.0,
                                     enable_cam=False)
        got = []
        b.den.on_denm(lambda denm, cls: got.append(cls))
        denm = self.make_denm(a, x=200.0)
        # Area far away: b is outside and must not deliver.
        area = CircularArea(FRAME.to_geo(200.0, 0.0), 10.0)
        sim.schedule(0.1, lambda: a.den.trigger(denm, area=area))
        sim.run_until(1.0)
        assert got == []

    def test_sequence_numbers_increment(self):
        sim, (a, _b) = build_stations(enable_cam=False)
        first = a.den.allocate_action_id()
        second = a.den.allocate_action_id()
        assert second.sequence_number == first.sequence_number + 1

    def test_originated_events_listing(self):
        sim, (a, b) = build_stations(enable_cam=False)
        denm = self.make_denm(a)
        sim.schedule(0.1, lambda: a.den.trigger(denm))
        sim.run_until(0.3)
        assert denm.action_id in a.den.originated_events()
        a.den.cancel(denm.action_id)
        assert denm.action_id not in a.den.originated_events()


class TestObservedServices:
    """CAM/DENM encode and decode run whether or not a context is
    attached; an attached one counts every message per station."""

    @staticmethod
    def counted(ctx, name, station):
        return ctx.metrics.counter(
            name, device=str(station.station_id)).value

    @staticmethod
    def cam_run(observe):
        sim, stations = build_stations(count=3)
        ctx = ObsContext().bind(sim) if observe else None
        sim.run_until(3.0)
        return ctx, stations

    @staticmethod
    def denm_run(observe):
        sim, stations = build_stations(count=3, enable_cam=False)
        ctx = ObsContext().bind(sim) if observe else None
        origin = stations[0]
        for delay in (0.1, 0.4, 0.7):
            sim.schedule(delay, lambda: origin.den.trigger(
                collision_denm(origin)))
        sim.run_until(1.5)
        return ctx, stations

    def test_cam_counters_match_service_tallies(self):
        ctx, stations = self.cam_run(observe=True)
        for station in stations:
            assert station.ca.cams_sent > 0
            assert station.ca.cams_received > 0
            assert self.counted(ctx, "ca.cams_sent", station) == \
                station.ca.cams_sent
            assert self.counted(ctx, "ca.cams_received", station) == \
                station.ca.cams_received

    def test_cam_traffic_identical_with_and_without_obs(self):
        _ctx, observed = self.cam_run(observe=True)
        _none, plain = self.cam_run(observe=False)
        assert [(s.ca.cams_sent, s.ca.cams_received) for s in observed] \
            == [(s.ca.cams_sent, s.ca.cams_received) for s in plain]

    def test_denm_counters_match_service_tallies(self):
        ctx, stations = self.denm_run(observe=True)
        assert stations[0].den.denms_sent == 3
        for station in stations:
            assert self.counted(ctx, "den.denms_sent", station) == \
                station.den.denms_sent
            assert self.counted(ctx, "den.denms_received", station) == \
                station.den.denms_received
        assert all(s.den.denms_received > 0 for s in stations[1:])

    def test_denm_traffic_identical_with_and_without_obs(self):
        _ctx, observed = self.denm_run(observe=True)
        _none, plain = self.denm_run(observe=False)
        assert [(s.den.denms_sent, s.den.denms_received)
                for s in observed] == \
            [(s.den.denms_sent, s.den.denms_received) for s in plain]


class TestStationClock:
    def test_its_time_progresses(self):
        sim, (a, _b) = build_stations(enable_cam=False)
        t0 = a.its_time()
        sim.run_until(1.0)
        t1 = a.its_time()
        assert 900 <= (t1 - t0) <= 1100  # ~1000 ms

    def test_ntp_offsets_differ_between_stations(self):
        sim = Simulator()
        streams = RandomStreams(1)
        medium = WirelessMedium(sim, streams.seed, LinkBudget())
        stations = [ItsStation(
            sim, medium, streams, f"s{i}", i, 5,
            position=lambda: FRAME.to_geo(0, 0),
            enable_cam=False, local_frame=FRAME)
            for i in range(2)]
        assert stations[0].clock.offset != stations[1].clock.offset


class TestCaLowFrequency:
    def test_path_history_accumulates(self):
        x = [0.0]
        sim, stations = build_stations(
            count=2, mobile={0: lambda: FRAME.to_geo(x[0], 0.0)})

        def mover():
            x[0] += 0.06
            sim.schedule(0.01, mover)
        sim.schedule(0.01, mover)
        received = []
        stations[1].ca.on_cam(received.append)
        sim.run_until(8.0)
        with_history = [cam for cam in received if cam.path_history]
        assert with_history
        # Deltas point backwards along -x (negative longitude delta
        # for eastward travel).
        last = with_history[-1]
        assert all(d_lon < 0 for _d_lat, d_lon in last.path_history)

    def test_lf_container_rate_limited(self):
        # Fast CAMs (dynamics-triggered) must not carry the LF
        # container every time: at most one per 500 ms.
        x = [0.0]
        sim, stations = build_stations(
            count=2, mobile={0: lambda: FRAME.to_geo(x[0], 0.0)})

        def mover():
            x[0] += 0.30  # 30 m/s: CAM every ~130 ms
            sim.schedule(0.01, mover)
        sim.schedule(0.01, mover)
        received = []
        stations[1].ca.on_cam(received.append)
        sim.run_until(5.0)
        lf_count = sum(1 for cam in received
                       if cam.exterior_lights is not None)
        assert len(received) > lf_count  # some CAMs are HF-only
        assert lf_count <= 11            # <= ~2 Hz over 5 s
        assert lf_count >= 8
