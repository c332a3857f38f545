"""Tests for SPATEM/MAPEM messages and the traffic-light services."""

import pytest

from repro.facilities import ItsStation, ObjectKind
from repro.facilities.traffic_light import (
    SignalPhaseService,
    TrafficLightController,
    two_phase_plan,
)
from repro.geonet import LocalFrame
from repro.messages import ReferencePosition, StationType
from repro.messages.spat import (
    GO_STATES,
    Lane,
    Mapem,
    MovementState,
    Spatem,
    STOP_STATES,
)
from repro.net import WirelessMedium
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.sim import NtpModel, RandomStreams, Simulator

FRAME = LocalFrame()


def make_spatem(state="stop-And-Remain", remaining=5.0):
    return Spatem(
        station_id=900, intersection_id=7, revision=3,
        movements=(
            MovementState(1, state, remaining),
            MovementState(2, "protected-Movement-Allowed", remaining,
                          likely_seconds=remaining + 1.0),
        ))


def make_mapem():
    return Mapem(
        station_id=900, intersection_id=7, revision=0,
        reference_position=ReferencePosition(41.1787, -8.6078),
        lanes=(
            Lane(1, "ingress", approach_bearing=90.0, signal_group=1),
            Lane(2, "ingress", approach_bearing=180.0, signal_group=2),
            Lane(3, "egress", approach_bearing=270.0),
        ))


class TestSpatemCodec:
    def test_round_trip(self):
        spatem = make_spatem()
        again = Spatem.decode(spatem.encode())
        assert again.intersection_id == 7
        assert again.revision == 3
        assert len(again.movements) == 2
        state = again.state_of(1)
        assert state.event_state == "stop-And-Remain"
        assert state.min_end_seconds == pytest.approx(5.0)
        assert again.state_of(2).likely_seconds == pytest.approx(6.0)

    def test_unknown_signal_group(self):
        assert make_spatem().state_of(99) is None

    def test_go_stop_classification(self):
        assert MovementState(1, "protected-Movement-Allowed", 1.0).is_go
        assert MovementState(1, "stop-And-Remain", 1.0).is_stop
        caution = MovementState(1, "caution-Conflicting-Traffic", 1.0)
        assert not caution.is_go and not caution.is_stop
        assert GO_STATES.isdisjoint(STOP_STATES)

    def test_wire_size_compact(self):
        assert len(make_spatem().encode()) < 40


class TestMapemCodec:
    def test_round_trip(self):
        mapem = make_mapem()
        again = Mapem.decode(mapem.encode())
        assert again.intersection_id == 7
        assert len(again.lanes) == 3
        assert again.lanes[0].signal_group == 1
        assert again.lanes[2].signal_group is None
        assert again.lanes[1].approach_bearing == pytest.approx(180.0)

    def test_ingress_lane_matching(self):
        mapem = make_mapem()
        lane = mapem.ingress_lane_for_bearing(92.0)
        assert lane is not None and lane.lane_id == 1
        assert mapem.ingress_lane_for_bearing(185.0).lane_id == 2
        # Egress lanes never match; far-off bearings return None.
        assert mapem.ingress_lane_for_bearing(270.0) is None


class TestSignalPlan:
    def test_two_phase_plan_alternates(self):
        plan = two_phase_plan(green_time=5.0)
        assert len(plan) == 6
        assert plan[0].states[1] == "protected-Movement-Allowed"
        assert plan[0].states[2] == "stop-And-Remain"
        assert plan[3].states[2] == "protected-Movement-Allowed"

    def test_empty_plan_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TrafficLightController(
                sim, router=None, station_id=1, intersection_id=1,
                position=FRAME.to_geo(0, 0), lanes=[], plan=[])


def build_intersection(seed=3, spat_rate=2.0):
    sim = Simulator()
    streams = RandomStreams(seed)
    medium = WirelessMedium(sim, streams.seed,
                            LinkBudget(path_loss=LogDistancePathLoss()))
    rsu = ItsStation(
        sim, medium, streams, "rsu", 900, StationType.ROAD_SIDE_UNIT,
        position=lambda: FRAME.to_geo(0.0, 0.0), is_rsu=True,
        ntp=NtpModel.ideal(), enable_cam=False, local_frame=FRAME)
    vehicle = ItsStation(
        sim, medium, streams, "obu", 101, StationType.PASSENGER_CAR,
        position=lambda: FRAME.to_geo(-20.0, 0.0),
        ntp=NtpModel.ideal(), enable_cam=False, local_frame=FRAME)
    controller = TrafficLightController(
        sim, rsu.router, 900, intersection_id=7,
        position=FRAME.to_geo(0.0, 0.0),
        lanes=list(make_mapem().lanes),
        plan=two_phase_plan(green_time=4.0, yellow_time=1.0,
                            all_red=0.5),
        spat_rate=spat_rate)
    service = SignalPhaseService(sim, vehicle.router, vehicle.ldm)
    return sim, controller, service, vehicle


class TestTrafficLightEndToEnd:
    def test_spatem_and_mapem_flow(self):
        sim, controller, service, vehicle = build_intersection()
        sim.run_until(3.0)
        assert controller.spatems_sent >= 5
        assert service.spatems_received >= 5
        assert service.mapems_received >= 2
        assert service.known_intersections() == [7]

    def test_mapem_lands_in_ldm(self):
        sim, controller, service, vehicle = build_intersection()
        sim.run_until(2.0)
        entry = vehicle.ldm.get("intersection:7")
        assert entry is not None
        assert entry.kind == ObjectKind.TRAFFIC_SIGN
        assert entry.source == "mapem"

    def test_movement_for_approach(self):
        sim, controller, service, vehicle = build_intersection()
        sim.run_until(1.0)
        # Approaching eastbound (ITS heading 90 deg) -> signal group 1,
        # green in phase 0.
        movement = service.movement_for_approach(7, heading=90.0)
        assert movement is not None
        assert movement.is_go
        # Northbound approach (group 2) is red.
        other = service.movement_for_approach(7, heading=180.0)
        assert other.is_stop

    def test_phase_changes_propagate(self):
        sim, controller, service, vehicle = build_intersection()
        sim.run_until(1.0)
        assert service.movement_for_approach(7, 90.0).is_go
        # After green (4 s) + yellow (1 s) + all-red starts: red.
        sim.run_until(6.0)
        assert service.movement_for_approach(7, 90.0).is_stop
        # Second half of the cycle: the crossing approach goes green.
        sim.run_until(7.0)
        assert service.movement_for_approach(7, 180.0).is_go

    def test_countdown_ages_between_spatems(self):
        sim, controller, service, vehicle = build_intersection(
            spat_rate=1.0)
        sim.run_until(1.05)  # just after a SPATEM
        first = service.movement_for_approach(7, 90.0)
        sim.run_until(1.95)  # just before the next one
        later = service.movement_for_approach(7, 90.0)
        assert later.min_end_seconds < first.min_end_seconds

    def test_unknown_intersection_none(self):
        sim, controller, service, vehicle = build_intersection()
        sim.run_until(1.0)
        assert service.movement_for_approach(99, 90.0) is None
