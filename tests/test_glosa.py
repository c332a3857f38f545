"""Tests for the GLOSA advisor and cycle estimator."""


import pytest

from repro.facilities.glosa import CycleEstimator, advise
from repro.messages.spat import MovementState


def go(remaining):
    return MovementState(1, "protected-Movement-Allowed", remaining)


def red(remaining):
    return MovementState(1, "stop-And-Remain", remaining)


class TestAdvise:
    def test_reachable_green_cruise(self):
        advice = advise(distance=5.0, speed=1.2, movement=go(10.0),
                        v_max=1.5)
        assert advice.reason == "cruise"
        assert advice.target_speed == 1.5

    def test_unreachable_green_slows_for_next(self):
        advice = advise(distance=8.0, speed=1.5, movement=go(2.0),
                        v_max=1.5, red_estimate=8.0)
        assert advice.reason == "slow_for_green"
        # Arrive as the next green opens: ~8 / (2 + 8 + margin).
        assert advice.target_speed == pytest.approx(
            8.0 / 10.5, abs=0.01)

    def test_far_unreachable_green_clamped_to_vmax(self):
        advice = advise(distance=20.0, speed=1.5, movement=go(2.0),
                        v_max=1.5, red_estimate=8.0)
        # Even full speed arrives after the next green opens.
        assert advice.target_speed == 1.5

    def test_unreachable_green_without_estimate_cruises(self):
        advice = advise(distance=20.0, speed=1.5, movement=go(2.0),
                        v_max=1.5, red_estimate=None)
        assert advice.reason == "cruise"

    def test_red_catch_green(self):
        # Red for 6 s, 6 m away: ~0.92 m/s arrives right at green.
        advice = advise(distance=6.0, speed=1.5, movement=red(6.0),
                        v_max=1.5, v_min=0.4)
        assert advice.reason == "catch_green"
        assert advice.target_speed == pytest.approx(6.0 / 6.5, abs=0.01)
        assert 0.4 <= advice.target_speed <= 1.5

    def test_red_too_close_requires_stop(self):
        # 5 m away, red for another 2 s: even at v_max the vehicle
        # arrives while the light is still red -> plan a stop.
        advice = advise(distance=5.0, speed=1.5, movement=red(2.0),
                        v_max=1.5)
        assert advice.reason == "stop"
        assert advice.requires_stop

    def test_red_about_to_end_catches_green(self):
        # Red ends in 0.2 s and the stop line is 1 m away: arriving
        # in ~0.7 s lands in the fresh green -- no stop needed.
        advice = advise(distance=1.0, speed=1.5, movement=red(0.2),
                        v_max=1.5)
        assert advice.reason == "catch_green"

    def test_red_far_enough_crawls(self):
        advice = advise(distance=2.0, speed=1.5, movement=red(30.0),
                        v_max=1.5, v_min=0.4)
        assert advice.reason == "slow_for_green"
        assert advice.target_speed == 0.4

    def test_past_stop_line_cruises(self):
        advice = advise(distance=-0.5, speed=1.0, movement=red(5.0))
        assert advice.reason == "cruise"

    def test_speed_never_exceeds_vmax(self):
        for remaining in (0.5, 2.0, 10.0):
            for distance in (1.0, 5.0, 30.0):
                advice = advise(distance, 1.0, go(remaining),
                                v_max=1.5, red_estimate=8.0)
                assert advice.target_speed <= 1.5 + 1e-9


class TestCycleEstimator:
    def feed_cycles(self, estimator, cycles=3, green=6.0, stop=4.0):
        t = 0.0
        for _ in range(cycles):
            estimator.observe(1, go(green), t)
            t += green
            estimator.observe(1, red(stop), t)
            t += stop
        estimator.observe(1, go(green), t)

    def test_learns_durations(self):
        estimator = CycleEstimator()
        self.feed_cycles(estimator, green=6.0, stop=4.0)
        assert estimator.green_duration(1) == pytest.approx(6.0)
        assert estimator.red_duration(1) == pytest.approx(4.0)

    def test_unknown_before_first_cycle(self):
        estimator = CycleEstimator()
        estimator.observe(1, go(5.0), 0.0)
        assert estimator.red_duration(1) is None
        assert estimator.green_duration(1) is None

    def test_repeated_same_state_no_spurious_transitions(self):
        estimator = CycleEstimator()
        estimator.observe(1, go(5.0), 0.0)
        estimator.observe(1, go(4.0), 1.0)
        estimator.observe(1, go(3.0), 2.0)
        estimator.observe(1, red(4.0), 6.0)
        estimator.observe(1, go(6.0), 10.0)
        assert estimator.green_duration(1) == pytest.approx(6.0)
        assert estimator.red_duration(1) == pytest.approx(4.0)

    def test_groups_independent(self):
        estimator = CycleEstimator()
        self.feed_cycles(estimator)
        assert estimator.red_duration(2) is None


class TestGlosaClosesTheLoop:
    """GLOSA on the full vehicle + traffic light stack: fewer stops
    than the reactive red-light assist."""

    def run_approach(self, use_glosa, seed=9):
        from repro.facilities import ItsStation
        from repro.facilities.traffic_light import (
            SignalPhaseService,
            TrafficLightController,
            two_phase_plan,
        )
        from repro.geonet import LocalFrame
        from repro.messages import StationType
        from repro.messages.spat import Lane
        from repro.net import WirelessMedium
        from repro.net.propagation import LinkBudget, LogDistancePathLoss
        from repro.sim import RandomStreams, Simulator
        from repro.vehicle import RoboticVehicle, VehicleState

        sim = Simulator()
        streams = RandomStreams(seed)
        frame = LocalFrame()
        medium = WirelessMedium(
            sim, streams.seed,
            LinkBudget(path_loss=LogDistancePathLoss()))
        vehicle = RoboticVehicle(
            sim, streams,
            initial_state=VehicleState(x=-14.0, y=0.0, heading=0.0))
        obu = ItsStation(
            sim, medium, streams, "obu", 101,
            StationType.PASSENGER_CAR,
            position=lambda: frame.to_geo(*vehicle.position),
            dynamics=lambda: (vehicle.speed, vehicle.heading_degrees),
            local_frame=frame)
        rsu = ItsStation(
            sim, medium, streams, "rsu", 900,
            StationType.ROAD_SIDE_UNIT,
            position=lambda: frame.to_geo(0.0, 2.0), is_rsu=True,
            local_frame=frame)
        # Phase chosen so a full-speed approach arrives on red.
        TrafficLightController(
            sim, rsu.router, 900, 7, frame.to_geo(0.0, 0.0),
            lanes=[Lane(1, "ingress", 90.0, signal_group=1)],
            plan=two_phase_plan(green_time=5.0, yellow_time=1.0,
                                all_red=1.0))
        service = SignalPhaseService(sim, obu.router, obu.ldm)
        full_stops = [0]
        was_moving = [False]

        def controller():
            movement = service.movement_for_approach(
                7, vehicle.heading_degrees)
            x = vehicle.dynamics.state.x
            distance = -0.8 - x
            speed = vehicle.speed
            if speed > 0.3:
                was_moving[0] = True
            if was_moving[0] and speed < 0.02 and distance > -0.5:
                full_stops[0] += 1
                was_moving[0] = False
            if movement is not None and distance > 0:
                if use_glosa:
                    from repro.facilities.glosa import advise

                    advice = advise(distance, speed, movement,
                                    v_max=1.5, v_min=0.4,
                                    red_estimate=7.0)
                    if advice.requires_stop:
                        vehicle.planner.emergency_stop("glosa")
                    else:
                        if vehicle.planner.emergency_engaged:
                            vehicle.planner.resume()
                        throttle = advice.target_speed / 8.0 / 0.95
                        vehicle.planner.cruise_throttle = throttle
                        vehicle.control.command_throttle(throttle)
                else:
                    stopping = vehicle.dynamics.stopping_distance() \
                        + speed * 0.2
                    if movement.is_stop and distance <= stopping + 0.1:
                        vehicle.planner.emergency_stop("red")
                    elif movement.is_go \
                            and vehicle.planner.emergency_engaged:
                        vehicle.planner.resume()
            sim.schedule(0.1, controller)

        sim.schedule(0.1, controller)
        sim.run_until(30.0)
        return full_stops[0], vehicle.dynamics.state.x

    def test_glosa_avoids_full_stop(self):
        stops_assist, x_assist = self.run_approach(use_glosa=False)
        stops_glosa, x_glosa = self.run_approach(use_glosa=True)
        # Both cross eventually.
        assert x_assist > 0.5
        assert x_glosa > 0.5
        # The reactive assist stops at the red; GLOSA glides through.
        assert stops_assist >= 1
        assert stops_glosa < stops_assist
