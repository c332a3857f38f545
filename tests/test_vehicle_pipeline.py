"""Tests for the in-vehicle chain: ROS graph, sensors, control path,
planner, message handler and the assembled robot."""

import math

import numpy as np
import pytest

from repro.openc2x.http import HttpServer
from repro.sim import NtpModel, RandomStreams, Simulator
from repro.sim.clock import DeviceClock
from repro.vehicle import (
    ActuationPath,
    ControlModule,
    MessageHandler,
    RoboticVehicle,
    RosGraph,
    VehicleDynamics,
    VehicleState,
)
from repro.vehicle.ros import RosConfig
from repro.vehicle.sensors import Imu, Lidar, ZedCamera
from repro.vehicle.track import StraightTrack


# ---------------------------------------------------------------------------
# ROS-like middleware
# ---------------------------------------------------------------------------


class TestRosGraph:
    def test_topic_identity(self):
        sim = Simulator()
        graph = RosGraph(sim)
        assert graph.topic("x") is graph.topic("x")

    def test_publish_subscribe(self):
        sim = Simulator()
        graph = RosGraph(sim)
        got = []
        graph.topic("t").subscribe(got.append)
        graph.topic("t").publish("hello")
        sim.run()
        assert got == ["hello"]

    def test_delivery_has_latency(self):
        sim = Simulator()
        graph = RosGraph(sim, config=RosConfig(latency_mean=1e-3,
                                               latency_std=0.0))
        times = []
        graph.topic("t").subscribe(lambda m: times.append(sim.now))
        graph.topic("t").publish("m")
        sim.run()
        assert times[0] == pytest.approx(1e-3)

    def test_fifo_per_subscriber(self):
        sim = Simulator()
        graph = RosGraph(sim, np.random.default_rng(7),
                         RosConfig(latency_mean=1e-3, latency_std=1e-3))
        got = []
        graph.topic("t").subscribe(got.append)
        for index in range(20):
            graph.topic("t").publish(index)
        sim.run()
        assert got == list(range(20))

    def test_multiple_subscribers_all_receive(self):
        sim = Simulator()
        graph = RosGraph(sim)
        got1, got2 = [], []
        graph.topic("t").subscribe(got1.append)
        graph.topic("t").subscribe(got2.append)
        graph.topic("t").publish("m")
        sim.run()
        assert got1 == got2 == ["m"]

    def test_no_subscriber_is_fine(self):
        sim = Simulator()
        graph = RosGraph(sim)
        graph.topic("t").publish("m")
        sim.run()

    def test_topics_listing(self):
        sim = Simulator()
        graph = RosGraph(sim)
        graph.topic("b")
        graph.topic("a")
        assert graph.topics() == ["a", "b"]


# ---------------------------------------------------------------------------
# Sensors
# ---------------------------------------------------------------------------


class TestZedCamera:
    def test_frame_rate(self):
        sim = Simulator()
        dynamics = VehicleDynamics(sim)
        frames = []
        ZedCamera(sim, dynamics, StraightTrack(), publish=frames.append,
                  fps=10.0)
        sim.run_until(1.05)
        assert len(frames) == 10
        assert frames[0].image.shape == (72, 96)

    def test_frames_carry_timestamps_and_sequence(self):
        sim = Simulator()
        dynamics = VehicleDynamics(sim)
        frames = []
        ZedCamera(sim, dynamics, StraightTrack(), publish=frames.append,
                  fps=10.0)
        sim.run_until(0.55)
        assert [f.sequence for f in frames] == list(range(5))
        assert frames[1].captured_at == pytest.approx(0.2)


class TestLidar:
    def test_detects_obstacle_ahead(self):
        sim = Simulator()
        dynamics = VehicleDynamics(sim)
        scans = []
        Lidar(sim, dynamics, obstacles=lambda: [(3.0, 0.0, 0.25)],
              publish=scans.append, noise_std=0.0)
        sim.run_until(0.15)
        scan = scans[0]
        centre = len(scan.ranges) // 2
        assert scan.ranges[centre] == pytest.approx(2.75, abs=0.01)

    def test_wall_occludes_obstacle(self):
        sim = Simulator()
        dynamics = VehicleDynamics(sim)
        scans = []
        Lidar(sim, dynamics, obstacles=lambda: [(5.0, 0.0, 0.25)],
              walls=lambda: [((2.0, -1.0), (2.0, 1.0))],
              publish=scans.append, noise_std=0.0)
        sim.run_until(0.15)
        centre = len(scans[0].ranges) // 2
        # The wall at 2 m is hit, not the obstacle at 4.75 m.
        assert scans[0].ranges[centre] == pytest.approx(2.0, abs=0.01)

    def test_nothing_in_range(self):
        sim = Simulator()
        dynamics = VehicleDynamics(sim)
        scans = []
        Lidar(sim, dynamics, obstacles=lambda: [(50.0, 0.0, 0.25)],
              publish=scans.append, max_range=10.0, noise_std=0.0)
        sim.run_until(0.15)
        assert all(r == 10.0 for r in scans[0].ranges)

    def test_obstacle_behind_not_seen(self):
        sim = Simulator()
        dynamics = VehicleDynamics(sim)
        scans = []
        Lidar(sim, dynamics, obstacles=lambda: [(-3.0, 0.0, 0.25)],
              publish=scans.append, fov=math.radians(180.0),
              noise_std=0.0)
        sim.run_until(0.15)
        assert all(r == 10.0 for r in scans[0].ranges)


class TestImu:
    def test_reports_acceleration(self):
        sim = Simulator()
        dynamics = VehicleDynamics(sim)
        samples = []
        Imu(sim, dynamics, publish=samples.append, accel_noise_std=0.0,
            gyro_noise_std=0.0)
        dynamics.set_throttle(0.3)
        sim.run_until(0.5)
        accels = [s.longitudinal_acceleration for s in samples[5:]]
        assert np.mean(accels) > 0.5

    def test_yaw_rate_matches_dynamics(self):
        sim = Simulator()
        dynamics = VehicleDynamics(sim)
        samples = []
        Imu(sim, dynamics, publish=samples.append, accel_noise_std=0.0,
            gyro_noise_std=0.0)
        dynamics.set_throttle(0.2)
        dynamics.set_steering(0.2)
        sim.run_until(2.0)
        assert samples[-1].yaw_rate == pytest.approx(
            dynamics.yaw_rate(), abs=0.05)


# ---------------------------------------------------------------------------
# Control path
# ---------------------------------------------------------------------------


def build_control(seed=1):
    sim = Simulator()
    dynamics = VehicleDynamics(sim)
    actuation = ActuationPath(sim, dynamics,
                              rng=np.random.default_rng(seed))
    clock = DeviceClock(sim, np.random.default_rng(seed + 1),
                        NtpModel.ideal())
    control = ControlModule(sim, actuation, clock)
    return sim, dynamics, control


class TestControlModule:
    def test_steering_command_reaches_dynamics(self):
        sim, dynamics, control = build_control()
        control.command_steering(0.2)
        sim.run_until(0.5)
        assert dynamics.state.steering == pytest.approx(0.2, abs=1e-6)

    def test_actuation_latency_pwm_aligned(self):
        sim, dynamics, control = build_control()
        config = control.actuation.config
        latency = control.actuation.apply(lambda d: None)
        # Latency lands on a PWM edge.
        edge = (sim.now + latency) / config.pwm_period
        assert edge == pytest.approx(round(edge), abs=1e-6)

    def test_emergency_stop_is_idempotent(self):
        sim, dynamics, control = build_control()
        events = []
        control.on_event(lambda name, rec: events.append(name))
        control.emergency_stop()
        control.emergency_stop()
        sim.run_until(0.5)
        assert events == ["actuators_commanded"]

    def test_commands_ignored_after_stop(self):
        sim, dynamics, control = build_control()
        control.emergency_stop()
        control.command_throttle(0.5)
        sim.run_until(1.0)
        assert dynamics.state.speed == 0.0
        assert control.throttle_commands == 0

    def test_stop_event_carries_clock_time(self):
        sim, dynamics, control = build_control()
        records = []
        control.on_event(lambda name, rec: records.append(rec))
        sim.schedule(1.0, control.emergency_stop)
        sim.run_until(2.0)
        assert records[0]["clock_time"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Message handler
# ---------------------------------------------------------------------------


class FakePlanner:
    def __init__(self):
        self.stopped = []

    def emergency_stop(self, reason="denm"):
        self.stopped.append(reason)


class TestMessageHandler:
    def build(self, poll_interval=0.02):
        sim = Simulator()
        server = HttpServer(sim, np.random.default_rng(1), "obu")
        pending = []

        def request_denm(_body):
            if pending:
                return 200, {"denm": pending.pop(0)}
            return 200, {}

        server.route("/request_denm", request_denm)
        planner = FakePlanner()
        handler = MessageHandler(sim, server, planner,
                                 rng=np.random.default_rng(2),
                                 poll_interval=poll_interval)
        return sim, server, pending, planner, handler

    def test_polls_continuously(self):
        sim, server, pending, planner, handler = self.build()
        sim.run_until(1.0)
        assert handler.polls >= 30

    def test_denm_triggers_stop(self):
        sim, server, pending, planner, handler = self.build()
        sim.schedule(0.5, lambda: pending.append(
            {"situation": {"causeCode": 97}, "termination": None}))
        sim.run_until(1.0)
        assert planner.stopped == ["denm"]
        assert handler.denms_handled == 1

    def test_termination_does_not_stop(self):
        sim, server, pending, planner, handler = self.build()
        sim.schedule(0.5, lambda: pending.append(
            {"termination": "isCancellation"}))
        sim.run_until(1.0)
        assert planner.stopped == []
        assert handler.denms_handled == 1

    def test_stop_on_denm_disabled(self):
        sim = Simulator()
        server = HttpServer(sim, np.random.default_rng(1), "obu")
        server.route("/request_denm",
                     lambda b: (200, {"denm": {"termination": None}}))
        planner = FakePlanner()
        MessageHandler(sim, server, planner,
                       rng=np.random.default_rng(2),
                       stop_on_denm=False)
        sim.run_until(0.3)
        assert planner.stopped == []

    def test_handler_stop_ends_polling(self):
        sim, server, pending, planner, handler = self.build()
        sim.schedule(0.3, handler.stop)
        sim.run_until(0.35)
        polls = handler.polls
        sim.run_until(1.0)
        assert handler.polls == polls

    def test_restart_within_one_cycle_keeps_one_loop(self):
        # stop() then start() before the in-flight cycle ends must not
        # leave a second poll loop running beside the first.
        sim, server, pending, planner, handler = self.build()
        sim.run_until(1.0)
        steady = handler.polls
        sim, server, pending, planner, handler = self.build()
        sim.schedule_at(0.101, handler.stop)
        sim.schedule_at(0.102, handler.start)
        sim.run_until(1.0)
        assert handler.polls == steady

    def test_exception_in_poll_callback_propagates(self):
        class PlannerFault(Exception):
            pass

        sim, server, pending, planner, handler = self.build()

        def broken_stop(reason="denm"):
            raise PlannerFault(reason)

        planner.emergency_stop = broken_stop
        sim.schedule(0.5, lambda: pending.append({"termination": None}))
        with pytest.raises(PlannerFault):
            sim.run(max_events=100_000)
        assert 0.5 < sim.now < 0.6

    def test_poll_latency_bounds_reaction(self):
        # Reaction to a queued DENM is bounded by poll interval + RTT.
        sim, server, pending, planner, handler = self.build(
            poll_interval=0.05)
        stop_times = []
        original = planner.emergency_stop
        planner.emergency_stop = lambda reason="denm": (
            original(reason), stop_times.append(sim.now))
        sim.schedule(0.5, lambda: pending.append({"termination": None}))
        sim.run_until(1.0)
        assert stop_times
        assert stop_times[0] - 0.5 < 0.05 + 0.01


# ---------------------------------------------------------------------------
# Assembled robot
# ---------------------------------------------------------------------------


class TestRoboticVehicle:
    def test_follows_line(self):
        sim = Simulator()
        vehicle = RoboticVehicle(
            sim, RandomStreams(7),
            initial_state=VehicleState(x=0.0, y=0.08, heading=0.05))
        sim.run_until(6.0)
        assert abs(vehicle.dynamics.state.y) < 0.03
        assert vehicle.speed > 1.0

    def test_emergency_stop_halts_and_reports(self):
        sim = Simulator()
        vehicle = RoboticVehicle(sim, RandomStreams(7))
        events = []
        vehicle.on_event(lambda name, rec: events.append(name))
        sim.run_until(4.0)
        vehicle.emergency_stop()
        sim.run_until(6.0)
        assert vehicle.dynamics.is_stopped
        assert "actuators_commanded" in events
        assert "vehicle_halted" in events
        assert vehicle.halted_at is not None
        assert vehicle.halt_position is not None

    def test_heading_degrees_convention(self):
        sim = Simulator()
        vehicle = RoboticVehicle(
            sim, RandomStreams(7), autostart=False,
            initial_state=VehicleState(heading=0.0))
        # Lab frame +x (east) is 90 degrees clockwise from north.
        assert vehicle.heading_degrees == pytest.approx(90.0)

    def test_no_start_without_autostart(self):
        sim = Simulator()
        vehicle = RoboticVehicle(sim, RandomStreams(7), autostart=False)
        sim.run_until(2.0)
        assert vehicle.speed == 0.0


class TestResume:
    def test_resume_after_stop(self):
        sim = Simulator()
        vehicle = RoboticVehicle(sim, RandomStreams(7))
        sim.run_until(4.0)
        vehicle.emergency_stop()
        sim.run_until(6.0)
        assert vehicle.dynamics.is_stopped
        x_stop = vehicle.dynamics.state.x
        vehicle.planner.resume()
        sim.run_until(10.0)
        assert vehicle.speed > 1.0
        assert vehicle.dynamics.state.x > x_stop + 2.0

    def test_resume_without_stop_is_noop(self):
        sim = Simulator()
        vehicle = RoboticVehicle(sim, RandomStreams(7))
        sim.run_until(2.0)
        speed = vehicle.speed
        vehicle.planner.resume()
        sim.run_until(2.5)
        assert vehicle.speed == pytest.approx(speed, abs=0.2)

    def test_steering_works_after_resume(self):
        sim = Simulator()
        vehicle = RoboticVehicle(
            sim, RandomStreams(7),
            initial_state=VehicleState(x=0.0, y=0.05, heading=0.0))
        sim.run_until(3.0)
        vehicle.emergency_stop()
        sim.run_until(5.0)
        vehicle.planner.resume()
        sim.run_until(12.0)
        # Back on the line after resuming.
        assert abs(vehicle.dynamics.state.y) < 0.04


class TestGnss:
    def build(self, seed=1, **model_kwargs):
        from repro.vehicle.sensors import GnssModel, GnssReceiver

        sim = Simulator()
        receiver = GnssReceiver(sim, GnssModel(**model_kwargs),
                                rng=np.random.default_rng(seed))
        return sim, receiver

    def test_fix_error_magnitude(self):
        sim, receiver = self.build(bias_std=0.8, noise_std=0.15)
        errors = []
        for step in range(200):
            sim.run_until(step * 1.0 + 1.0)
            x, y, _speed = receiver.fix(10.0, 5.0, 1.5)
            errors.append(math.hypot(x - 10.0, y - 5.0))
        mean_error = float(np.mean(errors))
        # Total error ~ sqrt(2) * sqrt(bias^2 + noise^2) scale.
        assert 0.3 < mean_error < 2.5

    def test_consecutive_fixes_correlated(self):
        # Bias dominates: fixes 1 s apart are close; fixes minutes
        # apart decorrelate.
        sim, receiver = self.build(bias_std=1.0, noise_std=0.05,
                                   bias_tau=30.0)
        sim.run_until(1.0)
        x1, y1, _ = receiver.fix(0.0, 0.0, 0.0)
        sim.run_until(2.0)
        x2, y2, _ = receiver.fix(0.0, 0.0, 0.0)
        near = math.hypot(x2 - x1, y2 - y1)
        sim.run_until(302.0)
        x3, y3, _ = receiver.fix(0.0, 0.0, 0.0)
        far = math.hypot(x3 - x1, y3 - y1)
        assert near < 0.5
        # After 10 correlation times the bias has wandered.
        assert far > near

    def test_speed_never_negative(self):
        sim, receiver = self.build(speed_noise_std=0.5)
        for step in range(50):
            sim.run_until(step * 0.1 + 0.1)
            _x, _y, speed = receiver.fix(0.0, 0.0, 0.01)
            assert speed >= 0.0

    def test_deterministic_per_seed(self):
        sim1, r1 = self.build(seed=5)
        sim2, r2 = self.build(seed=5)
        sim1.run_until(1.0)
        sim2.run_until(1.0)
        assert r1.fix(1.0, 2.0, 0.5) == r2.fix(1.0, 2.0, 0.5)
