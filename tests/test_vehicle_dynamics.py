"""Tests for vehicle dynamics, track geometry and the PID controller."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.vehicle import (
    CircularTrack,
    PidController,
    StraightTrack,
    VehicleDynamics,
    VehicleParams,
)


def build(params=None, state=None, dt=2e-3):
    sim = Simulator()
    dynamics = VehicleDynamics(sim, params=params, state=state, dt=dt)
    return sim, dynamics


class TestLongitudinal:
    def test_starts_at_rest(self):
        sim, dyn = build()
        sim.run_until(1.0)
        assert dyn.state.speed == 0.0
        assert dyn.is_stopped

    def test_throttle_accelerates(self):
        sim, dyn = build()
        dyn.set_throttle(0.2)
        sim.run_until(3.0)
        assert dyn.state.speed > 1.0
        assert dyn.state.x > 1.0

    def test_speed_approaches_throttle_target(self):
        sim, dyn = build()
        dyn.set_throttle(0.19)
        sim.run_until(10.0)
        # Target 0.19 * 8 = 1.52; equilibrium slightly below.
        assert 1.3 < dyn.state.speed < 1.52

    def test_coast_decelerates_slowly(self):
        sim, dyn = build()
        dyn.set_throttle(0.2)
        sim.run_until(5.0)
        speed = dyn.state.speed
        dyn.cut_power(brake=False)
        sim.run_until(5.5)
        assert 0 < dyn.state.speed < speed

    def test_brake_stops_quickly(self):
        sim, dyn = build()
        dyn.set_throttle(0.19)
        sim.run_until(5.0)
        dyn.cut_power(brake=True)
        sim.run_until(5.6)
        assert dyn.is_stopped

    def test_braking_distance_matches_physics(self):
        params = VehicleParams()
        sim, dyn = build(params)
        dyn.set_throttle(0.19)
        sim.run_until(8.0)
        v0 = dyn.state.speed
        x0 = dyn.state.x
        dyn.cut_power(brake=True)
        sim.run_until(10.0)
        distance = dyn.state.x - x0
        ideal = v0 * v0 / (2.0 * params.max_braking)
        # Rolling resistance helps a little; integration step error.
        assert distance == pytest.approx(ideal, rel=0.15)

    def test_stopping_distance_helper(self):
        params = VehicleParams(brake_deceleration=4.5)
        sim, dyn = build(params)
        assert dyn.stopping_distance(1.5) == pytest.approx(
            1.5 ** 2 / (2 * 4.5))

    def test_no_reverse(self):
        sim, dyn = build()
        dyn.cut_power(brake=True)
        sim.run_until(1.0)
        assert dyn.state.speed == 0.0

    def test_friction_caps_braking(self):
        params = VehicleParams(brake_deceleration=100.0, friction_mu=0.9)
        assert params.max_braking == pytest.approx(0.9 * 9.81)

    def test_odometer_accumulates(self):
        sim, dyn = build()
        dyn.set_throttle(0.2)
        sim.run_until(4.0)
        assert dyn.odometer == pytest.approx(dyn.state.x, abs=1e-6)


class TestSteering:
    def test_servo_slews_to_command(self):
        sim, dyn = build()
        dyn.set_steering(0.3)
        sim.run_until(0.05)
        mid = dyn.state.steering
        assert 0 < mid < 0.3
        sim.run_until(0.5)
        assert dyn.state.steering == pytest.approx(0.3, abs=1e-6)

    def test_steering_clamped(self):
        sim, dyn = build()
        dyn.set_steering(2.0)
        sim.run_until(1.0)
        assert dyn.state.steering <= dyn.params.max_steering + 1e-9

    def test_turning_changes_heading(self):
        sim, dyn = build()
        dyn.set_throttle(0.2)
        dyn.set_steering(0.2)
        sim.run_until(3.0)
        assert dyn.state.heading > 0.1

    def test_yaw_rate_sign(self):
        sim, dyn = build()
        dyn.set_throttle(0.2)
        dyn.set_steering(-0.2)
        sim.run_until(2.0)
        assert dyn.yaw_rate() < 0

    def test_turning_radius_roughly_kinematic(self):
        # At constant steering, radius ~ wheelbase / tan(delta).
        params = VehicleParams()
        sim, dyn = build(params)
        dyn.set_throttle(0.19)
        dyn.set_steering(0.25)
        sim.run_until(20.0)
        # The trajectory is a circle; estimate radius from the extent.
        expected_radius = params.wheelbase / math.tan(0.25)
        assert dyn.state.heading != 0  # turned
        # Position stays within the circle's bounding box (+ start
        # transient slack).
        assert abs(dyn.state.x) < 2 * expected_radius + 1.5
        assert abs(dyn.state.y) < 2 * expected_radius + 1.5


class TestScalarClamp:
    """``VehicleDynamics`` clamps with ``float(min(max(x, lo), hi))``;
    it must agree with ``float(np.clip(x, lo, hi))`` bit for bit."""

    VALUES = [-0.0, 0.0, 1e-300, -1e-300, 0.25, -0.25, 0.3, -0.3, 1.0,
              -1.0, 4.0, -4.0, math.inf, -math.inf, math.nan]
    BOUNDS = [(0.0, 1.0), (-0.3, 0.3), (-0.0, 0.0), (0.0, 0.0),
              (-1.0, -0.0), (0.0, 3), (-2, 2)]

    @staticmethod
    def bits(x):
        return (math.isnan(x), x if not math.isnan(x) else 0.0,
                math.copysign(1.0, x))

    def test_agrees_with_np_clip(self):
        for lo, hi in self.BOUNDS:
            # The grid plus the bounds themselves.
            for x in self.VALUES + [lo, hi]:
                scalar = float(min(max(x, lo), hi))
                vector = float(np.clip(x, lo, hi))
                assert self.bits(scalar) == self.bits(vector), (x, lo, hi)

    def test_int_bounds_and_commands_stay_float(self):
        sim, dyn = build(params=VehicleParams(max_steering=1))
        dyn.set_steering(5)
        dyn.set_throttle(2)
        assert type(dyn.steering_command) is float
        assert type(dyn.throttle) is float
        sim.run_until(1.0)
        assert type(dyn.state.steering) is float
        assert dyn.state.steering == 1.0


class TestTracks:
    def test_straight_offset_sign(self):
        track = StraightTrack(direction=0.0)
        assert track.lateral_offset(5.0, 1.0) == pytest.approx(1.0)
        assert track.lateral_offset(5.0, -1.0) == pytest.approx(-1.0)

    def test_straight_heading_error_wraps(self):
        track = StraightTrack(direction=math.pi)
        assert track.heading_error(0, 0, -math.pi) == pytest.approx(0.0)
        error = track.heading_error(0, 0, math.pi - 0.1)
        assert error == pytest.approx(-0.1)

    def test_straight_progress(self):
        track = StraightTrack(direction=math.pi)
        assert track.progress(-3.0, 0.0) == pytest.approx(3.0)

    def test_rotated_straight_track(self):
        track = StraightTrack(direction=math.pi / 2)  # along +y
        assert track.lateral_offset(1.0, 5.0) == pytest.approx(-1.0)

    def test_circular_offset(self):
        track = CircularTrack(radius=3.0)
        assert track.lateral_offset(3.0, 0.0) == pytest.approx(0.0)
        assert track.lateral_offset(2.5, 0.0) == pytest.approx(0.5)
        assert track.lateral_offset(3.5, 0.0) == pytest.approx(-0.5)

    def test_circular_heading(self):
        track = CircularTrack(radius=3.0)
        # At (3, 0) the CCW tangent points along +y.
        assert track.line_heading(3.0, 0.0) == pytest.approx(math.pi / 2)

    def test_circular_progress(self):
        track = CircularTrack(radius=3.0)
        quarter = track.progress(0.0, 3.0)
        assert quarter == pytest.approx(3.0 * math.pi / 2)


class TestPid:
    def test_proportional_only(self):
        pid = PidController(kp=2.0)
        assert pid.update(0.5, 0.0) == pytest.approx(1.0)

    def test_integral_accumulates(self):
        pid = PidController(kp=0.0, ki=1.0)
        pid.update(1.0, 0.0)
        out = pid.update(1.0, 1.0)
        assert out == pytest.approx(1.0)
        out = pid.update(1.0, 2.0)
        assert out == pytest.approx(2.0)

    def test_derivative_responds_to_change(self):
        pid = PidController(kp=0.0, kd=1.0)
        pid.update(0.0, 0.0)
        out = pid.update(1.0, 1.0)
        assert out == pytest.approx(1.0)

    def test_output_limit(self):
        pid = PidController(kp=10.0, output_limit=0.5)
        assert pid.update(1.0, 0.0) == 0.5
        assert pid.update(-1.0, 1.0) == -0.5

    def test_integral_windup_clamped(self):
        pid = PidController(kp=0.0, ki=1.0, integral_limit=0.2)
        for t in range(1, 100):
            pid.update(1.0, float(t))
        assert pid.integral == pytest.approx(0.2)

    def test_reset(self):
        pid = PidController(kp=1.0, ki=1.0)
        pid.update(1.0, 0.0)
        pid.update(1.0, 1.0)
        pid.reset()
        assert pid.integral == 0.0

    def test_time_going_backwards_rejected(self):
        pid = PidController(kp=1.0)
        pid.update(0.0, 5.0)
        with pytest.raises(ValueError):
            pid.update(0.0, 4.0)

    @given(st.floats(-1, 1), st.floats(0.1, 10.0))
    @settings(max_examples=50)
    def test_p_term_linear(self, error, kp):
        pid = PidController(kp=kp)
        assert pid.update(error, 0.0) == pytest.approx(kp * error)
