"""Reference oracle for the tickless vehicle and the sleeping watcher.

:class:`TickedVehicleDynamics` is ``repro.vehicle.dynamics.VehicleDynamics``
as it was when a self-rescheduling ``_tick`` event took every
integration step, and :func:`poll_action_point` is
``ScaleTestbed._watch_action_point`` as it was when it re-checked the
action point every ``WATCH_PERIOD``.  Both are copied verbatim (only
renamed, with the suppression comment dropped).  They are used only by
the differential tests (``tests/test_vehicle_tickless.py``), which
assert the tickless integrator and the sleeping watcher produce the
same floats.  Do not optimise this file: its value is being the old,
obviously-correct code.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.measurement import Steps
from repro.sim.kernel import Simulator
from repro.vehicle.dynamics import VehicleParams, VehicleState


class TickedVehicleDynamics:
    """Integrates the vehicle state on the simulation clock.

    A fixed-step integrator tick runs every ``dt`` simulated seconds;
    commands (throttle / steering / mode) take effect at the next tick,
    which adds the sub-tick actuation granularity real ESCs have (PWM
    period ~ 10 ms, modelled separately in the actuation path).

    **Same-time ordering.** Observers (watchdogs, sensors, planners)
    often tick on grids that alias the integration grid, so their
    events share exact timestamps with ``_tick``.  Which ran first
    used to depend on the kernel's tie-break order.  Reads now pull:
    :attr:`state` first folds in any integration step due at the
    current sim time, so a same-timestamp reader sees the post-step
    state no matter how the kernel ordered the tie.  The scheduled
    tick then detects the step has already been taken and only
    re-arms.  Event order at a shared timestamp therefore cannot leak
    into results (the ``tie-audit`` workflow verifies this).
    """

    def __init__(
        self,
        sim: Simulator,
        params: Optional[VehicleParams] = None,
        state: Optional[VehicleState] = None,
        dt: float = 2e-3,
        process_noise_std: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        self.sim = sim
        self.params = params or VehicleParams()
        self._state = state or VehicleState()
        self.dt = dt
        self.process_noise_std = process_noise_std
        self.rng = rng or np.random.default_rng(0)
        self.mode = "coast"               # drive | coast | brake
        self.throttle = 0.0               # 0..1
        self.steering_command = 0.0       # rad
        self.odometer = 0.0
        self._due = sim.now + dt
        sim.schedule(self.dt, self._tick)

    @property
    def state(self) -> VehicleState:
        """Pose and speed, current as of ``sim.now``.

        Reading forces any integration step due at the current sim
        time, so same-timestamp observers see identical state
        regardless of event order (see the class docstring).
        """
        self._catch_up()
        return self._state

    # ------------------------------------------------------------------
    # Commands (called by the actuation path)
    # ------------------------------------------------------------------

    def set_throttle(self, throttle: float) -> None:
        """Drive with PWM duty *throttle* in [0, 1].

        Takes effect from the current sim time onward: any integration
        step due *now* is folded in first, so a command can never
        retroactively alter the interval that ends at its arrival
        (PWM edges land exactly on integration-tick timestamps, so
        this tie is routine -- see the class docstring).
        """
        self._catch_up()
        self.throttle = float(min(max(throttle, 0.0), 1.0))
        self.mode = "drive"

    def set_steering(self, angle: float) -> None:
        """Command the steering servo to *angle* radians (from now on)."""
        self._catch_up()
        limit = self.params.max_steering
        self.steering_command = float(min(max(angle, -limit), limit))

    def cut_power(self, brake: bool = True) -> None:
        """Emergency stop: cut motor power (ESC drag-brake engages)."""
        self._catch_up()
        self.throttle = 0.0
        self.mode = "brake" if brake else "coast"

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self._catch_up()
        self.sim.schedule(self.dt, self._tick)

    def _catch_up(self) -> None:
        """Fold in the integration step due now, if not yet taken.

        Idempotent at a given sim time: whoever touches the state
        first at a tick's timestamp (the scheduled tick itself or a
        same-timestamp reader) performs the step; everyone later sees
        it already taken.  ``_due`` mirrors the pending tick's
        timestamp exactly (both are computed as ``sim.now + dt`` at
        the previous step, so the floats match bit for bit).
        """
        if self.sim.now >= self._due:
            self._due = self.sim.now + self.dt
            self._integrate(self.dt)

    def _integrate(self, dt: float) -> None:
        p = self.params
        s = self._state
        # Steering servo slews towards the command.
        max_delta = p.steering_rate * dt
        error = self.steering_command - s.steering
        s.steering += float(min(max(error, -max_delta), max_delta))
        # Longitudinal forces.
        if self.mode == "drive":
            # RC ESCs behave like a speed loop: throttle selects a
            # target speed, force pushes towards it (never negative --
            # backing off the throttle freewheels rather than brakes).
            target = self.throttle * p.max_speed
            force = float(min(max(
                p.mass * p.speed_gain * (target - s.speed), 0.0),
                p.max_motor_force))
        else:
            force = 0.0
        resistance = (p.drag_coefficient * s.speed * s.speed
                      + (p.rolling_resistance if s.speed > 0 else 0.0))
        acceleration = (force - resistance) / p.mass
        if self.mode == "brake" and s.speed > 0:
            acceleration -= p.max_braking
        if self.process_noise_std > 0:
            acceleration += float(self.rng.normal(
                0.0, self.process_noise_std))
        new_speed = max(0.0, s.speed + acceleration * dt)
        # Kinematic bicycle pose update at the average speed.
        mean_speed = 0.5 * (s.speed + new_speed)
        s.x += mean_speed * math.cos(s.heading) * dt
        s.y += mean_speed * math.sin(s.heading) * dt
        if abs(s.steering) > 1e-9:
            s.heading += (mean_speed / p.wheelbase) * math.tan(s.steering) \
                * dt
            s.heading = (s.heading + math.pi) % (2 * math.pi) - math.pi
        self.odometer += mean_speed * dt
        s.speed = new_speed

    # ------------------------------------------------------------------
    # Read-outs
    # ------------------------------------------------------------------

    @property
    def is_stopped(self) -> bool:
        """Whether the vehicle has come to a halt."""
        return self.state.speed <= 1e-3

    def yaw_rate(self) -> float:
        """Current yaw rate (rad/s) from the bicycle model."""
        if abs(self.state.steering) < 1e-9:
            return 0.0
        return (self.state.speed / self.params.wheelbase
                * math.tan(self.state.steering))

    def stopping_distance(self, speed: Optional[float] = None) -> float:
        """Ideal braking distance from *speed* (defaults to current)."""
        v = self.state.speed if speed is None else speed
        return v * v / (2.0 * self.params.max_braking)


def poll_action_point(self) -> None:
    """``ScaleTestbed._watch_action_point`` as a 1 ms poll."""
    if self.timeline.has(Steps.ACTION_POINT):
        return
    if self.distance_to_camera() <= self.scenario.action_distance:
        self._trace("steps", "action_point_crossed",
                    speed=self.vehicle.speed)
        self._action_point_odometer = self.vehicle.dynamics.odometer
        self.timeline.record(
            Steps.ACTION_POINT, sim_time=self.sim.now,
            speed=self.vehicle.speed)
        return
    self.sim.schedule(self.WATCH_PERIOD, self._watch_action_point)
