"""Vehicle dynamics: kinematic bicycle + longitudinal powertrain.

The Traxxas-based 1/10-scale platform is modelled as a kinematic
bicycle (adequate at the sub-2 m/s speeds of the experiments) with a
longitudinal force balance::

    m dv/dt = F_motor(throttle, v) - F_drag(v) - F_roll - F_brake

Three longitudinal modes map to what the ESC does:

* ``drive``: PWM throttle commands motor force towards a set speed;
* ``coast``: power cut, only drag + rolling resistance decelerate;
* ``brake``: ESC braking (the emergency-stop path), a strong
  deceleration bounded by tyre friction.

The paper's emergency procedure "interrupts power to the wheels"; on
these ESCs the neutral-throttle state engages the drag brake, so the
stop command switches the model to ``brake``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

import numpy as np

from repro.sim.kernel import Simulator


@dataclasses.dataclass(frozen=True)
class VehicleParams:
    """Physical parameters of the 1/10-scale vehicle."""

    #: Vehicle mass (kg); Traxxas + Jetson + sensors.
    mass: float = 3.5
    #: Wheelbase (m).
    wheelbase: float = 0.33
    #: Overall vehicle length (m); the paper reports ~0.53 m.
    length: float = 0.53
    #: Maximum steering angle (rad).
    max_steering: float = math.radians(28.0)
    #: Steering servo rate limit (rad/s).
    steering_rate: float = math.radians(240.0)
    #: Peak motor force (N) the ESC will apply.
    max_motor_force: float = 12.0
    #: Full-throttle speed (m/s); scaled down for the lab (the
    #: platform can reach ~16 m/s, the experiments run below 2 m/s).
    max_speed: float = 8.0
    #: ESC speed-loop gain (1/s): drive force tracks the throttle's
    #: target speed like a first-order response.
    speed_gain: float = 2.0
    #: Aerodynamic drag coefficient (N s^2/m^2); negligible at lab speed.
    drag_coefficient: float = 0.05
    #: Rolling resistance force (N).
    rolling_resistance: float = 0.35
    #: ESC braking deceleration limit (m/s^2); rubber on lab floor.
    brake_deceleration: float = 4.5
    #: Tyre-floor friction coefficient (caps any deceleration).
    friction_mu: float = 0.9

    @property
    def max_braking(self) -> float:
        """Friction-limited deceleration (m/s^2)."""
        return min(self.brake_deceleration, self.friction_mu * 9.81)


@dataclasses.dataclass
class VehicleState:
    """Pose and speed in the lab frame."""

    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0     # rad, counter-clockwise from +x
    speed: float = 0.0       # m/s
    steering: float = 0.0    # rad, current wheel angle

    def position(self) -> Tuple[float, float]:
        """(x, y) in metres."""
        return (self.x, self.y)


class VehicleDynamics:
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
        self.sim.schedule(
            # detlint: ignore[SCH001] -- benign: every reader pulls
            # through _catch_up, so same-time tick order is immaterial
            self.dt, self._tick)

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
