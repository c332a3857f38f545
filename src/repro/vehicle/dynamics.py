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
    """Integrates the vehicle state on the simulation clock, on demand.

    The state advances in fixed steps of ``dt`` on a grid that starts
    ``dt`` after construction; each grid point is the float sum of the
    one before and ``dt``.  Nothing is scheduled: every read
    (:attr:`state`, :attr:`odometer`, :meth:`reach`), every command and
    every change of :attr:`params` first takes all steps due at or
    before ``sim.now`` (:meth:`_catch_up`).  A reader at time ``t``
    therefore sees the state after every step whose grid point is
    ``<= t``, whoever reads first and whatever order the kernel gives
    events that share ``t``, and a command takes effect from the first
    step after its arrival.  Code that reaches past these entry points
    (``_state``, ``_odometer``) sees the state as of the last read, not
    as of ``sim.now``.
    """

    def __init__(
        self,
        sim: Simulator,
        params: Optional[VehicleParams] = None,
        state: Optional[VehicleState] = None,
        dt: float = 2e-3,
    ):
        self.sim = sim
        self._params = params or VehicleParams()
        self._state = state or VehicleState()
        self.dt = dt
        self.mode = "coast"               # drive | coast | brake
        self.throttle = 0.0               # 0..1
        self.steering_command = 0.0       # rad
        self._odometer = 0.0
        self._due = sim.now + dt

    @property
    def state(self) -> VehicleState:
        """Pose and speed, current as of ``sim.now``."""
        self._catch_up()
        return self._state

    @property
    def odometer(self) -> float:
        """Distance driven (m), current as of ``sim.now``."""
        self._catch_up()
        return self._odometer

    @property
    def params(self) -> VehicleParams:
        """Physical parameters of the integrated vehicle."""
        return self._params

    @params.setter
    def params(self, params: VehicleParams) -> None:
        # Like a command: steps due up to now keep the old parameters.
        self._catch_up()
        self._params = params

    # ------------------------------------------------------------------
    # Commands (called by the actuation path)
    # ------------------------------------------------------------------

    def set_throttle(self, throttle: float) -> None:
        """Drive with PWM duty *throttle* in [0, 1].

        Takes effect from the current sim time onward: any integration
        step due *now* is folded in first, so a command can never
        retroactively alter the interval that ends at its arrival
        (PWM edges land exactly on integration grid points, so this
        tie is routine -- see the class docstring).
        """
        self._catch_up()
        self.throttle = float(min(max(throttle, 0.0), 1.0))
        self.mode = "drive"

    def set_steering(self, angle: float) -> None:
        """Command the steering servo to *angle* radians (from now on)."""
        self._catch_up()
        limit = self._params.max_steering
        self.steering_command = float(min(max(angle, -limit), limit))

    def cut_power(self, brake: bool = True) -> None:
        """Emergency stop: cut motor power (ESC drag-brake engages)."""
        self._catch_up()
        self.throttle = 0.0
        self.mode = "brake" if brake else "coast"

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------

    def _catch_up(self) -> None:
        """Take every integration step due at or before ``sim.now``.

        Idempotent at a given sim time: the first entry point touched
        at or after a grid point takes the steps due, everyone later
        finds them taken.  ``_due`` is the next grid point, advanced by
        ``+= dt`` -- the float sequence a self-rescheduling ``dt`` tick
        would run on.
        """
        now = self.sim.now
        while now >= self._due:
            self._due += self.dt
            self._integrate(self.dt)

    def reach(self, horizon: float) -> float:
        """Bound (m) on the path covered in the next *horizon* seconds.

        The bound holds under any command.  At most
        ``K = ceil(horizon / dt) + 1`` steps fall due in that time.  A
        step raises the speed by at most ``a * dt`` with
        ``a = max_motor_force / mass`` (drag, rolling resistance and
        the brake only slow the vehicle) and moves the pose by
        ``mean_speed * dt`` in the heading's direction, so ``K`` steps
        cover at most ``K dt (|v| + a K dt)`` of path; a straight-line
        distance such as ``hypot`` moves by no more.  Float rounding is
        absorbed by a relative margin on the products, an ulp of the
        peak speed per step on the speed, and two ulps of the
        coordinates per step, and per ``hypot`` at either end, on the
        pose.  It is a bound only because the model is deterministic and
        its parameters are physical (non-negative forces, resistances
        and braking): an unbounded random term, such as Gaussian process
        noise on the acceleration, would break it.
        """
        s = self.state
        p = self._params
        steps = math.ceil(horizon / self.dt) + 1
        span = steps * self.dt
        top_speed = abs(s.speed) + max(p.max_motor_force, 0.0) / p.mass * span
        bound = span * (top_speed + steps * math.ulp(top_speed))
        rounding = (steps + 2) * 2.0 * math.ulp(abs(s.x) + abs(s.y) + bound)
        return bound * (1.0 + 1e-9) + rounding

    def _integrate(self, dt: float) -> None:
        p = self._params
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
        new_speed = max(0.0, s.speed + acceleration * dt)
        # Kinematic bicycle pose update at the average speed.
        mean_speed = 0.5 * (s.speed + new_speed)
        s.x += mean_speed * math.cos(s.heading) * dt
        s.y += mean_speed * math.sin(s.heading) * dt
        if abs(s.steering) > 1e-9:
            s.heading += (mean_speed / p.wheelbase) * math.tan(s.steering) \
                * dt
            s.heading = (s.heading + math.pi) % (2 * math.pi) - math.pi
        self._odometer += mean_speed * dt
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
