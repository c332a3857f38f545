"""The Control module and the Teensy/USART/ESC actuation path.

Commands from the Motion Planner reach the wheels through: Control
module -> USART to the Teensy MCU -> PWM to ESC / steering servo.
:class:`ActuationPath` charges that chain's latency (USART transfer +
MCU loop + PWM edge alignment) before the command takes effect on the
dynamics.  :class:`ControlModule` is the ROS-side endpoint: it applies
steering/throttle and implements the emergency stop, emitting the
paper's step-5 timestamp ("the vehicle ECU registers the time at
which a command is sent to the physical actuators").
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.sim.clock import DeviceClock
from repro.sim.kernel import Simulator
from repro.vehicle.dynamics import VehicleDynamics

EventHook = Callable[[str, Dict[str, Any]], None]


@dataclasses.dataclass(frozen=True)
class ActuationConfig:
    """Latency components of the command path."""

    #: USART transfer + Teensy loop latency mean (s).
    usart_mean: float = 1.5e-3
    usart_std: float = 0.5e-3
    #: ESC PWM refresh period (s); commands align to the next edge.
    pwm_period: float = 10e-3


class ActuationPath:
    """Delivers commands to the dynamics after the hardware latency."""

    def __init__(self, sim: Simulator, dynamics: VehicleDynamics,
                 rng: Optional[np.random.Generator] = None,
                 config: Optional[ActuationConfig] = None):
        self.sim = sim
        self.dynamics = dynamics
        self.rng = rng or np.random.default_rng(0)
        self.config = config or ActuationConfig()
        self.commands_delivered = 0
        #: Fault-injection seam: a blocked path (wedged MCU / dead
        #: USART) silently loses every command issued while blocked.
        self.blocked = False
        self.commands_dropped = 0

    def _latency(self) -> float:
        usart = max(0.0, float(self.rng.normal(
            self.config.usart_mean, self.config.usart_std)))
        arrival = self.sim.now + usart
        # Align to the next PWM refresh edge.
        period = self.config.pwm_period
        edges_passed = int(arrival // period) + 1
        pwm_edge = edges_passed * period
        return pwm_edge - self.sim.now

    def apply(self, command: Callable[[VehicleDynamics], None]) -> float:
        """Run *command* on the dynamics after the path latency.

        Returns the latency charged (s).
        """
        if self.blocked:
            self.commands_dropped += 1
            obs = self.sim.obs
            if obs is not None:
                obs.count("vehicle.commands_dropped")
            return 0.0
        latency = self._latency()

        def deliver() -> None:
            self.commands_delivered += 1
            obs = self.sim.obs
            if obs is not None:
                obs.count("vehicle.commands_delivered")
            command(self.dynamics)

        self.sim.schedule(latency, deliver)
        return latency


class ControlModule:
    """The vehicle-side endpoint for steering/throttle/stop commands."""

    def __init__(self, sim: Simulator, actuation: ActuationPath,
                 clock: DeviceClock):
        self.sim = sim
        self.actuation = actuation
        self.clock = clock
        self._hooks: List[EventHook] = []
        self.stopped = False
        self.steering_commands = 0
        self.throttle_commands = 0
        self.stop_commanded_at: Optional[float] = None

    def on_event(self, hook: EventHook) -> None:
        """Register a measurement hook (step-5 timestamps)."""
        self._hooks.append(hook)

    def _emit(self, event: str, **fields: Any) -> None:
        record = {"clock_time": self.clock.now(), "sim_time": self.sim.now}
        record.update(fields)
        for hook in self._hooks:
            hook(event, record)

    def command_steering(self, angle: float) -> None:
        """Forward a steering angle to the servo (ignored once stopped)."""
        if self.stopped:
            return
        self.steering_commands += 1
        self.actuation.apply(lambda dyn: dyn.set_steering(angle))

    def command_throttle(self, throttle: float) -> None:
        """Forward a throttle duty to the ESC (ignored once stopped)."""
        if self.stopped:
            return
        self.throttle_commands += 1
        self.actuation.apply(lambda dyn: dyn.set_throttle(throttle))

    def emergency_stop(self, reason: str = "denm") -> None:
        """Cut power to the wheels (the paper's stop procedure).

        Idempotent: only the first call acts and timestamps step 5.
        """
        if self.stopped:
            return
        self.stopped = True
        self.stop_commanded_at = self.sim.now
        obs = self.sim.obs
        if obs is not None:
            obs.count("vehicle.emergency_stops", reason=reason)
        self._emit("actuators_commanded", reason=reason)
        self.actuation.apply(lambda dyn: dyn.cut_power(brake=True))

    def release(self) -> None:
        """Clear the stop latch (e.g. a red light turned green)."""
        self.stopped = False
        self.stop_commanded_at = None
