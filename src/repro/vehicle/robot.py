"""The assembled robotic vehicle.

Wires the full in-vehicle chain of Figure 5/6: ZED camera -> ROS topic
-> Line Detection -> Motion Planner -> Control -> Teensy/ESC ->
dynamics, plus the Jetson's NTP-disciplined clock and the halt
watcher that produces the paper's step-6 observation (the vehicle has
come to a complete stop).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.clock import DeviceClock, NtpModel
from repro.sim.kernel import Simulator
from repro.sim.randomness import RandomStreams
from repro.vehicle.control import ActuationConfig, ActuationPath, ControlModule
from repro.vehicle.dynamics import VehicleDynamics, VehicleParams, VehicleState
from repro.vehicle.line_follow import LineDetectionNode
from repro.vehicle.motion_planner import MotionPlanner
from repro.vehicle.ros import RosConfig, RosGraph
from repro.vehicle.sensors import ZedCamera
from repro.vehicle.track import StraightTrack, Track
from repro.vision.image import LineViewConfig

EventHook = Callable[[str, Dict[str, Any]], None]


class RoboticVehicle:
    """One 1/10-scale autonomous vehicle following a line."""

    #: Period of the halt watcher once the emergency stop engaged (s).
    HALT_CHECK_PERIOD = 5e-3

    def __init__(
        self,
        sim: Simulator,
        streams: RandomStreams,
        name: str = "vehicle",
        track: Optional[Track] = None,
        params: Optional[VehicleParams] = None,
        initial_state: Optional[VehicleState] = None,
        camera_fps: float = 15.0,
        cruise_throttle: float = 0.19,
        ntp: Optional[NtpModel] = None,
        view: Optional[LineViewConfig] = None,
        actuation_config: Optional[ActuationConfig] = None,
        ros_config: Optional[RosConfig] = None,
        inference_latency: float = 0.015,
        autostart: bool = True,
    ):
        self.sim = sim
        self.name = name
        self.track = track or StraightTrack()
        scoped = streams.spawn(f"vehicle.{name}")
        self.clock = DeviceClock(
            sim, scoped.get("clock"), ntp or NtpModel.lan_default(),
            name=f"{name}.clock")
        self.dynamics = VehicleDynamics(
            sim, params=params, state=initial_state)
        self.ros = RosGraph(sim, scoped.get("ros"), ros_config)
        view = view or LineViewConfig()
        frames_topic = self.ros.topic("camera/frames")
        estimates_topic = self.ros.topic("line/estimates")
        self.camera = ZedCamera(
            sim, self.dynamics, self.track,
            publish=frames_topic.publish,
            fps=camera_fps, view=view, rng=scoped.get("camera"))
        self.detector = LineDetectionNode(
            sim, publish=estimates_topic.publish, view=view,
            inference_latency=inference_latency,
            rng=scoped.get("detector"))
        frames_topic.subscribe(self.detector.on_frame)
        self.actuation = ActuationPath(
            sim, self.dynamics, rng=scoped.get("actuation"),
            config=actuation_config)
        self.control = ControlModule(sim, self.actuation, self.clock)
        self.planner = MotionPlanner(
            sim, self.control, cruise_throttle=cruise_throttle)
        estimates_topic.subscribe(self.planner.on_line_estimate)
        self._hooks: List[EventHook] = []
        self.halted_at: Optional[float] = None
        self.halt_position: Optional[Tuple[float, float]] = None
        self.control.on_event(self._relay)
        self._halt_watch_armed = False
        if autostart:
            sim.schedule(0.0, self.planner.start)

    # ------------------------------------------------------------------
    # Measurement hooks
    # ------------------------------------------------------------------

    def on_event(self, hook: EventHook) -> None:
        """Register a hook for vehicle events (steps 5 and 6)."""
        self._hooks.append(hook)

    def _emit(self, event: str, record: Dict[str, Any]) -> None:
        enriched = {"vehicle": self.name}
        enriched.update(record)
        for hook in self._hooks:
            hook(event, enriched)

    def _relay(self, event: str, record: Dict[str, Any]) -> None:
        self._emit(event, record)
        if event == "actuators_commanded" and not self._halt_watch_armed:
            self._halt_watch_armed = True
            self.sim.schedule(self.HALT_CHECK_PERIOD, self._check_halt)

    def _check_halt(self) -> None:
        if self.dynamics.is_stopped:
            self.halted_at = self.sim.now
            self.halt_position = self.dynamics.state.position()
            self._emit("vehicle_halted", {
                "clock_time": self.clock.now(),
                "sim_time": self.sim.now,
                "x": self.dynamics.state.x,
                "y": self.dynamics.state.y,
            })
            return
        self.sim.schedule(self.HALT_CHECK_PERIOD, self._check_halt)

    # ------------------------------------------------------------------
    # Convenience read-outs
    # ------------------------------------------------------------------

    @property
    def position(self) -> Tuple[float, float]:
        """Current (x, y) in metres."""
        return self.dynamics.state.position()

    @property
    def speed(self) -> float:
        """Current speed (m/s)."""
        return self.dynamics.state.speed

    @property
    def heading_degrees(self) -> float:
        """Heading converted to degrees clockwise from north (the ITS
        convention), from the lab frame's counter-clockwise-from-east."""
        return (90.0 - math.degrees(self.dynamics.state.heading)) % 360.0

    def emergency_stop(self, reason: str = "manual") -> None:
        """Engage the emergency stop directly (bypassing the handler)."""
        self.planner.emergency_stop(reason)
