"""The blind-corner intersection: the use-case the testbed motivates.

Two roads cross at the origin; a building wall occludes the corner so
"approaching vehicle do not have Line-of-Sight to other inflow roads"
(paper Section I).  The protagonist (a full robotic vehicle with OBU)
approaches along -x -> 0 -> +x; a non-ITS road user crosses on the
other road.  Two configurations are compared (ablation A4):

* **onboard-only**: the protagonist relies on its own LiDAR.  The
  wall hides the crossing vehicle until the last metres, so braking
  starts too late and the conflict zone is violated.
* **network-aided**: the road-side camera sees the crossing road
  (it is placed past the wall), the edge node issues a Collision Risk
  DENM through the RSU, and the protagonist stops short of the
  conflict zone.

The experiment reports, per configuration: whether a collision
occurred, the minimum vehicle separation, and the stop margin to the
conflict zone.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

from repro.core.measurement import StepTimeline, Steps
from repro.geonet.position import LocalFrame
from repro.messages.common import StationType
from repro.net.medium import WirelessMedium
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.openc2x.unit import OnBoardUnit, RoadSideUnit
from repro.roadside.camera import SceneObject
from repro.roadside.edge_node import EdgeNode
from repro.roadside.hazard_service import HazardConfig
from repro.sim.kernel import Simulator, build_simulator
from repro.sim.randomness import RandomStreams
from repro.sim.tie_audit import TieAudit
from repro.vehicle.dynamics import VehicleState
from repro.vehicle.message_handler import MessageHandler
from repro.vehicle.robot import RoboticVehicle
from repro.vehicle.sensors import Lidar, LidarScan
from repro.vehicle.track import StraightTrack


@dataclasses.dataclass(frozen=True)
class BlindCornerScenario:
    """Geometry and parameters of the intersection experiment."""

    #: Protagonist start (m before the intersection, on the -x road).
    protagonist_start: float = 7.0
    #: Protagonist cruise throttle (faster than the braking test: the
    #: point is arriving with too little stopping distance).
    protagonist_throttle: float = 0.25
    #: Crossing road user start (m before the intersection, on +y).
    crosser_start: float = 4.9
    #: Crossing road user speed (m/s), constant.
    crosser_speed: float = 1.1
    #: Half-size of the square conflict zone at the origin (m).
    conflict_half_width: float = 0.35
    #: The occluding wall: a segment near the (-x, +y) corner.
    wall: Tuple[Tuple[float, float], Tuple[float, float]] = (
        (-0.8, 0.8), (-6.0, 0.8))
    #: Second wall leg along the crossing road.
    wall_leg: Tuple[Tuple[float, float], Tuple[float, float]] = (
        (-0.8, 0.8), (-0.8, 6.0))
    #: Camera position: mounted past the corner, viewing the crossing
    #: road (judicious placement, per the paper).
    camera_position: Tuple[float, float] = (0.6, 0.4)
    #: Camera facing: up the crossing road.
    camera_facing: float = math.radians(90.0)
    #: Hazard action distance along the crossing road (m from camera).
    action_distance: float = 2.8
    #: LiDAR braking rule: stop when an obstacle is within this
    #: time-to-collision (s).
    lidar_ttc_threshold: float = 1.2
    timeout: float = 30.0
    seed: int = 1
    #: Kernel tie-break policy for same-timestamp events (``"fifo"``,
    #: ``"lifo"`` or ``"seeded"``); results must be bit-identical
    #: under all three (the ``tie-audit`` workflow's default check).
    tie_break: str = "fifo"
    infrastructure: bool = True
    #: Infrastructure channel: "denm" (reactive warning, the paper's
    #: pattern) or "cpm" (proactive collective perception -- the edge
    #: shares its sensor picture and the vehicle decides itself).
    warning: str = "denm"
    #: CPM mode: conflict declared when both parties' ETAs to the
    #: conflict zone are within this window (s).
    conflict_window: float = 1.2
    #: Full event lifecycle: the edge cancels the DENM once the
    #: crossing road user has left the hazard region, and the
    #: protagonist resumes on the cancellation.
    all_clear: bool = False

    def with_seed(self, seed: int) -> "BlindCornerScenario":
        """Copy with a different seed."""
        return dataclasses.replace(self, seed=seed)


@dataclasses.dataclass
class BlindCornerResult:
    """Outcome of one intersection run."""

    infrastructure: bool
    collision: bool
    min_separation: float
    protagonist_stopped: bool
    stop_margin: float           # distance short of the conflict zone (m)
    denm_received: bool
    lidar_triggered: bool
    timeline: StepTimeline
    cpm_objects_learned: int = 0
    cpm_triggered: bool = False

    def to_dict(self) -> dict:
        """Canonical JSON-serialisable form (infinities as strings)."""
        return {
            "infrastructure": self.infrastructure,
            "collision": self.collision,
            "min_separation": _encode_float(self.min_separation),
            "protagonist_stopped": self.protagonist_stopped,
            "stop_margin": _encode_float(self.stop_margin),
            "denm_received": self.denm_received,
            "lidar_triggered": self.lidar_triggered,
            "timeline": self.timeline.to_dict(),
            "cpm_objects_learned": self.cpm_objects_learned,
            "cpm_triggered": self.cpm_triggered,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BlindCornerResult":
        """Rebuild a result serialised by :meth:`to_dict`."""
        return cls(
            infrastructure=bool(data["infrastructure"]),
            collision=bool(data["collision"]),
            min_separation=_decode_float(data["min_separation"]),
            protagonist_stopped=bool(data["protagonist_stopped"]),
            stop_margin=_decode_float(data["stop_margin"]),
            denm_received=bool(data["denm_received"]),
            lidar_triggered=bool(data["lidar_triggered"]),
            timeline=StepTimeline.from_dict(data["timeline"]),
            cpm_objects_learned=int(data["cpm_objects_learned"]),
            cpm_triggered=bool(data["cpm_triggered"]),
        )


def _encode_float(value: float) -> object:
    """JSON-portable float: infinities become tagged strings."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _decode_float(value: object) -> float:
    """Inverse of :func:`_encode_float`."""
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)  # type: ignore[arg-type]


class _ScriptedCrosser:
    """The non-ITS road user: constant speed along -y towards/through
    the intersection.

    It moves in steps of ``dt`` on its own grid with no event of its
    own: :meth:`position` first takes every step due at or before
    ``sim.now`` (the catch-up discipline of
    :class:`~repro.vehicle.dynamics.VehicleDynamics`), so every reader
    at a given sim time sees the same position under any kernel
    tie-break order.
    """

    def __init__(self, sim: Simulator, start_y: float, speed: float,
                 dt: float = 5e-3):
        self.sim = sim
        self.x = 0.0
        self.y = start_y
        self.speed = speed
        self.heading = -math.pi / 2.0
        self.dt = dt
        self._due = sim.now + dt

    def _catch_up(self) -> None:
        now = self.sim.now
        while now >= self._due:
            self._due += self.dt
            self.y -= self.speed * self.dt

    def position(self) -> Tuple[float, float]:
        """Current (x, y)."""
        self._catch_up()
        return (self.x, self.y)


class BlindCornerTestbed:
    """One instantiated intersection run."""

    WATCH_PERIOD = 2e-3

    def __init__(self, scenario: Optional[BlindCornerScenario] = None,
                 tie_audit: Optional["TieAudit"] = None):
        self.scenario = scenario or BlindCornerScenario()
        sc = self.scenario
        self.streams = RandomStreams(sc.seed)
        self.sim = build_simulator(sc.tie_break, self.streams)
        # Install the audit before any device schedules, so even
        # constructor-armed first shots carry real site ids.
        if tie_audit is not None:
            self.sim.tie_audit = tie_audit
        self.frame = LocalFrame()
        self.timeline = StepTimeline()
        self.min_separation = math.inf
        self.collision = False
        self.lidar_triggered = False
        self.denm_received = False

        # Protagonist drives +x towards (and through) the origin.
        self.protagonist = RoboticVehicle(
            self.sim, self.streams, name="protagonist",
            track=StraightTrack(direction=0.0),
            initial_state=VehicleState(x=-sc.protagonist_start, y=0.0,
                                       heading=0.0),
            cruise_throttle=sc.protagonist_throttle,
        )
        self.crosser = _ScriptedCrosser(self.sim, sc.crosser_start,
                                        sc.crosser_speed)

        # LiDAR with the occluding wall (both configurations carry it;
        # only the onboard-only configuration acts on it).
        walls = [sc.wall, sc.wall_leg]
        self.lidar = Lidar(
            self.sim, self.protagonist.dynamics,
            obstacles=lambda: [(*self.crosser.position(), 0.25)],
            walls=lambda: walls,
            publish=self._on_lidar_scan,
            rate_hz=10.0,
            rng=self.streams.get("lidar"),
        )

        self.cpm_triggered = False
        self._vehicle_cp = None
        if sc.infrastructure:
            self._build_infrastructure()
            if sc.warning == "cpm":
                self._build_collective_perception()
            elif sc.warning != "denm":
                raise ValueError(f"unknown warning mode {sc.warning!r}")
        self.sim.schedule(self.WATCH_PERIOD, self._watch)

    def _build_infrastructure(self) -> None:
        sc = self.scenario
        self.medium = WirelessMedium(
            self.sim, sc.seed, LinkBudget(path_loss=LogDistancePathLoss()))
        self.obu = OnBoardUnit(
            self.sim, self.medium, self.streams, name="obu",
            station_id=101, station_type=StationType.PASSENGER_CAR,
            position=self.frame.anchor(lambda: self.protagonist.position),
            dynamics=lambda: (self.protagonist.speed,
                              self.protagonist.heading_degrees),
            local_frame=self.frame,
        )
        self.rsu = RoadSideUnit(
            self.sim, self.medium, self.streams, name="rsu",
            station_id=900, station_type=StationType.ROAD_SIDE_UNIT,
            position=self.frame.anchor(lambda: (1.0, 1.0)),
            is_rsu=True, local_frame=self.frame,
        )
        if sc.warning == "cpm":
            # Collective perception replaces the reactive DENM path:
            # neutralise the hazard trigger entirely.
            hazard_config = HazardConfig(
                action_distance=0.0, mode="threshold",
                treat_default_as_close=False)
        else:
            hazard_config = HazardConfig(
                action_distance=sc.action_distance, mode="ldm",
                cancel_when_clear=sc.all_clear)
        self.edge = EdgeNode(
            self.sim, self.streams, rsu_server=self.rsu.http,
            camera_position=sc.camera_position,
            camera_facing=sc.camera_facing,
            camera_fps=15.0,
            hazard_config=hazard_config,
            local_frame=self.frame,
            ldm=self.rsu.station.ldm,
        )
        # The crossing road user is a bare (shell-less) scale vehicle:
        # exactly the unreliable-detection case of Figure 7a... we give
        # it the body shell so detection works at the camera's range.
        self.edge.watch(SceneObject(
            name="crosser", kind="shell_vehicle",
            position=self.crosser.position,
            heading=lambda: self.crosser.heading,
            speed=lambda: self.crosser.speed,
        ))
        self.handler = MessageHandler(
            self.sim, self.obu.http, self.protagonist.planner,
            rng=self.streams.get("handler"), poll_interval=0.02,
            stop_on_denm=(self.scenario.warning == "denm"),
            resume_on_termination=self.scenario.all_clear)
        self.edge.on_event(self._on_edge_event)
        self.obu.on_event(self._on_obu_event)

    def _build_collective_perception(self) -> None:
        from repro.facilities.cp_service import CpConfig, CpService
        from repro.messages.cpm import PerceivedObject

        rsu_position = (1.0, 1.0)

        def provider():
            # Share what the edge camera currently sees, with the
            # crossing direction from the scripted dynamics (a real
            # deployment would read the tracker's velocity estimate).
            objects = []
            for index, visible in enumerate(self.edge.camera.observe()):
                objects.append(PerceivedObject(
                    object_id=index,
                    x_offset=visible.position[0] - rsu_position[0],
                    y_offset=visible.position[1] - rsu_position[1],
                    x_speed=0.0,
                    y_speed=-visible.speed,
                    confidence=0.8,
                    classification="passengerCar",
                ))
            return objects

        self.rsu_cp = CpService(
            self.sim, self.rsu.station.router, self.rsu.station.ldm,
            station_id=900, station_type=StationType.ROAD_SIDE_UNIT,
            position=self.frame.anchor(lambda: rsu_position),
            its_time=self.rsu.station.its_time,
            local_frame=self.frame,
            provider=provider,
            config=CpConfig(rate=5.0))
        self._vehicle_cp = CpService(
            self.sim, self.obu.station.router, self.obu.station.ldm,
            station_id=101, station_type=StationType.PASSENGER_CAR,
            position=self.frame.anchor(lambda: self.protagonist.position),
            its_time=self.obu.station.its_time,
            local_frame=self.frame)
        self.sim.schedule(0.05, self._collision_monitor)

    def _collision_monitor(self) -> None:
        """The protagonist's own decision loop over the shared LDM."""
        from repro.facilities.ldm import ObjectKind

        if not self.protagonist.planner.emergency_engaged:
            speed = self.protagonist.speed
            px, _py = self.protagonist.position
            my_eta = math.inf if speed < 0.05 else (0.0 - px) / speed
            for entry in self.obu.station.ldm.query(
                    kinds=[ObjectKind.ROAD_USER], not_older_than=0.6):
                ox, oy = self.frame.to_local(entry.position)
                obj = entry.data
                vy = getattr(obj, "y_speed", 0.0)
                if vy >= -0.05:
                    continue  # not approaching the conflict zone
                their_eta = oy / -vy
                if (0.0 <= my_eta < 8.0
                        and abs(their_eta - my_eta)
                        < self.scenario.conflict_window):
                    # Would we still be able to stop short of the zone?
                    margin = (-self.scenario.conflict_half_width - px)
                    stopping = (speed * speed
                                / (2.0 * self.protagonist.dynamics
                                   .params.max_braking))
                    if margin <= stopping + 0.6:
                        self.cpm_triggered = True
                        self.protagonist.emergency_stop(reason="cpm")
                        break
        self.sim.schedule(
            # detlint: ignore[SCH001] -- benign: the monitor only
            # reads catch-up state; tie-audit shows bit-identity
            0.05, self._collision_monitor)

    # ------------------------------------------------------------------
    # Event wiring
    # ------------------------------------------------------------------

    def _on_edge_event(self, event: str, record: dict) -> None:
        if event == "hazard_detected":
            self.timeline.record(Steps.DETECTION,
                                 sim_time=record["sim_time"],
                                 clock_time=record["clock_time"])

    def _on_obu_event(self, event: str, record: dict) -> None:
        if event == "denm_received":
            self.denm_received = True
            self.timeline.record(Steps.OBU_RECEIVED,
                                 sim_time=record["sim_time"],
                                 clock_time=record["clock_time"])

    def _on_lidar_scan(self, scan: LidarScan) -> None:
        if self.scenario.infrastructure:
            return  # network-aided configuration ignores the LiDAR rule
        speed = self.protagonist.speed
        if speed < 0.05:
            return
        state = self.protagonist.dynamics.state
        corridor = self.scenario.conflict_half_width + 0.15
        for bearing, distance in zip(scan.bearings, scan.ranges):
            if distance >= self.lidar.max_range:
                continue
            # Where did this beam land?  Static walls sit outside the
            # driving corridor; only in-corridor returns are treated as
            # obstacles (a real planner filters against the map).
            direction = state.heading + bearing
            hit_y = state.y + distance * math.sin(direction)
            hit_x = state.x + distance * math.cos(direction)
            if abs(hit_y) > corridor or hit_x <= state.x:
                continue
            ttc = distance / speed
            if ttc < self.scenario.lidar_ttc_threshold:
                self.lidar_triggered = True
                self.protagonist.emergency_stop(reason="lidar")
                return

    # ------------------------------------------------------------------
    # Conflict monitoring
    # ------------------------------------------------------------------

    def _watch(self) -> None:
        px, py = self.protagonist.position
        cx, cy = self.crosser.position()
        separation = math.hypot(px - cx, py - cy)
        self.min_separation = min(self.min_separation, separation)
        half = self.scenario.conflict_half_width
        protagonist_in = abs(px) <= half and abs(py) <= half
        crosser_in = abs(cx) <= half and abs(cy) <= half
        if protagonist_in and crosser_in:
            self.collision = True
            self.sim.stop()
            return
        self.sim.schedule(
            # detlint: ignore[SCH001] -- benign: the watcher only
            # reads catch-up state; tie-audit shows bit-identity
            self.WATCH_PERIOD, self._watch)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self) -> BlindCornerResult:
        """Execute the run and report the outcome."""
        self.sim.run_until(self.scenario.timeout)
        px, _py = self.protagonist.position
        stopped = self.protagonist.dynamics.is_stopped \
            and self.protagonist.planner.emergency_engaged
        half = self.scenario.conflict_half_width
        stop_margin = (-half - px) if stopped else -math.inf
        return BlindCornerResult(
            infrastructure=self.scenario.infrastructure,
            collision=self.collision,
            min_separation=self.min_separation,
            protagonist_stopped=stopped,
            stop_margin=stop_margin,
            denm_received=self.denm_received,
            lidar_triggered=self.lidar_triggered,
            timeline=self.timeline,
            cpm_objects_learned=(
                self._vehicle_cp.objects_learned
                if self._vehicle_cp is not None else 0),
            cpm_triggered=self.cpm_triggered,
        )


def compare_configurations(seed: int = 1,
                           scenario: Optional[BlindCornerScenario] = None,
                           ) -> Tuple[BlindCornerResult, BlindCornerResult]:
    """Run the same seed with and without infrastructure.

    Returns ``(network_aided, onboard_only)``.
    """
    base = scenario or BlindCornerScenario()
    aided = BlindCornerTestbed(
        dataclasses.replace(base, seed=seed, infrastructure=True)).run()
    onboard = BlindCornerTestbed(
        dataclasses.replace(base, seed=seed, infrastructure=False)).run()
    return aided, onboard
