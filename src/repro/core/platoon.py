"""Platooning extension (the paper's future work, Section V).

"We also plan to extend the testbed to support connected platoons
(i.e., more robotic vehicles that are following each other), and
evaluate the detection-to-action delay for the entire platoon.  There
is room to explore multi-technology solutions in this later case
(e.g., platoon leader is 5G-capable while intra-platoon message
forwarding is based on IEEE 802.11p)."

This module implements both arrangements:

* **all-ITS-G5**: the RSU GeoBroadcasts the DENM; members that cannot
  hear the RSU directly receive it through GBC re-forwarding by the
  members ahead (multi-hop).  A short-range radio profile makes the
  hops visible.
* **multi-technology**: the edge server delivers the warning to the
  5G-capable leader over the cellular link; the leader's own DEN
  service then GeoBroadcasts it to the followers over 802.11p.

Members are simplified longitudinal vehicles (constant-spacing
follower control) with full OBUs; each polls its OBU like the real
vehicle does.  The experiment reports the per-member
warning-to-actuation delay and the platoon's minimum inter-vehicle
gap during the stop (no pile-up = success).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from repro.facilities.den_service import DenConfig
from repro.geonet.position import LocalFrame
from repro.messages.common import StationType
from repro.net.fiveg import FivegCell, FivegConfig
from repro.net.medium import WirelessMedium
from repro.net.phy import PhyConfig
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.openc2x.http import HttpClient
from repro.openc2x.unit import OpenC2XUnit, RoadSideUnit
from repro.sim.kernel import Simulator, build_simulator
from repro.sim.randomness import RandomStreams
from repro.vehicle.message_handler import MessageHandler


@dataclasses.dataclass(frozen=True)
class PlatoonScenario:
    """Parameters of the platoon emergency-stop experiment."""

    members: int = 4
    #: Inter-vehicle spacing (m) and speed (m/s).
    spacing: float = 6.0
    speed: float = 2.0
    desired_gap: float = 6.0
    #: Leader's distance from the RSU when the DENM fires (m).
    leader_distance: float = 12.0
    #: "its_g5" (RSU GeoBroadcast + forwarding) or "5g_leader"
    #: (cellular to the leader, 802.11p intra-platoon).
    leader_interface: str = "its_g5"
    #: Short-range radio profile: low power + steeper path loss, so a
    #: tail member cannot hear the RSU directly and GBC forwarding is
    #: what reaches it.
    tx_power_dbm: float = -20.0
    path_loss_exponent: float = 3.0
    gbc_hop_limit: int = 5
    poll_interval: float = 0.02
    #: Emergency deceleration (m/s^2).
    brake_deceleration: float = 4.5
    #: Follower control gains.
    gap_gain: float = 0.8
    speed_gain: float = 1.6
    timeout: float = 20.0
    seed: int = 1
    #: Kernel tie-break policy for same-timestamp events.
    tie_break: str = "fifo"

    def with_seed(self, seed: int) -> "PlatoonScenario":
        """Copy with a different seed."""
        return dataclasses.replace(self, seed=seed)


@dataclasses.dataclass
class MemberOutcome:
    """Per-member measurement."""

    index: int
    denm_received_at: Optional[float] = None
    actuated_at: Optional[float] = None
    halted_at: Optional[float] = None
    stop_position: float = 0.0

    def warning_delay(self, warning_time: float) -> Optional[float]:
        """Warning issue -> this member's actuation (s)."""
        if self.actuated_at is None:
            return None
        return self.actuated_at - warning_time


@dataclasses.dataclass
class PlatoonResult:
    """Outcome of one platoon run."""

    scenario: PlatoonScenario
    warning_time: float
    members: List[MemberOutcome]
    min_gap: float
    collisions: int

    @property
    def all_stopped(self) -> bool:
        """Whether every member halted."""
        return all(m.halted_at is not None for m in self.members)

    def member_delays_ms(self) -> List[Optional[float]]:
        """Warning-to-actuation delay per member (ms)."""
        out = []
        for member in self.members:
            delay = member.warning_delay(self.warning_time)
            out.append(None if delay is None else delay * 1000.0)
        return out

    @property
    def platoon_delay_ms(self) -> Optional[float]:
        """The entire platoon's detection-to-action delay (ms): the
        slowest member."""
        delays = [d for d in self.member_delays_ms() if d is not None]
        return max(delays) if delays and len(delays) == len(
            self.members) else None


class PlatoonMember:
    """A simplified longitudinal vehicle with an OBU and a poller.

    Drives in -x towards the RSU at the origin; ``emergency_stop`` is
    the planner-compatible entry point the MessageHandler calls.
    """

    DT = 5e-3

    def __init__(self, sim: Simulator, scenario: PlatoonScenario,
                 index: int, x: float,
                 predecessor: Optional["PlatoonMember"],
                 first_tick: Optional[float] = None):
        self.sim = sim
        self.scenario = scenario
        self.index = index
        self.x = x
        self.speed = scenario.speed
        self.predecessor = predecessor
        self.braking = False
        self.outcome = MemberOutcome(index=index)
        self.emergency_engaged = False
        #: Actuation latency before brake force applies (s).
        self.actuation_delay = 0.012
        # Fleet scenarios stagger members' first ticks so control
        # updates never share a timestamp (follower control reads its
        # predecessor's state, so tied ticks would be order-sensitive
        # across tie-break policies); the default keeps the platoon
        # experiment's shared DT grid.
        sim.schedule(self.DT if first_tick is None else first_tick,
                     self._tick)

    # The MessageHandler duck-types against MotionPlanner.
    def emergency_stop(self, reason: str = "denm") -> None:
        """Engage braking (idempotent); records the actuation time."""
        if self.emergency_engaged:
            return
        self.emergency_engaged = True
        self.outcome.actuated_at = self.sim.now
        self.sim.schedule(self.actuation_delay, self._apply_brake)

    def _apply_brake(self) -> None:
        self.braking = True

    def _tick(self) -> None:
        sc = self.scenario
        if self.braking:
            accel = -sc.brake_deceleration
        elif self.predecessor is None:
            accel = 0.0  # leader cruises
        else:
            gap = self.x - self.predecessor.x - 0.53
            accel = (sc.gap_gain * (gap - sc.desired_gap)
                     + sc.speed_gain * (self.predecessor.speed - self.speed))
            accel = max(-sc.brake_deceleration, min(2.0, accel))
        new_speed = max(0.0, self.speed + accel * self.DT)
        self.x -= 0.5 * (self.speed + new_speed) * self.DT
        self.speed = new_speed
        if self.braking and self.speed <= 1e-3 \
                and self.outcome.halted_at is None:
            self.outcome.halted_at = self.sim.now
            self.outcome.stop_position = self.x
        self.sim.schedule(
            # detlint: ignore[SCH001] -- deliberate shared DT: members
            # interact only via CAM delivery at strictly later times,
            # and the ordering is pinned by the scenario tie_break input
            self.DT, self._tick)

    def position(self) -> Tuple[float, float]:
        """(x, y) in the lab frame."""
        return (self.x, 0.0)


class PlatoonTestbed:
    """One instantiated platoon emergency-stop run."""

    def __init__(self, scenario: Optional[PlatoonScenario] = None):
        self.scenario = scenario or PlatoonScenario()
        sc = self.scenario
        if sc.leader_interface not in ("its_g5", "5g_leader"):
            raise ValueError(
                f"unknown leader interface {sc.leader_interface!r}")
        self.streams = RandomStreams(sc.seed)
        self.sim = build_simulator(sc.tie_break, self.streams)
        self.frame = LocalFrame()
        self.medium = WirelessMedium(
            self.sim, sc.seed,
            LinkBudget(path_loss=LogDistancePathLoss(
                exponent=sc.path_loss_exponent)))
        phy = PhyConfig(tx_power_dbm=sc.tx_power_dbm)
        den_config = DenConfig(hop_limit=sc.gbc_hop_limit)

        # RSU at the origin.
        self.rsu = RoadSideUnit(
            self.sim, self.medium, self.streams, name="rsu",
            station_id=900, station_type=StationType.ROAD_SIDE_UNIT,
            position=self.frame.anchor(lambda: (0.0, 1.0)),
            phy=phy, is_rsu=True, local_frame=self.frame,
            den_config=den_config)

        # Members, leader first, spaced behind.
        self.members: List[PlatoonMember] = []
        self.units: List[OpenC2XUnit] = []
        self.handlers: List[MessageHandler] = []
        predecessor: Optional[PlatoonMember] = None
        for index in range(sc.members):
            x = sc.leader_distance + index * sc.spacing
            member = PlatoonMember(self.sim, sc, index, x, predecessor)
            unit = OpenC2XUnit(
                self.sim, self.medium, self.streams,
                name=f"obu-{index}",
                station_id=101 + index,
                station_type=StationType.PASSENGER_CAR,
                position=self.frame.anchor(member.position),
                dynamics=lambda m=member: (m.speed, 270.0),
                phy=phy,
                local_frame=self.frame,
                den_config=den_config,
            )
            unit.on_event(
                lambda event, record, m=member: self._on_unit_event(
                    m, event, record))
            handler = MessageHandler(
                self.sim, unit.http, member,
                rng=self.streams.get(f"handler.{index}"),
                poll_interval=sc.poll_interval)
            self.members.append(member)
            self.units.append(unit)
            self.handlers.append(handler)
            predecessor = member

        # Warning delivery path.
        self.warning_time: Optional[float] = None
        self._client = HttpClient(self.sim, self.streams.get("edge.http"),
                                  name="edge")
        if sc.leader_interface == "5g_leader":
            self.cell = FivegCell(self.sim, self.streams.get("fiveg"),
                                  FivegConfig())
            self._server_station = self.cell.station("edge-server")
            self._leader_station = self.cell.station("leader")
            self._leader_station.on_receive(self._on_leader_5g)
        self.min_gap = math.inf
        self.sim.schedule(PlatoonMember.DT, self._watch_gaps)

    # ------------------------------------------------------------------
    # Warning paths
    # ------------------------------------------------------------------

    def issue_warning(self) -> None:
        """The edge detected a hazard: deliver the warning now."""
        self.warning_time = self.sim.now
        sc = self.scenario
        if sc.leader_interface == "its_g5":
            body = self._denm_body()
            self._client.post(self.rsu.http, "/trigger_denm", body)
        else:
            # Cellular to the leader; ~200 bytes of application JSON.
            self._server_station.send("leader", self._denm_body(), 200)

    def _denm_body(self) -> Dict:
        event_geo = self.frame.to_geo(0.0, 0.0)
        return {
            "causeCode": 97,
            "subCauseCode": 1,
            "latitude": event_geo.latitude,
            "longitude": event_geo.longitude,
            "areaRadius": 120.0,
            "validityDuration": 10,
        }

    def _on_leader_5g(self, body: Dict, _latency: float) -> None:
        # The leader brakes on the cellular warning and re-advertises
        # it to the followers over 802.11p through its own DEN service.
        self.members[0].emergency_stop(reason="5g")
        if self.members[0].outcome.denm_received_at is None:
            self.members[0].outcome.denm_received_at = self.sim.now
        self._client.post(self.units[0].http, "/trigger_denm", body)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _on_unit_event(self, member: PlatoonMember, event: str,
                       record: Dict) -> None:
        if event == "denm_received" \
                and member.outcome.denm_received_at is None:
            member.outcome.denm_received_at = record["sim_time"]

    def _watch_gaps(self) -> None:
        for ahead, behind in zip(self.members, self.members[1:]):
            gap = behind.x - ahead.x - 0.53
            self.min_gap = min(self.min_gap, gap)
        self.sim.schedule(PlatoonMember.DT, self._watch_gaps)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, warning_after: float = 2.0) -> PlatoonResult:
        """Cruise, fire the warning at *warning_after*, run to stop."""
        self.sim.schedule(warning_after, self.issue_warning)
        self.sim.run_until(self.scenario.timeout)
        collisions = sum(1 for ahead, behind in zip(self.members,
                                                    self.members[1:])
                         if behind.x - ahead.x - 0.53 <= 0.0)
        assert self.warning_time is not None
        return PlatoonResult(
            scenario=self.scenario,
            warning_time=self.warning_time,
            members=[member.outcome for member in self.members],
            min_gap=self.min_gap,
            collisions=collisions,
        )


def run_platoon(scenario: Optional[PlatoonScenario] = None,
                warning_after: float = 2.0) -> PlatoonResult:
    """Build and run one platoon experiment."""
    return PlatoonTestbed(scenario).run(warning_after)
