"""Traffic-light services: the controller (RSU side) and the receiver.

:class:`TrafficLightController` runs a fixed-cycle signal plan for one
intersection and broadcasts SPATEM at ``spat_rate`` plus MAPEM at
``map_rate`` through the station's GeoNetworking router.
:class:`SignalPhaseService` is the vehicle side: it decodes both,
stores signal state in the LDM, and answers "may I proceed on my
approach, and how long until that changes?" -- what a red-light assist
or GLOSA application needs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.facilities.ldm import Ldm, LdmObject, ObjectKind
from repro.geonet.btp import BtpPort
from repro.geonet.position import GeoPosition
from repro.geonet.router import GeoNetRouter
from repro.messages.common import ReferencePosition
from repro.messages.spat import Lane, Mapem, MovementState, Spatem
from repro.net.frame import AccessCategory
from repro.sim.kernel import Simulator


@dataclasses.dataclass(frozen=True)
class SignalPhase:
    """One step of a fixed signal plan."""

    duration: float
    #: signal group -> event state during this step.
    states: Dict[int, str]


def two_phase_plan(green_time: float = 8.0, yellow_time: float = 2.0,
                   all_red: float = 1.0) -> List[SignalPhase]:
    """A standard two-approach plan: groups 1 (east-west) and 2
    (north-south) alternate."""
    return [
        SignalPhase(green_time, {1: "protected-Movement-Allowed",
                                 2: "stop-And-Remain"}),
        SignalPhase(yellow_time, {1: "protected-clearance",
                                  2: "stop-And-Remain"}),
        SignalPhase(all_red, {1: "stop-And-Remain",
                              2: "stop-And-Remain"}),
        SignalPhase(green_time, {1: "stop-And-Remain",
                                 2: "protected-Movement-Allowed"}),
        SignalPhase(yellow_time, {1: "stop-And-Remain",
                                  2: "protected-clearance"}),
        SignalPhase(all_red, {1: "stop-And-Remain",
                              2: "stop-And-Remain"}),
    ]


class TrafficLightController:
    """Runs the plan and broadcasts SPATEM/MAPEM."""

    def __init__(
        self,
        sim: Simulator,
        router: GeoNetRouter,
        station_id: int,
        intersection_id: int,
        position: GeoPosition,
        lanes: List[Lane],
        plan: Optional[List[SignalPhase]] = None,
        spat_rate: float = 2.0,
        map_rate: float = 1.0,
    ):
        self.sim = sim
        self.router = router
        self.station_id = station_id
        self.intersection_id = intersection_id
        self.position = position
        self.lanes = tuple(lanes)
        if plan is None:
            plan = two_phase_plan()
        if not plan:
            raise ValueError("signal plan must have at least one phase")
        self.plan = list(plan)
        self.spat_rate = spat_rate
        self.map_rate = map_rate
        self._phase_index = 0
        self._phase_entered = sim.now
        self._revision = 0
        self.spatems_sent = 0
        self.mapems_sent = 0
        sim.schedule(self.plan[0].duration, self._advance_phase)
        sim.schedule(1.0 / spat_rate, self._send_spatem)
        sim.schedule(0.05, self._send_mapem)

    # ------------------------------------------------------------------
    # Signal plan
    # ------------------------------------------------------------------

    @property
    def current_phase(self) -> SignalPhase:
        """The plan step currently active."""
        return self.plan[self._phase_index]

    def time_remaining(self) -> float:
        """Seconds until the current phase ends."""
        elapsed = self.sim.now - self._phase_entered
        return max(0.0, self.current_phase.duration - elapsed)

    def _advance_phase(self) -> None:
        self._phase_index = (self._phase_index + 1) % len(self.plan)
        self._phase_entered = self.sim.now
        self.sim.schedule(self.current_phase.duration,
                          self._advance_phase)

    # ------------------------------------------------------------------
    # Broadcasting
    # ------------------------------------------------------------------

    def _state_kind(self, state: str) -> str:
        from repro.messages.spat import GO_STATES, STOP_STATES

        if state in GO_STATES:
            return "go"
        if state in STOP_STATES:
            return "stop"
        return "transition"

    def group_state_remaining(self, group: int) -> float:
        """Seconds until *group*'s state (go/stop/transition) changes.

        This is what SPAT's minEndTime means: a red spanning several
        plan steps reports the time until the group actually turns,
        not until the next internal step boundary.
        """
        current_kind = self._state_kind(self.current_phase.states[group])
        total = self.time_remaining()
        for step in range(1, len(self.plan)):
            phase = self.plan[(self._phase_index + step) % len(self.plan)]
            if self._state_kind(phase.states[group]) != current_kind:
                break
            total += phase.duration
        return total

    def _movements(self) -> Tuple[MovementState, ...]:
        return tuple(
            MovementState(signal_group=group, event_state=state,
                          min_end_seconds=self.group_state_remaining(
                              group))
            for group, state in sorted(
                self.current_phase.states.items())
        )

    def _send_spatem(self) -> None:
        self._revision = (self._revision + 1) % 128
        spatem = Spatem(
            station_id=self.station_id,
            intersection_id=self.intersection_id,
            revision=self._revision,
            movements=self._movements(),
        )
        self.router.send_shb(spatem.encode(), BtpPort.SPAT,
                             traffic_class=AccessCategory.AC_VI)
        self.spatems_sent += 1
        self.sim.schedule(1.0 / self.spat_rate, self._send_spatem)

    def _send_mapem(self) -> None:
        mapem = Mapem(
            station_id=self.station_id,
            intersection_id=self.intersection_id,
            revision=0,
            reference_position=ReferencePosition(
                self.position.latitude, self.position.longitude),
            lanes=self.lanes,
        )
        self.router.send_shb(mapem.encode(), BtpPort.MAP,
                             traffic_class=AccessCategory.AC_BE)
        self.mapems_sent += 1
        self.sim.schedule(1.0 / self.map_rate, self._send_mapem)


class SignalPhaseService:
    """Vehicle-side SPATEM/MAPEM reception and phase queries."""

    def __init__(self, sim: Simulator, router: GeoNetRouter, ldm: Ldm):
        self.sim = sim
        self.ldm = ldm
        self._maps: Dict[int, Mapem] = {}
        self._states: Dict[int, Spatem] = {}
        self._state_received_at: Dict[int, float] = {}
        self.spatems_received = 0
        self.mapems_received = 0
        router.btp.register(BtpPort.SPAT, self._on_spatem)
        router.btp.register(BtpPort.MAP, self._on_mapem)

    def _on_spatem(self, payload: bytes) -> None:
        spatem = Spatem.decode(payload)
        self.spatems_received += 1
        self._states[spatem.intersection_id] = spatem
        self._state_received_at[spatem.intersection_id] = self.sim.now

    def _on_mapem(self, payload: bytes) -> None:
        mapem = Mapem.decode(payload)
        self.mapems_received += 1
        self._maps[mapem.intersection_id] = mapem
        self.ldm.put(LdmObject(
            key=f"intersection:{mapem.intersection_id}",
            kind=ObjectKind.TRAFFIC_SIGN,
            position=GeoPosition(
                mapem.reference_position.latitude,
                mapem.reference_position.longitude),
            timestamp=self.sim.now,
            valid_until=self.sim.now + 60.0,
            data=mapem,
            source="mapem",
        ))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def known_intersections(self) -> List[int]:
        """Intersections with both topology and live state."""
        return sorted(set(self._maps) & set(self._states))

    def movement_for_approach(self, intersection_id: int,
                              heading: float,
                              ) -> Optional[MovementState]:
        """The live movement state governing a vehicle approaching
        *intersection_id* with *heading* (degrees), or None."""
        mapem = self._maps.get(intersection_id)
        spatem = self._states.get(intersection_id)
        if mapem is None or spatem is None:
            return None
        lane = mapem.ingress_lane_for_bearing(heading)
        if lane is None or lane.signal_group is None:
            return None
        state = spatem.state_of(lane.signal_group)
        if state is None:
            return None
        # Age the countdown by the time since reception.
        age = self.sim.now - self._state_received_at[intersection_id]
        return dataclasses.replace(
            state, min_end_seconds=max(0.0,
                                       state.min_end_seconds - age))
