"""The fleet testbed: N OBUs + M RSUs on one congested channel.

Every station runs the complete stack the two-station experiments
use -- CA beaconing through the GeoNet router, EDCA contention on the
shared :class:`~repro.net.medium.WirelessMedium`, a DCC gatekeeper
driven by its own measured CBR -- so congestion emerges from the
same mechanisms the paper's idle-channel runs exercise one at a time.

Determinism at fleet scale
--------------------------
A fleet run is bit-identical across kernel tie-break policies
(fifo/lifo/seeded) and across campaign worker counts, by four
mechanisms:

* every periodic process (CA checks, CBR sampling, DCC updates,
  vehicle ticks, the gap watcher) gets a per-station *phase offset*
  drawn from the ``fleet.offsets`` substream, so no two stations'
  timers ever share a kernel timestamp;
* the medium runs with a positive ``cs_latency``: stations whose MAC
  timers expire at the same instant all see an idle channel and
  collide, whatever order the kernel pops the tied events in;
* packet-error draws use :class:`~repro.net.medium.OrderFreeReception`
  (a keyed splitmix64 of seed, sender, the sender's transmission index
  and receiver) instead of a shared rng, which also lets the medium do
  each frame's link math as one numpy pass over its receivers;
* GBC re-forward jitter is hashed from stable packet identity rather
  than drawn from the router's (order-sensitive) stream.

What remains tied -- e.g. several same-instant completions delivering
to disjoint per-station state -- is commutative by construction.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.fleet.result import FleetRunResult
from repro.core.fleet.scenario import FleetScenario
from repro.core.platoon import PlatoonMember, PlatoonScenario
from repro.facilities.ca_service import CaConfig
from repro.facilities.den_service import DenConfig
from repro.geonet.position import FramePosition, LocalFrame
from repro.geonet.router import FORWARD_JITTER, GnPacket
from repro.messages.common import StationType
from repro.net.dcc import DccGatekeeper, DccParameters
from repro.net.medium import OrderFreeReception, WirelessMedium
from repro.net.phy import PhyConfig
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.openc2x.http import HttpClient
from repro.openc2x.unit import OnBoardUnit, OpenC2XUnit, RoadSideUnit
from repro.sim.kernel import build_simulator
from repro.sim.randomness import RandomStreams
from repro.vehicle.message_handler import MessageHandler


def _order_free_jitter(seed: int, station: str,
                       ) -> Callable[[GnPacket], float]:
    """A GBC re-forward jitter keyed by stable packet identity."""

    def jitter(packet: GnPacket) -> float:
        key = (f"{seed}:fwd:{station}"
               f":{packet.source_position_vector.gn_address}"
               f":{packet.sequence_number}:{packet.hop_limit}")
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "little") / 2.0 ** 64
        return FORWARD_JITTER * unit

    return jitter


class FleetTestbed:
    """One instantiated fleet run."""

    def __init__(self, scenario: Optional[FleetScenario] = None,
                 run_id: int = 1, obs=None):
        self.scenario = sc = scenario or FleetScenario()
        self.run_id = run_id
        self.streams = RandomStreams(sc.seed)
        self.sim = build_simulator(sc.tie_break, self.streams)
        if obs is not None:
            obs.bind(self.sim)
        self.frame = LocalFrame()
        self.medium = WirelessMedium(
            # detlint: ignore[EFF006] -- pre-dates the fleet.* naming
            # scheme; renaming would shift every seeded draw and break
            # golden-trace bit-identity
            self.sim, self.streams.get("medium"),
            LinkBudget(path_loss=LogDistancePathLoss(
                exponent=sc.path_loss_exponent)),
            reception_draw=OrderFreeReception(sc.seed),
            cs_latency=sc.cs_latency)
        self._phy = PhyConfig(tx_power_dbm=sc.tx_power_dbm,
                              data_rate_bps=sc.data_rate_bps)
        self._den_config = DenConfig(
            default_area_radius=sc.denm_area_radius,
            hop_limit=sc.gbc_hop_limit)
        self._dcc_params = DccParameters(
            cbr_thresholds=tuple(sc.dcc_thresholds),
            sample_period=sc.cbr_sample_period)
        self._offsets = self.streams.get("fleet.offsets")
        self._cam_period = 1.0 / sc.cam_rate_hz

        self.rsus: List[RoadSideUnit] = []
        self.obus: List[OpenC2XUnit] = []
        self.members: List[PlatoonMember] = []
        self.handlers: List[MessageHandler] = []
        self.gates: Dict[str, DccGatekeeper] = {}
        self.warning_time: Optional[float] = None
        self._denm_first_rx: Dict[str, float] = {}
        self.min_gap = math.inf

        self._build_rsus()
        self._build_obus()

        self._client = HttpClient(self.sim,
                                  self.streams.get("fleet.edge.http"),
                                  name="fleet-edge")
        if sc.workload == "convoy" and len(self.members) >= 2:
            watch_u = float(self._offsets.uniform())
            self.sim.schedule(
                PlatoonMember.DT * (0.1 + 0.8 * watch_u),
                self._watch_gaps)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def _station_phases(self) -> Dict[str, float]:
        """Per-station timer phases; one fixed-order draw per station."""
        return {
            "ca": self._cam_period * (
                0.05 + 0.9 * float(self._offsets.uniform())),
            "dcc": self.scenario.cbr_sample_period * (
                0.05 + 0.9 * float(self._offsets.uniform())),
        }

    def _wire_station(self, unit: OpenC2XUnit, phases: Dict[str, float],
                      ) -> None:
        sc = self.scenario
        router = unit.station.router
        router.forward_jitter_fn = _order_free_jitter(sc.seed, unit.name)
        if sc.dcc_enabled:
            gate = DccGatekeeper(self.sim, unit.station.nic,
                                 self._dcc_params,
                                 start_offset=phases["dcc"])
            router.gate = gate
            self.gates[unit.name] = gate
        unit.on_event(
            lambda event, record, name=unit.name:
            self._on_unit_event(name, event, record))

    def _ca_config(self, phases: Dict[str, float]) -> CaConfig:
        # Fixed-rate beaconing: every station CAMs at cam_rate_hz
        # (DCC gate permitting), each on its own phase.
        return CaConfig(t_check=self._cam_period,
                        t_gen_cam_min=self._cam_period,
                        t_gen_cam_max=self._cam_period,
                        start_offset=phases["ca"])

    def _build_rsus(self) -> None:
        sc = self.scenario
        spacing = sc.road_length / sc.n_rsus
        for index in range(sc.n_rsus):
            phases = self._station_phases()
            x = (index + 0.5) * spacing
            rsu = RoadSideUnit(
                self.sim, self.medium, self.streams,
                name=f"rsu-{index}",
                station_id=900 + index,
                station_type=StationType.ROAD_SIDE_UNIT,
                position=self.frame.anchor(lambda x=x: (x, 4.0)),
                phy=self._phy, is_rsu=True, local_frame=self.frame,
                ca_config=self._ca_config(phases),
                den_config=self._den_config)
            self._wire_station(rsu, phases)
            self.rsus.append(rsu)

    def _build_obus(self) -> None:
        sc = self.scenario
        participants = {"beacon": 0,
                        "convoy": sc.convoy_members,
                        "blind_corner": 1}[sc.workload]
        member_sc = PlatoonScenario(
            members=max(1, participants),
            spacing=sc.convoy_spacing,
            speed=sc.speed,
            desired_gap=sc.desired_gap,
            leader_distance=sc.protagonist_start,
            brake_deceleration=sc.brake_deceleration,
            poll_interval=sc.poll_interval,
            seed=sc.seed, tie_break=sc.tie_break)
        predecessor: Optional[PlatoonMember] = None
        for index in range(sc.n_obus):
            phases = self._station_phases()
            if index < participants:
                tick_u = float(self._offsets.uniform())
                member = PlatoonMember(
                    self.sim, member_sc, index,
                    x=sc.protagonist_start + index * sc.convoy_spacing,
                    predecessor=predecessor,
                    first_tick=PlatoonMember.DT * (0.1 + 0.8 * tick_u))
                predecessor = member
                self.members.append(member)
                position = self.frame.anchor(member.position)
                dynamics = self._member_dynamics(member)
            else:
                x0 = sc.road_length * float(self._offsets.uniform())
                direction = 1.0 if index % 2 == 0 else -1.0
                lane_y = 0.6 if direction > 0 else 1.2
                heading = 90.0 if direction > 0 else 270.0
                # Background vehicles move analytically (no tick
                # events): position is a pure function of sim time.
                position = self._background_position(x0, direction, lane_y)
                dynamics = self._background_dynamics(heading)
            unit = OnBoardUnit(
                self.sim, self.medium, self.streams,
                name=f"obu-{index}",
                station_id=101 + index,
                station_type=StationType.PASSENGER_CAR,
                position=position,
                dynamics=dynamics,
                phy=self._phy, local_frame=self.frame,
                ca_config=self._ca_config(phases),
                den_config=self._den_config)
            self._wire_station(unit, phases)
            if index < participants:
                handler = MessageHandler(
                    self.sim, unit.http, self.members[index],
                    # detlint: ignore[EFF006] -- pre-dates the fleet.*
                    # naming scheme; the name feeds seeded draw
                    # identity, so renaming breaks golden traces
                    rng=self.streams.get(f"handler.{index}"),
                    poll_interval=sc.poll_interval)
                self.handlers.append(handler)
            self.obus.append(unit)

    def _member_dynamics(self, member: PlatoonMember,
                         ) -> Callable[[], tuple]:
        def dynamics() -> tuple:
            return (member.speed, 270.0)
        return dynamics

    def _background_position(self, x0: float, direction: float,
                             lane_y: float) -> FramePosition:
        def local() -> Tuple[float, float]:
            x = x0 + direction * self.scenario.speed * self.sim.now
            return (x, lane_y)
        return self.frame.anchor(local)

    def _background_dynamics(self, heading: float,
                             ) -> Callable[[], tuple]:
        def dynamics() -> tuple:
            return (self.scenario.speed, heading)
        return dynamics

    # ------------------------------------------------------------------
    # Warning path and measurement hooks
    # ------------------------------------------------------------------

    def _event_xy(self) -> tuple:
        if self.scenario.workload == "beacon":
            return (self.scenario.road_length / 2.0, 0.0)
        return (0.0, 0.0)  # the conflict point participants drive at

    def _issue_warning(self) -> None:
        sc = self.scenario
        self.warning_time = self.sim.now
        event_geo = self.frame.to_geo(*self._event_xy())
        body: Dict[str, Any] = {
            "causeCode": 97,
            "subCauseCode": 1,
            "latitude": event_geo.latitude,
            "longitude": event_geo.longitude,
            "areaRadius": sc.denm_area_radius,
            "validityDuration": 10,
        }
        if sc.denm_repetition_interval > 0.0:
            body["repetitionInterval"] = sc.denm_repetition_interval
            body["repetitionDuration"] = sc.duration
        self._client.post(self.rsus[0].http, "/trigger_denm", body)

    def _on_unit_event(self, name: str, event: str,
                       record: Dict[str, Any]) -> None:
        if event != "denm_received" or name in self._denm_first_rx:
            return
        received_at = float(record["sim_time"])
        self._denm_first_rx[name] = received_at
        obs = self.sim.obs
        if obs is not None and self.warning_time is not None:
            obs.observe(
                "net.denm_latency_ms",
                (received_at - self.warning_time) * 1000.0,
                device=name)

    def _watch_gaps(self) -> None:
        for ahead, behind in zip(self.members, self.members[1:]):
            gap = behind.x - ahead.x - 0.53
            self.min_gap = min(self.min_gap, gap)
        self.sim.schedule(PlatoonMember.DT, self._watch_gaps)  # detlint: ignore[SCH001] -- read-only observer of member.x; members pull state via catch-up at use time, and the fleet determinism suite proves bit-identity under all tie-break policies

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self) -> FleetRunResult:
        """Simulate the scenario and collect the run's measurements."""
        sc = self.scenario
        self.sim.schedule(sc.warning_after, self._issue_warning)
        self.sim.run_until(sc.duration)
        assert self.warning_time is not None

        latency_ms: Dict[str, Optional[float]] = {}
        for unit in self.obus:
            received = self._denm_first_rx.get(unit.name)
            latency_ms[unit.name] = (
                None if received is None
                else (received - self.warning_time) * 1000.0)
        delivered = sum(1 for value in latency_ms.values()
                        if value is not None)
        all_units: List[OpenC2XUnit] = [*self.rsus, *self.obus]
        verdict, min_gap, collisions, halted = self._verdict()
        return FleetRunResult(
            run_id=self.run_id,
            seed=sc.seed,
            n_obus=sc.n_obus,
            n_rsus=sc.n_rsus,
            workload=sc.workload,
            warning_time=self.warning_time,
            denm_latency_ms=latency_ms,
            denm_delivered=delivered,
            cams_sent=sum(u.station.ca.cams_sent for u in all_units),
            cams_received=sum(u.station.ca.cams_received
                              for u in all_units),
            medium=self.medium.stats(),
            dcc_state_transitions={
                name: gate.state_transitions
                for name, gate in self.gates.items()},
            dcc_final_state={name: int(gate.state)
                             for name, gate in self.gates.items()},
            cbr={name: gate.monitor.cbr(1.0)
                 for name, gate in self.gates.items()},
            dcc_frames_dropped=sum(gate.frames_dropped
                                   for gate in self.gates.values()),
            verdict=verdict,
            min_gap=min_gap,
            collisions=collisions,
            halted=halted,
        )

    def _verdict(self) -> tuple:
        sc = self.scenario
        if sc.workload == "beacon":
            return "N_A", math.inf, 0, 0
        halted = sum(1 for m in self.members
                     if m.outcome.halted_at is not None)
        if sc.workload == "convoy":
            collisions = sum(
                1 for ahead, behind in zip(self.members, self.members[1:])
                if behind.x - ahead.x - 0.53 <= 0.0)
            if halted < len(self.members):
                verdict = "NO_STOP"
            elif collisions > 0:
                verdict = "PILE_UP"
            else:
                verdict = "SAFE"
            return verdict, self.min_gap, collisions, halted
        # blind_corner: one protagonist; crossing x=0 means entering
        # the occluded conflict point.
        protagonist = self.members[0]
        if protagonist.outcome.halted_at is None:
            verdict = "NO_STOP"
        elif protagonist.outcome.stop_position > 0.0:
            verdict = "SAFE"
        else:
            verdict = "LATE"
        return verdict, math.inf, 0, halted


def run_fleet(scenario: Optional[FleetScenario] = None,
              run_id: int = 1) -> FleetRunResult:
    """Build and run one fleet experiment."""
    return FleetTestbed(scenario, run_id=run_id).run()
