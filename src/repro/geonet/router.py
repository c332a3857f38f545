"""The GeoNetworking router: SHB and GeoBroadcast forwarding.

Two transport types are implemented, matching what the CA and DEN
facilities need (EN 302 636-4-1):

* **SHB** (Single-Hop Broadcast): delivered to all one-hop neighbours,
  never forwarded.  CAMs use this.
* **GBC** (GeoBroadcast): flooded towards / within a circular
  destination area.  Receivers inside the area deliver the payload up
  and re-broadcast it (simple flooding with duplicate suppression and
  a hop limit), so a warning reaches stations the originator cannot
  hear directly -- e.g. every member of a platoon.  DENMs use this.

Header sizes follow the standard: 36 bytes GN (basic+common) + 28
extended for GBC, + 4 bytes BTP.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Any, Callable, Optional, Tuple

import numpy as np

from repro.geonet.btp import BTP_HEADER_BYTES, BtpMux
from repro.geonet.location_table import LocationTable
from repro.geonet.position import GeoPosition, PositionVector
from repro.net.frame import AccessCategory, Frame
from repro.net.nic import NetworkInterface
from repro.sim.kernel import Simulator

#: GN basic + common header bytes.
GN_COMMON_HEADER_BYTES = 36

#: Extra extended-header bytes for GBC (destination area).
GN_GBC_HEADER_BYTES = 28

#: Default GBC hop limit.
DEFAULT_HOP_LIMIT = 3

#: Jitter window for GBC re-forwarding, avoiding synchronised
#: rebroadcast collisions (s).
FORWARD_JITTER = 1e-3

#: Beacon interval when no other GN traffic was sent (EN 302 636-4-1
#: itsGnBeaconServiceRetransmitTimer: 3 s).
BEACON_INTERVAL = 3.0

#: Maximum added beacon jitter (25% of the interval).
BEACON_JITTER = 0.75


@dataclasses.dataclass(frozen=True)
class CircularArea:
    """A circular geographic destination area."""

    center: GeoPosition
    radius: float  # metres

    def contains(self, position: GeoPosition) -> bool:
        """Whether *position* lies within the area."""
        return self.center.distance_to(position) <= self.radius


@dataclasses.dataclass(slots=True)
class GnPacket:
    """A GeoNetworking packet as it travels between routers.

    ``payload`` carries the UPER-encoded facilities message; headers
    are represented structurally, with their wire size accounted for
    in :meth:`wire_size`.  When the sender runs a security entity,
    ``secured`` holds the signed envelope and its overhead counts
    towards the wire size.
    """

    transport: str                     # "shb" | "gbc" | "guc" | "beacon"
    source_position_vector: PositionVector
    sequence_number: int
    btp_port: int
    payload: bytes
    hop_limit: int = 1
    area: Optional[CircularArea] = None
    traffic_class: AccessCategory = AccessCategory.AC_BE
    secured: Optional[Any] = None      # security.SecuredMessage
    # GeoUnicast fields.
    destination_address: Optional[str] = None
    destination_position: Optional[GeoPosition] = None
    next_hop: Optional[str] = None

    @property
    def wire_size(self) -> int:
        """Bytes this packet occupies as a MAC payload."""
        size = GN_COMMON_HEADER_BYTES + BTP_HEADER_BYTES + len(self.payload)
        if self.transport in ("gbc", "guc"):
            size += GN_GBC_HEADER_BYTES
        if self.secured is not None:
            size += self.secured.wire_overhead
        return size


class GeoNetRouter:
    """One station's GeoNetworking instance, bound to a NIC.

    Args:
        sim: simulation kernel.
        nic: the 802.11p interface.
        gn_address: this station's GN address (reuses the NIC name).
        position: callable returning the current :class:`GeoPosition`.
        dynamics: optional callable returning (speed m/s, heading deg)
            for the position vector.
    """

    def __init__(
        self,
        sim: Simulator,
        nic: NetworkInterface,
        position: Callable[[], GeoPosition],
        dynamics: Optional[Callable[[], Tuple[float, float]]] = None,
        rng: Optional[np.random.Generator] = None,
        security=None,
        enable_beaconing: bool = False,
    ):
        self.sim = sim
        self.nic = nic
        self.gn_address = nic.name
        self.position = position
        self.dynamics = dynamics or (lambda: (0.0, 0.0))
        self.rng = rng or np.random.default_rng(0)
        self.security = security
        self.location_table = LocationTable(sim)
        self.btp = BtpMux()
        self._sequence = itertools.count(1)
        self.packets_sent = 0
        self.packets_delivered_up = 0
        self.packets_forwarded = 0
        self.packets_duplicate = 0
        self.packets_outside_area = 0
        self.packets_rejected_security = 0
        self.packets_no_route = 0
        self.beacons_sent = 0
        self.beacons_received = 0
        #: Optional DCC gatekeeper (duck-typed ``send(frame)``); when a
        #: fleet station wires one in, every outgoing frame passes the
        #: gate instead of going straight to the MAC.
        self.gate: Optional[Any] = None
        #: Optional order-free jitter draw for GBC/GUC re-forwarding,
        #: ``packet -> delay (s)``.  The default per-station rng draw
        #: depends on how many forwards this router did before -- which
        #: at fleet scale varies with kernel tie-breaking; fleet wiring
        #: replaces it with a hash of stable packet identity.
        self.forward_jitter_fn: Optional[Callable[[GnPacket], float]] = None
        self._last_gn_transmission: Optional[float] = None
        nic.on_receive(self._on_frame)
        if enable_beaconing:
            self._schedule_beacon()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _position_vector(self) -> PositionVector:
        speed, heading = self.dynamics()
        return PositionVector(
            gn_address=self.gn_address,
            timestamp=self.sim.now,
            position=self.position(),
            speed=speed,
            heading=heading,
        )

    def send_shb(self, payload: bytes, btp_port: int,
                 traffic_class: AccessCategory = AccessCategory.AC_VI,
                 ) -> GnPacket:
        """Single-hop broadcast *payload* (the CAM path)."""
        packet = GnPacket(
            transport="shb",
            source_position_vector=self._position_vector(),
            sequence_number=next(self._sequence),
            btp_port=btp_port,
            payload=payload,
            hop_limit=1,
            traffic_class=traffic_class,
        )
        self._transmit(packet)
        return packet

    def send_gbc(self, payload: bytes, btp_port: int, area: CircularArea,
                 hop_limit: int = DEFAULT_HOP_LIMIT,
                 traffic_class: AccessCategory = AccessCategory.AC_VO,
                 ) -> GnPacket:
        """GeoBroadcast *payload* into *area* (the DENM path)."""
        packet = GnPacket(
            transport="gbc",
            source_position_vector=self._position_vector(),
            sequence_number=next(self._sequence),
            btp_port=btp_port,
            payload=payload,
            hop_limit=hop_limit,
            area=area,
            traffic_class=traffic_class,
        )
        self._transmit(packet)
        return packet

    def send_guc(self, payload: bytes, btp_port: int,
                 destination_address: str,
                 hop_limit: int = DEFAULT_HOP_LIMIT,
                 traffic_class: AccessCategory = AccessCategory.AC_BE,
                 ) -> Optional[GnPacket]:
        """GeoUnicast *payload* towards a known station.

        The destination must be in the location table (learned from
        its CAMs/beacons); each hop forwards greedily towards the
        destination's last known position.  Returns None when no
        useful next hop exists (greedy local optimum).
        """
        entry = self.location_table.get(destination_address)
        if entry is None:
            self.packets_no_route += 1
            return None
        destination_position = entry.position_vector.position
        next_hop = self._greedy_next_hop(destination_address,
                                         destination_position)
        if next_hop is None:
            self.packets_no_route += 1
            return None
        packet = GnPacket(
            transport="guc",
            source_position_vector=self._position_vector(),
            sequence_number=next(self._sequence),
            btp_port=btp_port,
            payload=payload,
            hop_limit=hop_limit,
            traffic_class=traffic_class,
            destination_address=destination_address,
            destination_position=destination_position,
            next_hop=next_hop,
        )
        self._transmit(packet)
        return packet

    def _greedy_next_hop(self, destination_address: str,
                         destination_position: GeoPosition,
                         ) -> Optional[str]:
        """The known station strictly closer to the destination than
        we are (the destination itself included), or None at a greedy
        local optimum."""
        own_distance = self.position().distance_to(destination_position)
        best: Optional[str] = None
        best_distance = own_distance
        for entry in self.location_table.neighbours():
            if entry.gn_address == self.gn_address:
                continue
            if not entry.is_neighbour:
                continue  # cannot hand a frame to a multi-hop entry
            distance = entry.position_vector.position.distance_to(
                destination_position)
            if distance < best_distance:
                best = entry.gn_address
                best_distance = distance
        return best

    def _transmit(self, packet: GnPacket) -> None:
        if self.security is not None:
            # Sign first (CPU time charged), then put on the air.
            def signed(envelope, packet=packet) -> None:
                secured_packet = dataclasses.replace(
                    packet, secured=envelope)
                self._put_on_air(secured_packet)

            self.security.sign_async(packet.payload, signed)
            return
        self._put_on_air(packet)

    def _put_on_air(self, packet: GnPacket) -> None:
        frame = Frame(
            payload=packet,
            size=packet.wire_size,
            source=self.gn_address,
            category=packet.traffic_class,
        )
        self.packets_sent += 1
        self._last_gn_transmission = self.sim.now
        self._send_frame(frame)

    def _send_frame(self, frame: Frame) -> None:
        if self.gate is not None:
            self.gate.send(frame)
        else:
            self.nic.send(frame)

    def _forward_delay(self, packet: GnPacket) -> float:
        if self.forward_jitter_fn is not None:
            return float(self.forward_jitter_fn(packet))
        return float(self.rng.uniform(0.0, FORWARD_JITTER))

    # ------------------------------------------------------------------
    # Beaconing
    # ------------------------------------------------------------------

    def _schedule_beacon(self) -> None:
        delay = BEACON_INTERVAL + float(self.rng.uniform(0, BEACON_JITTER))
        self.sim.schedule(delay, self._beacon_tick)

    def _beacon_tick(self) -> None:
        # A beacon is only needed when nothing else advertised our
        # position vector recently.
        quiet_for = (math.inf if self._last_gn_transmission is None
                     else self.sim.now - self._last_gn_transmission)
        if quiet_for >= BEACON_INTERVAL:
            packet = GnPacket(
                transport="beacon",
                source_position_vector=self._position_vector(),
                sequence_number=next(self._sequence),
                btp_port=0,
                payload=b"",
                hop_limit=1,
                traffic_class=AccessCategory.AC_BE,
            )
            self.beacons_sent += 1
            self._put_on_air(packet)
        self._schedule_beacon()

    # ------------------------------------------------------------------
    # Receiving / forwarding
    # ------------------------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        packet = frame.payload
        if not isinstance(packet, GnPacket):
            return
        source = packet.source_position_vector
        source_address = source.gn_address
        if source_address == self.gn_address:
            return  # our own rebroadcast echoed back
        # Heard directly iff the MAC-level sender is the GN source
        # (forwarded copies arrive from the forwarder's radio).
        if self.location_table.receive(source, packet.sequence_number,
                                       frame.source == source_address):
            self.packets_duplicate += 1
            return
        transport = packet.transport
        if transport == "shb":
            self._deliver_up(packet)
            return
        if transport == "beacon":
            # Location-table maintenance only; nothing to deliver.
            self.beacons_received += 1
            return
        if transport == "guc":
            self._handle_guc(packet)
            return
        # GBC: deliver if inside the area; forward while hops remain.
        inside = packet.area is not None and packet.area.contains(
            self.position())
        if inside:
            self._deliver_up(packet)
        else:
            self.packets_outside_area += 1
        if packet.hop_limit > 1 and inside:
            self._schedule_forward(packet)

    def _handle_guc(self, packet: GnPacket) -> None:
        if packet.destination_address == self.gn_address:
            self._deliver_up(packet)
            return
        if packet.next_hop != self.gn_address:
            return  # overheard; not our job to forward
        if packet.hop_limit <= 1:
            self.packets_no_route += 1
            return
        assert packet.destination_address is not None
        assert packet.destination_position is not None
        next_hop = self._greedy_next_hop(packet.destination_address,
                                         packet.destination_position)
        if next_hop is None:
            self.packets_no_route += 1
            return
        forwarded = dataclasses.replace(
            packet, hop_limit=packet.hop_limit - 1, next_hop=next_hop)
        delay = self._forward_delay(forwarded)
        self.packets_forwarded += 1
        self.sim.schedule(delay, lambda: self._put_on_air(forwarded))

    def _deliver_up(self, packet: GnPacket) -> None:
        if packet.secured is not None and self.security is not None:
            def accept(payload: bytes) -> None:
                self.packets_delivered_up += 1
                self.btp.dispatch(packet.btp_port, payload)

            def reject(_err) -> None:
                self.packets_rejected_security += 1

            self.security.verify_async(packet.secured, accept, reject)
            return
        self.packets_delivered_up += 1
        self.btp.dispatch(packet.btp_port, packet.payload)

    def _schedule_forward(self, packet: GnPacket) -> None:
        forwarded = dataclasses.replace(packet, hop_limit=packet.hop_limit - 1)
        delay = self._forward_delay(forwarded)
        self.sim.schedule(delay, lambda: self._forward(forwarded))

    def _forward(self, packet: GnPacket) -> None:
        frame = Frame(
            payload=packet,
            size=packet.wire_size,
            source=self.gn_address,
            category=packet.traffic_class,
        )
        self.packets_forwarded += 1
        self._send_frame(frame)
