"""Reference oracle for the CAM receive chain of a station.

Verbatim copies of the receive steps as they were before the chain was
tightened: :meth:`repro.facilities.ca_service.CaBasicService._on_payload`
(one f-string key, one :class:`GeoPosition` and two ``sim.now`` reads
per reception), :meth:`repro.facilities.ldm.Ldm.put` (a scan of the
subscription list on every put), :meth:`LocationTable.update` /
:meth:`LocationTable.is_duplicate` /
:meth:`LocationTableEntry.is_duplicate` and
:meth:`repro.geonet.router.GeoNetRouter._on_frame`.  The only change is
that each method is a module-level function taking ``self``, so
:data:`PATCHES` can install it on the live class.

The two ``Ldm`` subscription fixes (identity-compared subscriptions, a
snapshot of the list during notification) are deliberately absent: the
differential test never unsubscribes during a notification.  So is the
location-table fix that replaces an entry past its lifetime; the test
stays well inside the 20 s lifetime.

Used only by the differential test ``tests/test_reception_reference.py``.
Do not optimise this file: its value is being the old,
obviously-correct code.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from repro.facilities.ca_service import CaBasicService
from repro.facilities.ldm import Ldm, LdmObject, ObjectKind
from repro.geonet.location_table import (
    DUPLICATE_WINDOW,
    LocationTable,
    LocationTableEntry,
)
from repro.geonet.position import GeoPosition, PositionVector
from repro.geonet.router import GeoNetRouter, GnPacket
from repro.messages.cam import Cam
from repro.net.frame import Frame


def ca_on_payload(self, payload: bytes) -> None:
    cam = Cam.decode(payload)
    obs = self.sim.obs
    if obs is not None:
        obs.count("ca.cams_received", device=str(self.station_id))
    self.cams_received += 1
    self.ldm.put(LdmObject(
        key=f"cam:{cam.station_id}",
        kind=ObjectKind.VEHICLE,
        position=GeoPosition(cam.position.latitude,
                             cam.position.longitude),
        timestamp=self.sim.now,
        valid_until=self.sim.now + self.config.ldm_lifetime,
        data=cam,
        source="cam",
        station_id=cam.station_id,
        speed=cam.speed,
        heading=cam.heading,
    ))
    for callback in self._callbacks:
        callback(cam)


def ldm_put(self, obj: LdmObject) -> LdmObject:
    """Insert or update *obj* (keyed by ``obj.key``), notifying
    matching subscribers."""
    obj.revision = next(self._revisions)
    if obj.key in self._objects:
        self.updates += 1
    else:
        self.inserts += 1
    self._objects[obj.key] = obj
    for sub in self._subscriptions:
        if self._matches(sub, obj):
            sub.callback(obj)
    return obj


def table_update(self, position_vector: PositionVector,
                 is_neighbour: bool = False) -> LocationTableEntry:
    """Insert or refresh the entry for the vector's sender.

    Set *is_neighbour* when the packet was heard directly from the
    station (not through a forwarder).
    """
    address = position_vector.gn_address
    entry = self._entries.get(address)
    if entry is None:
        entry = LocationTableEntry(
            gn_address=address,
            position_vector=position_vector,
            updated_at=self.sim.now,
            is_neighbour=is_neighbour,
        )
        self._entries[address] = entry
    else:
        # PositionVector.is_fresher_than, inlined.
        if position_vector.timestamp > entry.position_vector.timestamp:
            entry.position_vector = position_vector
        entry.updated_at = self.sim.now
        entry.is_neighbour = entry.is_neighbour or is_neighbour
    entry.packets_received += 1
    return entry


def table_is_duplicate(self, gn_address: str, sequence_number: int) -> bool:
    """Duplicate-packet check; records the sequence number."""
    entry = self._entries.get(gn_address)
    return entry is not None and entry.is_duplicate(sequence_number)


def entry_is_duplicate(self, sequence_number: int) -> bool:
    """Duplicate-packet check; records the sequence number."""
    seen = self.seen_sequence_numbers
    if sequence_number in seen:
        return True
    seen.add(sequence_number)
    self.last_sequence_number = sequence_number
    if len(seen) > DUPLICATE_WINDOW:
        # Forget the oldest half; sequence numbers are monotonic
        # per source so dropping the smallest is safe.
        keep = sorted(seen)[DUPLICATE_WINDOW // 2:]
        self.seen_sequence_numbers = set(keep)
    return False


def router_on_frame(self, frame: Frame) -> None:
    packet = frame.payload
    if not isinstance(packet, GnPacket):
        return
    source = packet.source_position_vector
    if source.gn_address == self.gn_address:
        return  # our own rebroadcast echoed back
    # Heard directly iff the MAC-level sender is the GN source
    # (forwarded copies arrive from the forwarder's radio).
    entry = self.location_table.update(
        source, is_neighbour=(frame.source == source.gn_address))
    if entry.is_duplicate(packet.sequence_number):
        self.packets_duplicate += 1
        return
    if packet.transport == "beacon":
        # Location-table maintenance only; nothing to deliver.
        self.beacons_received += 1
        return
    if packet.transport == "shb":
        self._deliver_up(packet)
        return
    if packet.transport == "guc":
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


#: ``(class, attribute, reference function)`` for ``mock.patch.object``.
PATCHES: List[Tuple[type, str, Callable[..., Any]]] = [
    (CaBasicService, "_on_payload", ca_on_payload),
    (Ldm, "put", ldm_put),
    (LocationTable, "update", table_update),
    (LocationTable, "is_duplicate", table_is_duplicate),
    (LocationTableEntry, "is_duplicate", entry_is_duplicate),
    (GeoNetRouter, "_on_frame", router_on_frame),
]
