"""The GeoNetworking location table (EN 302 636-4-1, clause 8.1).

Each router keeps an entry per known ITS station: its latest position
vector and bookkeeping for duplicate-packet detection.  Entries expire
after a lifetime (default 20 s) without updates.  A received packet
costs one call, :meth:`LocationTable.receive`: the update and the
duplicate check together.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, Optional, Set

from repro.geonet.position import PositionVector
from repro.sim.kernel import Simulator

#: Default location-table entry lifetime (s).
DEFAULT_LIFETIME = 20.0

#: Sequence numbers remembered per source for duplicate detection.
DUPLICATE_WINDOW = 256


@dataclasses.dataclass
class LocationTableEntry:
    """State kept about one remote ITS station."""

    gn_address: str
    position_vector: PositionVector
    updated_at: float
    #: True when at least one packet was heard *directly* from this
    #: station (one-hop neighbour) within the entry's lifetime; False
    #: for stations only known through forwarded packets.  Greedy
    #: forwarding may only choose neighbours.
    is_neighbour: bool = False
    seen_sequence_numbers: Set[int] = dataclasses.field(default_factory=set)
    packets_received: int = 0

    def is_duplicate(self, sequence_number: int) -> bool:
        """Duplicate-packet check; records the sequence number."""
        seen = self.seen_sequence_numbers
        if sequence_number in seen:
            return True
        seen.add(sequence_number)
        if len(seen) > DUPLICATE_WINDOW:
            # Forget the oldest half; sequence numbers are monotonic
            # per source so dropping the smallest is safe.
            keep = sorted(seen)[DUPLICATE_WINDOW // 2:]
            self.seen_sequence_numbers = set(keep)
        return False


class LocationTable:
    """Per-router table of known stations."""

    def __init__(self, sim: Simulator, lifetime: float = DEFAULT_LIFETIME):
        self.sim = sim
        self.lifetime = lifetime
        self._entries: Dict[str, LocationTableEntry] = {}

    def receive(self, position_vector: PositionVector,
                sequence_number: Optional[int],
                is_neighbour: bool) -> bool:
        """Update the sender's entry for a received packet; True if seen.

        Inserts or refreshes the entry for the vector's sender, then
        runs the entry's duplicate check of *sequence_number* (none
        when it is None).  Set *is_neighbour* when the packet was heard
        directly from the station (not through a forwarder).  An entry
        past its lifetime is replaced by a fresh one, so neither its
        neighbour flag nor its duplicate window outlives it.
        """
        address = position_vector.gn_address
        now = self.sim.now
        entry = self._entries.get(address)
        if entry is None or now - entry.updated_at > self.lifetime:
            entry = LocationTableEntry(
                gn_address=address,
                position_vector=position_vector,
                updated_at=now,
                is_neighbour=is_neighbour,
            )
            self._entries[address] = entry
        else:
            # PositionVector.is_fresher_than, inlined.
            if position_vector.timestamp > entry.position_vector.timestamp:
                entry.position_vector = position_vector
            entry.updated_at = now
            if is_neighbour:
                entry.is_neighbour = True
        entry.packets_received += 1
        return (sequence_number is not None
                and entry.is_duplicate(sequence_number))

    def get(self, gn_address: str) -> Optional[LocationTableEntry]:
        """The live entry for *gn_address*, or None if absent/expired."""
        entry = self._entries.get(gn_address)
        if entry is None:
            return None
        if self.sim.now - entry.updated_at > self.lifetime:
            del self._entries[gn_address]
            return None
        return entry

    def purge_expired(self) -> int:
        """Drop all expired entries; returns how many were removed."""
        now = self.sim.now
        stale = [address for address, entry in self._entries.items()
                 if now - entry.updated_at > self.lifetime]
        for address in stale:
            del self._entries[address]
        return len(stale)

    def neighbours(self) -> Iterator[LocationTableEntry]:
        """Iterate over live entries."""
        now = self.sim.now
        for entry in list(self._entries.values()):
            if now - entry.updated_at <= self.lifetime:
                yield entry

    def __len__(self) -> int:
        return sum(1 for _ in self.neighbours())

    def __contains__(self, gn_address: str) -> bool:
        return self.get(gn_address) is not None
