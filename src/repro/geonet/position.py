"""Geodetic positions and the testbed's local metric frame.

The robotic testbed lives in a laboratory measured in metres, while
ETSI ITS messages carry WGS-84 coordinates.  :class:`LocalFrame`
anchors a flat local (x, y) frame at a reference geodetic point (the
lab's location) using an equirectangular approximation, exact to
millimetres over tens of metres.

:meth:`LocalFrame.anchor` turns a callable of local metres into a
:class:`FramePosition`: calling it gives the station's
:class:`GeoPosition` as ``frame.to_geo`` would, and its
:meth:`~FramePosition.antenna` gives the medium the same local metres
as ``frame.to_local(frame.to_geo(x, y))`` -- bit for bit, with the same
float operations in the same order -- without building a
:class:`GeoPosition`.  Every frame-anchored station position in the
scenarios is one, so the per-frame antenna lookups of a fleet run skip
the geodetic round trip's allocation.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Tuple

#: Mean Earth radius (m).
EARTH_RADIUS = 6_371_008.8

_DEGREES_PER_RADIAN = 180.0 / math.pi


@dataclasses.dataclass(frozen=True)
class GeoPosition:
    """A WGS-84 position in degrees."""

    latitude: float
    longitude: float

    def distance_to(self, other: "GeoPosition") -> float:
        """Great-circle distance in metres."""
        return haversine_distance(self, other)


def haversine_distance(a: GeoPosition, b: GeoPosition) -> float:
    """Great-circle distance between two positions (m)."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    d_lat = lat2 - lat1
    d_lon = lon2 - lon1
    h = (math.sin(d_lat / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(d_lon / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS * math.asin(math.sqrt(h))


@dataclasses.dataclass(frozen=True)
class LocalFrame:
    """A flat metric frame anchored at a geodetic origin.

    ``x`` grows eastwards, ``y`` northwards.  The default origin is the
    CISTER lab in Porto, matching the paper's venue -- any origin works,
    it only anchors the coordinates carried in CAM/DENM fields.
    """

    origin: GeoPosition = GeoPosition(41.17867, -8.60782)
    #: cos(lat0) and R cos(lat0), fixed at construction.
    _cos_lat0: float = dataclasses.field(
        init=False, repr=False, compare=False)
    _r_cos_lat0: float = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cos_lat0 = math.cos(math.radians(self.origin.latitude))
        object.__setattr__(self, "_cos_lat0", cos_lat0)
        object.__setattr__(self, "_r_cos_lat0", EARTH_RADIUS * cos_lat0)

    def to_geo(self, x: float, y: float) -> GeoPosition:
        """Local metres -> geodetic degrees."""
        d_lat = (y / EARTH_RADIUS) * _DEGREES_PER_RADIAN
        d_lon = (x / self._r_cos_lat0) * _DEGREES_PER_RADIAN
        return GeoPosition(self.origin.latitude + d_lat,
                           self.origin.longitude + d_lon)

    def to_local(self, position: GeoPosition) -> Tuple[float, float]:
        """Geodetic degrees -> local metres."""
        origin = self.origin
        d_lat = math.radians(position.latitude - origin.latitude)
        d_lon = math.radians(position.longitude - origin.longitude)
        return (d_lon * EARTH_RADIUS * self._cos_lat0,
                d_lat * EARTH_RADIUS)

    def anchor(self, local: Callable[[], Tuple[float, float]],
               ) -> "FramePosition":
        """A position callable over *local*, which returns (x, y) m."""
        return FramePosition(self, local)


class FramePosition:
    """A station position given in a :class:`LocalFrame`'s metres.

    Calling it returns ``frame.to_geo(*local())``.  :meth:`antenna`
    returns ``frame.to_local(frame.to_geo(*local()))`` computed inline:
    the same operations in the same order, so the same floats bit for
    bit, with no :class:`GeoPosition` built.
    """

    __slots__ = ("frame", "local", "_lat0", "_lon0", "_cos_lat0",
                 "_r_cos_lat0")

    def __init__(self, frame: LocalFrame,
                 local: Callable[[], Tuple[float, float]]):
        self.frame = frame
        self.local = local
        self._lat0 = frame.origin.latitude
        self._lon0 = frame.origin.longitude
        self._cos_lat0 = frame._cos_lat0
        self._r_cos_lat0 = frame._r_cos_lat0

    def __call__(self) -> GeoPosition:
        return self.frame.to_geo(*self.local())

    def antenna(self) -> Tuple[float, float]:
        """The local (x, y) metres after the geodetic round trip."""
        x, y = self.local()
        lat0 = self._lat0
        lon0 = self._lon0
        # LocalFrame.to_geo, then LocalFrame.to_local, inlined.
        latitude = lat0 + (y / EARTH_RADIUS) * _DEGREES_PER_RADIAN
        longitude = lon0 + (x / self._r_cos_lat0) * _DEGREES_PER_RADIAN
        return (math.radians(longitude - lon0) * EARTH_RADIUS
                * self._cos_lat0,
                math.radians(latitude - lat0) * EARTH_RADIUS)


@dataclasses.dataclass(frozen=True)
class PositionVector:
    """A GeoNetworking long position vector.

    Carried in every GN header: the sender's address, when the position
    was taken, where, and the movement state.
    """

    gn_address: str
    timestamp: float          # seconds (station clock)
    position: GeoPosition
    speed: float = 0.0        # m/s
    heading: float = 0.0      # degrees clockwise from north
    position_accuracy: bool = True

    def is_fresher_than(self, other: "PositionVector") -> bool:
        """Whether this vector supersedes *other* for the same address."""
        return self.timestamp > other.timestamp
