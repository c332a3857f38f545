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
scenarios is one.

A motion follows one of two laws: a callable returning (x, y)
(:meth:`LocalFrame.anchor`) -- a vehicle whose pose its own model
integrates, or an RSU -- or a straight line ``(x0 + v * clock.now, y)``
(:meth:`LocalFrame.anchor_line`) -- a fleet background vehicle at
constant speed, with ``v`` its signed speed.

:func:`antenna_reader` reads many stations' antenna positions at once
as arrays: the lines' x in one numpy pass at their clock's ``now``
(their y does not change), everything else one call at a time.  The
array ops are the scalar ones elementwise (``np.radians`` is the same
single multiply by pi/180 as :func:`math.radians`), so every value is
the one :meth:`~FramePosition.antenna` returns.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.kernel import Simulator

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

    def anchor_line(self, x0: float, y: float, v: float,
                    clock: Simulator) -> "FramePosition":
        """The position moving on the line ``(x0 + v * clock.now, y)``."""
        position = FramePosition(self, lambda: (x0 + v * clock.now, y))
        position._line = (x0, v, clock)
        return position


class FramePosition:
    """A station position given in a :class:`LocalFrame`'s metres.

    Calling it returns ``frame.to_geo(*local())``.  :meth:`antenna`
    returns ``frame.to_local(frame.to_geo(*local()))`` computed inline:
    the same operations in the same order, so the same floats bit for
    bit, with no :class:`GeoPosition` built.
    """

    __slots__ = ("frame", "local", "_line", "_lat0", "_lon0", "_cos_lat0",
                 "_r_cos_lat0")

    def __init__(self, frame: LocalFrame,
                 local: Callable[[], Tuple[float, float]]):
        self.frame = frame
        self.local = local
        #: ``(x0, v, clock)`` of a straight-line motion (set by
        #: :meth:`LocalFrame.anchor_line`), else None.
        self._line: Optional[Tuple[float, float, Simulator]] = None
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


#: Reads the (x, y) of many stations, as two arrays.
AntennaReader = Callable[[], Tuple[np.ndarray, np.ndarray]]


def antenna_reader(positions: Sequence[Callable[[], Tuple[float, float]]],
                   ) -> AntennaReader:
    """A reader of every one of *positions*, as two fresh arrays.

    Sorts *positions* by law once: the :meth:`~FramePosition.antenna`
    of a straight-line :class:`FramePosition` is a line, whose y is
    read here and whose x the reader computes with the other lines' in
    one numpy pass at ``now``; any other callable is called per read.
    The lines must share one clock.
    """
    count = len(positions)
    ys = np.zeros(count)
    clock: Optional[Simulator] = None
    lines: List[int] = []
    laws: List[Tuple[float, float, FramePosition]] = []
    calls: List[Tuple[int, Callable[[], Tuple[float, float]]]] = []
    for index, position in enumerate(positions):
        owner: Any = getattr(position, "__self__", None)
        line = (owner._line
                if getattr(position, "__func__", None) is FramePosition.antenna
                else None)
        if line is None:
            calls.append((index, position))
            continue
        if clock is None:
            clock = line[2]
        elif line[2] is not clock:
            raise ValueError("straight-line positions on two clocks")
        lines.append(index)
        laws.append((line[0], line[1], owner))
        ys[index] = position()[1]
    x0 = np.array([law[0] for law in laws])
    v = np.array([law[1] for law in laws])
    lon0 = np.array([law[2]._lon0 for law in laws])
    r_cos_lat0 = np.array([law[2]._r_cos_lat0 for law in laws])
    cos_lat0 = np.array([law[2]._cos_lat0 for law in laws])

    def read() -> Tuple[np.ndarray, np.ndarray]:
        x = np.empty(count)
        y = ys.copy()
        if clock is not None:
            # FramePosition.antenna's x, elementwise, at x0 + v * now.
            longitude = lon0 + ((x0 + v * clock.now) / r_cos_lat0
                                * _DEGREES_PER_RADIAN)
            x[lines] = (np.radians(longitude - lon0) * EARTH_RADIUS
                        * cos_lat0)
        for index, position in calls:
            x[index], y[index] = position()
        return x, y

    return read


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
