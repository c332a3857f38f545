"""GeoNetworking and Basic Transport Protocol (Networking & Transport).

ETSI ITS inserts a geographic ad-hoc routing layer between the access
layer and the facilities:

* :mod:`repro.geonet.position` -- geodetic positions, the testbed's
  local metric frame, and position vectors;
* :mod:`repro.geonet.location_table` -- the per-router neighbour table
  with entry expiry and duplicate-packet detection;
* :mod:`repro.geonet.router` -- Single-Hop Broadcast (CAMs) and
  GeoBroadcast (DENMs) forwarding;
* :mod:`repro.geonet.btp` -- BTP-B port multiplexing (2001 = CAM,
  2002 = DENM).
"""

from repro.geonet.position import (
    FramePosition,
    GeoPosition,
    LocalFrame,
    PositionVector,
    haversine_distance,
)
from repro.geonet.location_table import LocationTable, LocationTableEntry
from repro.geonet.btp import BtpMux, BtpPort
from repro.geonet.router import CircularArea, GeoNetRouter, GnPacket

__all__ = [
    "BtpMux",
    "BtpPort",
    "CircularArea",
    "FramePosition",
    "GeoNetRouter",
    "GeoPosition",
    "GnPacket",
    "LocalFrame",
    "LocationTable",
    "LocationTableEntry",
    "PositionVector",
    "haversine_distance",
]
