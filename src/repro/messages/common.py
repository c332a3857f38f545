"""Common ITS data elements (TS 102 894-2) and the ITS PDU header.

Only the elements used by CAM/DENM are defined.  Ranges follow the
data dictionary; unit helpers convert between SI and wire units:

* latitude/longitude: 0.1 micro-degree steps;
* speed: 0.01 m/s steps;
* heading: 0.1 degree steps;
* ITS timestamps: milliseconds since the ITS epoch (2004-01-01 UTC).
"""

from __future__ import annotations

import dataclasses

from repro.asn1 import Enumerated, Field, Integer, Sequence

# ---------------------------------------------------------------------------
# Wire-level type objects (ASN.1 schema fragments)
# ---------------------------------------------------------------------------

StationIdType = Integer(0, 4294967295, "StationID")
ProtocolVersionType = Integer(0, 255, "protocolVersion")
MessageIdType = Integer(0, 255, "messageID")

ITS_PDU_HEADER = Sequence("ItsPduHeader", [
    Field("protocolVersion", ProtocolVersionType),
    Field("messageID", MessageIdType),
    Field("stationID", StationIdType),
])

LatitudeType = Integer(-900000000, 900000001, "Latitude")
LongitudeType = Integer(-1800000000, 1800000001, "Longitude")
AltitudeValueType = Integer(-100000, 800001, "AltitudeValue")
AltitudeConfidenceType = Enumerated(
    [
        "alt-000-01", "alt-000-02", "alt-000-05", "alt-000-10",
        "alt-000-20", "alt-000-50", "alt-001-00", "alt-002-00",
        "alt-005-00", "alt-010-00", "alt-020-00", "alt-050-00",
        "alt-100-00", "alt-200-00", "outOfRange", "unavailable",
    ],
    "AltitudeConfidence",
)
SemiAxisLengthType = Integer(0, 4095, "SemiAxisLength")
HeadingValueType = Integer(0, 3601, "HeadingValue")
HeadingConfidenceType = Integer(1, 127, "HeadingConfidence")
SpeedValueType = Integer(0, 16383, "SpeedValue")
SpeedConfidenceType = Integer(1, 127, "SpeedConfidence")
TimestampItsType = Integer(0, 4398046511103, "TimestampIts")
DeltaTimeSecondType = Integer(0, 65535, "DeltaTimeSecond")

POS_CONFIDENCE_ELLIPSE = Sequence("PosConfidenceEllipse", [
    Field("semiMajorConfidence", SemiAxisLengthType),
    Field("semiMinorConfidence", SemiAxisLengthType),
    Field("semiMajorOrientation", HeadingValueType),
])

ALTITUDE = Sequence("Altitude", [
    Field("altitudeValue", AltitudeValueType),
    Field("altitudeConfidence", AltitudeConfidenceType),
])

REFERENCE_POSITION = Sequence("ReferencePosition", [
    Field("latitude", LatitudeType),
    Field("longitude", LongitudeType),
    Field("positionConfidenceEllipse", POS_CONFIDENCE_ELLIPSE),
    Field("altitude", ALTITUDE),
])

HEADING = Sequence("Heading", [
    Field("headingValue", HeadingValueType),
    Field("headingConfidence", HeadingConfidenceType),
])

SPEED = Sequence("Speed", [
    Field("speedValue", SpeedValueType),
    Field("speedConfidence", SpeedConfidenceType),
])

StationTypeType = Integer(0, 255, "StationType")

DeltaLatitudeType = Integer(-131071, 131072, "DeltaLatitude")
DeltaLongitudeType = Integer(-131071, 131072, "DeltaLongitude")
DeltaAltitudeType = Integer(-12700, 12800, "DeltaAltitude")
PathDeltaTimeType = Integer(1, 65535, "PathDeltaTime")

DELTA_REFERENCE_POSITION = Sequence("DeltaReferencePosition", [
    Field("deltaLatitude", DeltaLatitudeType),
    Field("deltaLongitude", DeltaLongitudeType),
    Field("deltaAltitude", DeltaAltitudeType),
])

PATH_POINT = Sequence("PathPoint", [
    Field("pathPosition", DELTA_REFERENCE_POSITION),
    Field("pathDeltaTime", PathDeltaTimeType, optional=True),
])


# ---------------------------------------------------------------------------
# Python-side constants and dataclasses
# ---------------------------------------------------------------------------


class MessageId:
    """ITS message identifiers (TS 102 894-2 DE_ItsPduHeader)."""

    DENM = 1
    CAM = 2
    POI = 3
    SPAT = 4
    MAP = 5
    IVI = 6
    EV_RSR = 7


class StationType:
    """DE_StationType values."""

    UNKNOWN = 0
    PEDESTRIAN = 1
    CYCLIST = 2
    MOPED = 3
    MOTORCYCLE = 4
    PASSENGER_CAR = 5
    BUS = 6
    LIGHT_TRUCK = 7
    HEAVY_TRUCK = 8
    TRAILER = 9
    SPECIAL_VEHICLE = 10
    TRAM = 11
    ROAD_SIDE_UNIT = 15


#: Seconds between the Unix epoch and the ITS epoch (2004-01-01T00:00:00Z).
ITS_EPOCH_UNIX = 1072915200.0

#: Sentinel wire values meaning "unavailable".
LATITUDE_UNAVAILABLE = 900000001
LONGITUDE_UNAVAILABLE = 1800000001
ALTITUDE_UNAVAILABLE = 800001
HEADING_UNAVAILABLE = 3601
SPEED_UNAVAILABLE = 16383
SEMI_AXIS_UNAVAILABLE = 4095


def its_timestamp(unix_seconds: float) -> int:
    """Milliseconds since the ITS epoch for a Unix time in seconds."""
    millis = round((unix_seconds - ITS_EPOCH_UNIX) * 1000.0)
    if millis < 0:
        raise ValueError(f"time {unix_seconds} predates the ITS epoch")
    return millis


def from_its_timestamp(millis: int) -> float:
    """Unix time in seconds for an ITS timestamp in milliseconds."""
    return ITS_EPOCH_UNIX + millis / 1000.0


def latitude_to_wire(degrees: float) -> int:
    """Degrees -> 0.1 micro-degree wire units (clamped to range)."""
    return int(max(-900000000, min(900000000, round(degrees * 1e7))))


def latitude_from_wire(value: int) -> float:
    """0.1 micro-degree wire units -> degrees."""
    return value / 1e7


def longitude_to_wire(degrees: float) -> int:
    """Degrees -> 0.1 micro-degree wire units (clamped to range)."""
    return int(max(-1800000000, min(1800000000, round(degrees * 1e7))))


def longitude_from_wire(value: int) -> float:
    """0.1 micro-degree wire units -> degrees."""
    return value / 1e7


def speed_to_wire(mps: float) -> int:
    """Metres/second -> 0.01 m/s wire units (clamped to valid range)."""
    return int(max(0, min(16382, round(mps * 100.0))))


def speed_from_wire(value: int) -> float:
    """0.01 m/s wire units -> metres/second."""
    return value / 100.0


def heading_to_wire(degrees: float) -> int:
    """Degrees clockwise from north -> 0.1 degree wire units."""
    return int(round((degrees % 360.0) * 10.0)) % 3600


def heading_from_wire(value: int) -> float:
    """0.1 degree wire units -> degrees."""
    return value / 10.0


@dataclasses.dataclass(frozen=True)
class ItsPduHeader:
    """Decoded ITS PDU header."""

    protocol_version: int
    message_id: int
    station_id: int

    def to_asn(self) -> dict:
        """The wire-form dict for :data:`ITS_PDU_HEADER`."""
        return {
            "protocolVersion": self.protocol_version,
            "messageID": self.message_id,
            "stationID": self.station_id,
        }

    @staticmethod
    def from_asn(value: dict) -> "ItsPduHeader":
        """Build from a decoded :data:`ITS_PDU_HEADER` dict."""
        return ItsPduHeader(
            protocol_version=value["protocolVersion"],
            message_id=value["messageID"],
            station_id=value["stationID"],
        )


@dataclasses.dataclass(frozen=True)
class ReferencePosition:
    """A geographic position in SI units (degrees / metres)."""

    latitude: float
    longitude: float
    altitude: float = 0.0
    semi_major_confidence: float = 1.0  # metres
    semi_minor_confidence: float = 1.0  # metres

    def to_asn(self) -> dict:
        """The wire-form dict for :data:`REFERENCE_POSITION`."""
        return {
            "latitude": latitude_to_wire(self.latitude),
            "longitude": longitude_to_wire(self.longitude),
            "positionConfidenceEllipse": {
                "semiMajorConfidence": _confidence_cm(
                    self.semi_major_confidence),
                "semiMinorConfidence": _confidence_cm(
                    self.semi_minor_confidence),
                "semiMajorOrientation": 0,
            },
            "altitude": {
                "altitudeValue": _altitude_cm(self.altitude),
                "altitudeConfidence": "unavailable",
            },
        }

    @staticmethod
    def from_asn(value: dict) -> "ReferencePosition":
        """Build from a decoded :data:`REFERENCE_POSITION` dict."""
        ellipse = value["positionConfidenceEllipse"]
        return ReferencePosition(
            latitude=latitude_from_wire(value["latitude"]),
            longitude=longitude_from_wire(value["longitude"]),
            altitude=value["altitude"]["altitudeValue"] / 100.0,
            semi_major_confidence=ellipse["semiMajorConfidence"] / 100.0,
            semi_minor_confidence=ellipse["semiMinorConfidence"] / 100.0,
        )


def _confidence_cm(metres: float) -> int:
    return int(max(0, min(4094, round(metres * 100.0))))


def _altitude_cm(metres: float) -> int:
    return int(max(-100000, min(800000, round(metres * 100.0))))
