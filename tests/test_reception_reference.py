"""Differential tests: the CAM receive chain against its predecessor in
:mod:`tests.reference.reception`, and frame-anchored antenna positions
against the geodetic round trip they replace.

The same random frame sequence -- CAMs from several senders, repeated
and forwarded copies, stale position vectors, beacons, GeoBroadcasts
inside and outside their area, echoes of a station's own packets -- is
delivered to two identical sets of receiving stations, one of them
built and run with the reference receive steps patched in.  Each frame
reaches every station of a set in one event, as a broadcast does, so
the fast chain shares one LDM object among the receivers of a frame.
Every receiver must agree with its twin on every LDM object field, every
counter of the LDM, location table, router, BTP mux, CA service and
NIC, every location-table entry, the observer's counters, and the order
of every callback across all receivers.

The reference ``Ldm.put`` numbers each object in a ``revision`` field
that the live LDM dropped (nothing read it), so the reference run
builds its objects as :class:`MutableLdmObject` and gives ``Ldm`` the
counter it draws from; the object comparison covers the live fields
only.  The reference location table also writes
``last_sequence_number``, a field the live entry dropped; the entry
comparison leaves it out.
"""

import contextlib
import dataclasses
import itertools
import math
import struct
from typing import Any, Callable, Dict, List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asn1 import Asn1Error
from repro.core.fleet.scenario import FleetScenario
from repro.core.fleet.testbed import FleetTestbed
from repro.facilities import ItsStation
from repro.facilities.ca_service import CaConfig
from repro.facilities.ldm import Ldm, LdmObject, ObjectKind
from repro.geonet import CircularArea, GeoPosition, LocalFrame
from repro.geonet.btp import BtpPort
from repro.geonet.position import (
    EARTH_RADIUS,
    FramePosition,
    PositionVector,
    antenna_reader,
)
from repro.geonet.router import GnPacket
from repro.messages.cam import Cam
from repro.messages.common import ReferencePosition, StationType
from repro.net import AccessCategory, Frame, WirelessMedium
from repro.net.nic import NetworkInterface
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.obs import ObsContext
from repro.sim import Simulator
from repro.sim.randomness import RandomStreams
from tests.reference import reception
from tests.reference.reception import PATCHES

FRAME = LocalFrame()

#: The receiving stations: GN address -> (local position (m), CAM
#: lifetime in the LDM (s)).  Two share a lifetime, so they share the
#: LDM objects of the frames they both receive.
RECEIVERS = {"rx0": ((0.0, 0.0), 1.1), "rx1": ((15.0, 5.0), 1.1),
             "rx2": ((-30.0, 8.0), 0.7)}
RECEIVER = "rx0"

#: Remote senders: GN address -> station id.
SENDERS = {"s1": 201, "s2": 202, "s3": 203}

#: A forwarder's radio: packets it relays are not heard directly.
FORWARDER = "fwd"

#: A BTP port with a recording handler (no facilities service on it).
TEST_PORT = 4000

#: Frames arrive on a 1 ms grid over 4 s, inside the 20 s lifetime.
TICK = 1e-3


def cam_payload(station_id: int, x: float, y: float, speed: float,
                heading: float, gdt: int) -> bytes:
    geo = FRAME.to_geo(x, y)
    return Cam(
        station_id=station_id,
        station_type=StationType.PASSENGER_CAR,
        generation_delta_time=gdt,
        position=ReferencePosition(geo.latitude, geo.longitude),
        heading=heading,
        speed=speed,
    ).encode()


@st.composite
def deliveries(draw: Any) -> List[Tuple[int, Frame]]:
    """``(tick, frame)`` pairs; several may share a tick."""
    cams = draw(st.lists(
        st.tuples(st.sampled_from(sorted(SENDERS)),
                  st.integers(-30, 30), st.integers(-30, 30),
                  st.integers(0, 40), st.integers(0, 359),
                  st.integers(0, 65535)),
        min_size=1, max_size=6))
    payloads = [cam_payload(SENDERS[name], x, y, speed / 4.0,
                            float(heading), gdt)
                for name, x, y, speed, heading, gdt in cams]
    sequence: Dict[str, int] = {}
    sent: List[GnPacket] = []
    out: List[Tuple[int, Frame]] = []
    for _ in range(draw(st.integers(1, 40))):
        tick = draw(st.integers(0, 4000))
        kind = draw(st.sampled_from(
            ["cam", "cam", "cam", "repeat", "beacon", "gbc", "echo",
             "opaque"]))
        if kind == "opaque":
            out.append((tick, Frame(payload=b"\x00", size=1,
                                    source="s1")))
            continue
        if kind == "repeat" and sent:
            packet = draw(st.sampled_from(sent))
            mac_source = draw(st.sampled_from(
                [packet.source_position_vector.gn_address, FORWARDER]))
            out.append((tick, Frame(payload=packet,
                                    size=packet.wire_size,
                                    source=mac_source)))
            continue
        sender = draw(st.sampled_from(sorted(RECEIVERS))) if (
            kind == "echo") else draw(st.sampled_from(sorted(SENDERS)))
        sequence[sender] = sequence.get(sender, 0) + 1
        source = PositionVector(
            gn_address=sender,
            # Some vectors are older than what the table already holds.
            timestamp=draw(st.integers(0, 4000)) * TICK,
            position=FRAME.to_geo(draw(st.integers(-30, 30)),
                                  draw(st.integers(-30, 30))),
            speed=float(draw(st.integers(0, 5))),
            heading=float(draw(st.integers(0, 359))),
        )
        if kind == "beacon":
            packet = GnPacket(transport="beacon",
                              source_position_vector=source,
                              sequence_number=sequence[sender],
                              btp_port=0, payload=b"")
        elif kind == "gbc":
            centre = (draw(st.integers(-40, 40)), 0.0)
            packet = GnPacket(
                transport="gbc", source_position_vector=source,
                sequence_number=sequence[sender],
                btp_port=draw(st.sampled_from(
                    [BtpPort.CAM, TEST_PORT, BtpPort.SPAT])),
                payload=draw(st.sampled_from(payloads)),
                hop_limit=draw(st.integers(1, 3)),
                area=CircularArea(FRAME.to_geo(*centre), 20.0),
                traffic_class=AccessCategory.AC_VO)
        else:
            packet = GnPacket(
                transport="shb", source_position_vector=source,
                sequence_number=sequence[sender],
                btp_port=draw(st.sampled_from(
                    [BtpPort.CAM, BtpPort.CAM, TEST_PORT])),
                payload=draw(st.sampled_from(payloads)),
                traffic_class=AccessCategory.AC_VI)
        sent.append(packet)
        forwarded = kind != "echo" and draw(st.booleans())
        out.append((tick, Frame(
            payload=packet, size=packet.wire_size,
            source=FORWARDER if forwarded else sender,
            category=packet.traffic_class)))
    return out


@dataclasses.dataclass
class MutableLdmObject:
    """The LDM object as the reference steps know it: mutable, with a
    revision."""

    key: str
    kind: ObjectKind
    position: GeoPosition
    timestamp: float
    valid_until: float
    data: Any = None
    source: str = "sensor"
    station_id: Any = None
    speed: float = 0.0
    heading: float = 0.0
    revision: int = 0

    is_valid_at = LdmObject.is_valid_at


def ldm_fields(obj: Any) -> Tuple[Any, ...]:
    return tuple(getattr(obj, field.name)
                 for field in dataclasses.fields(LdmObject))


def build_station(sim: Simulator, medium: WirelessMedium,
                  streams: RandomStreams, name: str,
                  log: List[Tuple[Any, ...]]) -> ItsStation:
    xy, lifetime = RECEIVERS[name]
    station = ItsStation(
        sim, medium, streams, name=name, station_id=100,
        station_type=StationType.ROAD_SIDE_UNIT,
        position=FRAME.anchor(lambda: xy), enable_cam=False, local_frame=FRAME,
        ca_config=CaConfig(ldm_lifetime=lifetime))
    ldm = station.ldm
    station.ca.on_cam(lambda cam: log.append(
        (name, "cam", cam.station_id, cam.generation_delta_time)))
    station.ca.on_cam(lambda cam: log.append((name, "cam2", cam.station_id)))
    ldm.subscribe(lambda obj: log.append(
        (name, "ldm", obj.key, obj.timestamp)))
    ldm.subscribe(
        lambda obj: log.append((name, "near", obj.key)),
        kinds=[ObjectKind.VEHICLE],
        area=CircularArea(FRAME.to_geo(*xy), 15.0))
    ldm.subscribe(lambda obj: log.append((name, "event", obj.key)),
                  kinds=[ObjectKind.EVENT])
    station.router.btp.register(TEST_PORT, lambda payload: log.append(
        (name, "btp", payload, sim.now)))
    return station


def station_state(station: ItsStation) -> Dict[str, Any]:
    """Everything observable at one receiver."""
    router, ldm, ca = station.router, station.ldm, station.ca
    table = router.location_table
    return {
        "objects": [ldm_fields(obj) for obj in ldm._objects.values()],
        "ldm": (ldm.inserts, ldm.updates, ldm.expired),
        "ca": (ca.cams_received, ca.cams_sent),
        "router": (router.packets_sent, router.packets_delivered_up,
                   router.packets_forwarded, router.packets_duplicate,
                   router.packets_outside_area,
                   router.packets_rejected_security,
                   router.packets_no_route, router.beacons_sent,
                   router.beacons_received),
        "btp": (router.btp.delivered, router.btp.no_handler),
        "nic": station.nic.frames_received,
        # Every field but the reference's ``last_sequence_number``.
        "table": [(entry.gn_address, entry.position_vector,
                   entry.updated_at, entry.is_neighbour,
                   sorted(entry.seen_sequence_numbers),
                   entry.packets_received)
                  for entry in table._entries.values()],
    }


def run_stations(frames: List[Tuple[int, Frame]], observed: bool,
                 receivers: Tuple[str, ...] = tuple(RECEIVERS),
                 until: float = 5.0) -> Dict[str, Any]:
    """Deliver each of *frames* to every receiver in one event."""
    sim = Simulator()
    obs = ObsContext().bind(sim) if observed else None
    streams = RandomStreams(seed=7)
    medium = WirelessMedium(sim, streams.seed,
                            LinkBudget(path_loss=LogDistancePathLoss()))
    log: List[Tuple[Any, ...]] = []
    stations = [build_station(sim, medium, streams, name, log)
                for name in receivers]

    def broadcast(frame: Frame) -> None:
        for station in stations:
            station.nic.deliver(frame)

    for tick, frame in frames:
        sim.schedule_at(tick * TICK, lambda frame=frame: broadcast(frame))
    sim.run_until(until)
    return {
        "log": log,
        "stations": {station.name: station_state(station)
                     for station in stations},
        "medium": medium.frames_sent,
        "obs": obs.to_dict() if obs is not None else None,
        "ldms": [station.ldm for station in stations],
    }


def comparable(run: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in run.items() if key != "ldms"}


@contextlib.contextmanager
def reference_receive_chain():
    with contextlib.ExitStack() as stack:
        for cls, name, function in PATCHES:
            # ``create``: the oracle's ``LocationTable.update`` and
            # ``.is_duplicate`` have no counterpart in the optimised
            # table any more.
            stack.enter_context(
                mock.patch.object(cls, name, function, create=True))
        stack.enter_context(mock.patch.object(
            Ldm, "_revisions", itertools.count(1), create=True))
        stack.enter_context(mock.patch.object(
            reception, "LdmObject", MutableLdmObject))
        yield


class TestReceiveChainMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(frames=deliveries(), observed=st.booleans())
    def test_same_observable_state(self, frames, observed):
        fast = run_stations(frames, observed)
        with reference_receive_chain():
            reference = run_stations(frames, observed)
        assert comparable(fast) == comparable(reference)

    def test_sequence_exercises_every_branch(self):
        # A fixed sequence through every receive branch, so the
        # comparison above cannot pass vacuously.
        payload = cam_payload(201, 3.0, 4.0, 1.0, 90.0, 7)
        source = PositionVector("s1", 0.0, FRAME.to_geo(3.0, 4.0))
        shb = GnPacket(transport="shb", source_position_vector=source,
                       sequence_number=1, btp_port=BtpPort.CAM,
                       payload=payload)
        beacon = GnPacket(transport="beacon",
                          source_position_vector=dataclasses.replace(
                              source, gn_address="s2"),
                          sequence_number=1, btp_port=0, payload=b"")
        gbc_in = GnPacket(transport="gbc", source_position_vector=source,
                          sequence_number=2, btp_port=BtpPort.CAM,
                          payload=payload, hop_limit=2,
                          area=CircularArea(FRAME.to_geo(0, 0), 10.0))
        gbc_out = dataclasses.replace(
            gbc_in, sequence_number=3,
            area=CircularArea(FRAME.to_geo(100, 0), 10.0))
        frames = [(tick, Frame(payload=packet, size=packet.wire_size,
                               source=source_name))
                  for tick, packet, source_name in [
                      (1, shb, "s1"), (2, shb, FORWARDER),
                      (3, beacon, "s2"), (4, gbc_in, FORWARDER),
                      (5, gbc_out, "s1")]]
        fast = run_stations(frames, observed=True, receivers=(RECEIVER,))
        with reference_receive_chain():
            reference = run_stations(frames, observed=True,
                                     receivers=(RECEIVER,))
        assert comparable(fast) == comparable(reference)
        state = fast["stations"][RECEIVER]
        # sent, up, forwarded, duplicate, outside, rejected, no route,
        # beacons sent, beacons received
        assert state["router"] == (0, 2, 1, 1, 1, 0, 0, 0, 1)
        assert state["ldm"] == (1, 1, 1)  # inserted, updated, expired
        assert [entry[1] for entry in fast["log"]] == [
            "ldm", "near", "cam", "cam2", "ldm", "near", "cam", "cam2"]

    def test_receivers_of_a_frame_share_one_object(self):
        payload = cam_payload(201, 3.0, 4.0, 1.0, 90.0, 7)
        source = PositionVector("s1", 0.0, FRAME.to_geo(3.0, 4.0))
        frames = [(tick, Frame(
            payload=GnPacket(transport="shb", source_position_vector=source,
                             sequence_number=tick, btp_port=BtpPort.CAM,
                             payload=payload),
            size=60, source="s1")) for tick in (1, 2)]
        fast = run_stations(frames, observed=False, until=0.1)
        first, second, short = (ldm.get("cam:201") for ldm in fast["ldms"])
        # rx0 and rx1 keep the CAM 1.1 s, rx2 0.7 s: one object for the
        # first two, another for the third.
        assert first is second and first is not short
        assert (first.timestamp, short.timestamp) == (2 * TICK, 2 * TICK)
        assert short.valid_until == 2 * TICK + 0.7
        # The second frame, at a later now, replaced the first's object
        # in every store: one insert, one update each.
        assert [state["ldm"][:2] for state in fast["stations"].values()
                ] == [(1, 1)] * 3
        with reference_receive_chain():
            reference = run_stations(frames, observed=False, until=0.1)
        assert comparable(fast) == comparable(reference)
        old = [ldm.get("cam:201") for ldm in reference["ldms"]]
        assert old[0] is not old[1]

    def test_undecodable_payload_raises_every_time(self):
        def deliver_garbage() -> List[str]:
            frames = [(tick, Frame(
                payload=GnPacket(
                    transport="shb",
                    source_position_vector=PositionVector(
                        "s1", 0.0, FRAME.to_geo(0, 0)),
                    sequence_number=tick, btp_port=BtpPort.CAM,
                    payload=b"\xff"),
                size=50, source="s1")) for tick in (1, 2)]
            errors = []
            for prefix in (frames[:1], frames):
                with pytest.raises(Asn1Error) as raised:
                    run_stations(prefix, observed=False)
                errors.append(str(raised.value))
            return errors

        fast = deliver_garbage()
        with reference_receive_chain():
            reference = deliver_garbage()
        assert fast == reference
        assert fast[0] == fast[1]


# ---------------------------------------------------------------------------
# Frame-anchored antenna positions
# ---------------------------------------------------------------------------


def bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def round_trip(frame: LocalFrame, x: float, y: float,
               ) -> Tuple[float, float]:
    return frame.to_local(frame.to_geo(x, y))


def mismatches(antenna: Callable[[FramePosition], Tuple[float, float]],
               points: List[Tuple[LocalFrame, float, float]]) -> int:
    """Points where *antenna* differs from the round trip in any bit."""
    count = 0
    for frame, x, y in points:
        got = antenna(frame.anchor(lambda x=x, y=y: (x, y)))
        want = round_trip(frame, x, y)
        if (bits(got[0]), bits(got[1])) != (bits(want[0]), bits(want[1])):
            count += 1
    return count


ORIGINS = [LocalFrame(), LocalFrame(GeoPosition(0.0, 0.0)),
           LocalFrame(GeoPosition(-33.8688, 151.2093)),
           LocalFrame(GeoPosition(64.1466, -21.9426)),
           LocalFrame(GeoPosition(-77.85, 166.67))]

#: A fixed grid: lab-scale points and wide ones, at every origin.
GRID = [(frame, x * scale / 7.0, y * scale / 3.0)
        for frame in ORIGINS
        for scale in (0.37, 11.0, 2.5e3, 4.1e5)
        for x in range(-7, 8) for y in range(-3, 4)]


def reordered_antenna(position: FramePosition) -> Tuple[float, float]:
    """A planted bug: ``R * cos(lat0)`` folded into one factor."""
    x, y = position.local()
    frame = position.frame
    lat0, lon0 = frame.origin.latitude, frame.origin.longitude
    latitude = lat0 + (y / EARTH_RADIUS) * (180.0 / math.pi)
    longitude = lon0 + (x / frame._r_cos_lat0) * (180.0 / math.pi)
    return (math.radians(longitude - lon0) * frame._r_cos_lat0,
            math.radians(latitude - lat0) * EARTH_RADIUS)


class TestFramePosition:
    def test_call_is_to_geo(self):
        position = FRAME.anchor(lambda: (1.25, -3.5))
        assert position() == FRAME.to_geo(1.25, -3.5)

    def test_antenna_bitwise_on_grid(self):
        assert mismatches(FramePosition.antenna, GRID) == 0

    @given(lat=st.floats(-85, 85), lon=st.floats(-180, 180),
           x=st.one_of(st.floats(-50, 50), st.floats(-1e6, 1e6)),
           y=st.one_of(st.floats(-50, 50), st.floats(-1e6, 1e6)))
    def test_antenna_bitwise(self, lat, lon, x, y):
        frame = LocalFrame(GeoPosition(lat, lon))
        assert mismatches(FramePosition.antenna, [(frame, x, y)]) == 0

    def test_planted_reordering_is_caught(self):
        assert mismatches(reordered_antenna, GRID) > 0

    def test_station_antenna_uses_frame_position(self):
        def build(position: Callable[[], GeoPosition],
                  frame: LocalFrame) -> ItsStation:
            sim = Simulator()
            streams = RandomStreams(seed=1)
            medium = WirelessMedium(
                sim, streams.seed,
                LinkBudget(path_loss=LogDistancePathLoss()))
            return ItsStation(sim, medium, streams, name="a",
                              station_id=1, station_type=5,
                              position=position, enable_cam=False,
                              local_frame=frame)

        anchored = FRAME.anchor(lambda: (2.0, 3.0))
        station = build(anchored, FRAME)
        assert station.nic.position == anchored.antenna
        # A position on another frame, or a plain GeoPosition callable,
        # keeps the station's own projection.
        other = build(LocalFrame(GeoPosition(0.0, 0.0)).anchor(
            lambda: (2.0, 3.0)), FRAME)
        assert other.nic.position == other._antenna_position
        plain = build(lambda: FRAME.to_geo(2.0, 3.0), FRAME)
        assert plain.nic.position == plain._antenna_position
        assert station.nic.position() == plain.nic.position()


# ---------------------------------------------------------------------------
# Antenna positions read as arrays by the medium
# ---------------------------------------------------------------------------

COORD = st.one_of(st.floats(-60.0, 60.0), st.floats(-2e5, 2e5))
SPEED = st.floats(-60.0, 60.0)

#: ``(law, x, y, v)``: a fixed point (a line with ``v = 0``), a
#: straight line, a frame-anchored callable, or a plain callable that is
#: no :class:`FramePosition`.
LAWS = st.tuples(st.sampled_from(["fixed", "line", "callable", "plain"]),
                 COORD, COORD, SPEED)


def antenna_of(sim: Simulator, frame: LocalFrame,
               law: Tuple[str, float, float, float],
               ) -> Callable[[], Tuple[float, float]]:
    kind, x, y, v = law
    if kind == "fixed":
        return frame.anchor_line(x, y, 0.0, sim).antenna
    if kind == "line":
        return frame.anchor_line(x, y, v, sim).antenna
    if kind == "callable":
        return frame.anchor(
            lambda: (x + v * math.sin(sim.now), y - 0.25 * sim.now)).antenna
    return lambda: (x + v * sim.now, y)


def layout_mismatches(medium: WirelessMedium) -> List[str]:
    """Stations whose array antenna differs in any bit from a call of
    their position."""
    layout = medium._current_layout()
    xs, ys = layout.antennas()
    return [station.name
            for station, x, y in zip(layout.stations, xs.tolist(),
                                     ys.tolist())
            if (bits(x), bits(y)) != tuple(map(bits, station.position()))]


class TestAntennaReader:
    @settings(max_examples=80, deadline=None)
    @given(laws=st.lists(st.tuples(st.integers(0, len(ORIGINS) - 1), LAWS),
                         min_size=1, max_size=10),
           times=st.lists(st.floats(0.0, 1e4), min_size=2, max_size=6),
           churn=st.lists(st.integers(0, 9), max_size=4, unique=True))
    def test_arrays_equal_scalar_reads(self, laws, times, churn):
        sim = Simulator()
        medium = WirelessMedium(sim, 0)
        nics = [NetworkInterface(sim, medium, f"s{index}",
                                 antenna_of(sim, ORIGINS[origin], law))
                for index, (origin, law) in enumerate(laws)]
        times = sorted(times)
        half = len(times) // 2
        for now in times[:half]:
            sim.run_until(now)
            assert layout_mismatches(medium) == []
        # Detach some stations mid-run and re-attach them in reverse:
        # the layout is rebuilt in a new order, on new slots.
        moved = [nics[index] for index in churn if index < len(nics)]
        for nic in moved:
            medium.detach(nic)
        assert layout_mismatches(medium) == []
        for nic in reversed(moved):
            medium.attach(nic)
        for now in times[half:]:
            sim.run_until(now)
            assert layout_mismatches(medium) == []

    def test_every_law_in_one_layout(self):
        sim = Simulator()
        medium = WirelessMedium(sim, 0)
        laws = [("fixed", 3.0, 4.0, 0.0), ("line", -12.5, 0.6, 1.7),
                ("callable", 1.0, 2.0, 0.5), ("plain", 7.0, 8.0, -1.0),
                ("line", 40.0, 1.2, -1.7), ("fixed", -1e5, 2e5, 0.0)]
        for index, law in enumerate(laws):
            NetworkInterface(sim, medium, f"s{index}",
                             antenna_of(sim, ORIGINS[index % 2], law))
        for now in (0.0, 0.1, 1.7, 123.456):
            sim.run_until(now)
            assert layout_mismatches(medium) == []

    def test_lines_on_two_clocks_are_refused(self):
        positions = [FRAME.anchor_line(1.0, 2.0, 3.0, clock).antenna
                     for clock in (Simulator(), Simulator())]
        with pytest.raises(ValueError):
            antenna_reader(positions)

    def test_line_is_the_fleet_background_motion(self):
        # The fleet used to compute x0 + direction * speed * now.
        for direction in (1.0, -1.0):
            sim = Simulator()
            position = FRAME.anchor_line(3.3, 0.6, direction * 0.7, sim)
            for now in (0.1, 0.3, 2.9):
                sim.run_until(now)
                assert position.local() == (3.3 + direction * 0.7 * now,
                                            0.6)

    def test_fleet_layout_across_detach_and_reattach(self):
        testbed = FleetTestbed(FleetScenario(
            workload="blind_corner", n_obus=6, n_rsus=2, duration=3.0))
        medium, sim = testbed.medium, testbed.sim
        lines = [unit.station.position._line is not None
                 for unit in [*testbed.rsus, *testbed.obus]]
        # The RSUs and the protagonist callables, the rest lines.
        assert lines == [False] * 3 + [True] * 5
        sim.run_until(0.3)
        assert layout_mismatches(medium) == []
        moved = [testbed.rsus[1].station.nic, testbed.obus[3].station.nic]
        for nic in moved:
            medium.detach(nic)
        sim.run_until(0.5)
        assert layout_mismatches(medium) == []
        for nic in reversed(moved):
            medium.attach(nic)
        sim.run_until(0.8)
        assert layout_mismatches(medium) == []
        assert [station.name for station in medium._current_layout().stations
                ][-2:] == ["obu-3", "rsu-1"]
