#!/usr/bin/env python3
"""A tour of the ETSI ITS stack as a library.

Shows the lower layers on their own: UPER-encoding CAMs and DENMs,
standing up two ITS stations on a simulated 802.11p channel, watching
the CA service's adaptive generation rules, and reading the receiver's
Local Dynamic Map.

Run:  python examples/v2x_messaging.py
"""

from repro.facilities import ItsStation, ObjectKind
from repro.geonet import LocalFrame
from repro.messages import (
    ActionId,
    Cam,
    Denm,
    ReferencePosition,
    StationType,
    describe_event,
)
from repro.net import WirelessMedium
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.sim import RandomStreams, Simulator


def wire_level_tour() -> None:
    print("== Wire level ==")
    position = ReferencePosition(41.17867, -8.60782, altitude=90.0)
    cam = Cam(station_id=101, station_type=StationType.PASSENGER_CAR,
              generation_delta_time=1234, position=position,
              heading=270.0, speed=1.45)
    cam_bytes = cam.encode()
    print(f"CAM  : {len(cam_bytes)} bytes on the wire -> "
          f"{cam_bytes.hex()[:48]}...")
    decoded = Cam.decode(cam_bytes)
    print(f"       decoded speed={decoded.speed:.2f} m/s "
          f"heading={decoded.heading:.1f} deg")

    denm = Denm.collision_risk(
        ActionId(station_id=900, sequence_number=1),
        detection_time=600_000_000_000,
        event_position=position,
        station_type=StationType.ROAD_SIDE_UNIT,
    )
    denm_bytes = denm.encode()
    print(f"DENM : {len(denm_bytes)} bytes on the wire; event = "
          f"{denm.describe()}")
    print(f"       cause registry: {describe_event(94, 2)} / "
          f"{describe_event(99, 5)}")
    print()


def stack_tour() -> None:
    print("== Two stations on a simulated 802.11p channel ==")
    sim = Simulator()
    streams = RandomStreams(7)
    frame = LocalFrame()
    medium = WirelessMedium(sim, streams.seed,
                            LinkBudget(path_loss=LogDistancePathLoss()))

    x = [0.0]
    vehicle = ItsStation(
        sim, medium, streams, "obu", 101, StationType.PASSENGER_CAR,
        position=lambda: frame.to_geo(x[0], 0.0),
        dynamics=lambda: (6.0, 90.0), local_frame=frame)
    rsu = ItsStation(
        sim, medium, streams, "rsu", 900, StationType.ROAD_SIDE_UNIT,
        position=lambda: frame.to_geo(10.0, 2.0), is_rsu=True,
        local_frame=frame)

    def drive():
        x[0] += 0.06  # 6 m/s
        sim.schedule(0.01, drive)
    sim.schedule(0.01, drive)

    denms = []
    vehicle.den.on_denm(
        lambda denm, cls: denms.append((sim.now, cls, denm.describe())))

    def warn():
        geo = frame.to_geo(12.0, 0.0)
        denm = Denm.collision_risk(
            rsu.den.allocate_action_id(), rsu.its_time(),
            ReferencePosition(geo.latitude, geo.longitude),
            StationType.ROAD_SIDE_UNIT)
        rsu.den.trigger(denm, repetition_interval=0.1,
                        repetition_duration=0.3)
    sim.schedule(3.0, warn)

    sim.run_until(6.0)

    print(f"vehicle sent {vehicle.ca.cams_sent} CAMs in 6 s "
          f"(moving at 6 m/s -> the 4 m dynamics rule beats the 1 s "
          f"upper period)")
    print(f"RSU received {rsu.ca.cams_received} of them")
    vehicles_known = rsu.ldm.query(kinds=[ObjectKind.VEHICLE])
    print(f"RSU LDM knows {len(vehicles_known)} vehicle(s); latest "
          f"speed {vehicles_known[0].speed:.2f} m/s")
    first = denms[0]
    print(f"vehicle heard DENM at t={first[0]:.3f} s ({first[1]}): "
          f"{first[2]}")
    print(f"repetitions received: "
          f"{sum(1 for _t, cls, _d in denms if cls == 'repetition')}")
    events = vehicle.ldm.query(kinds=[ObjectKind.EVENT])
    print(f"vehicle LDM stores {len(events)} event(s)")


def main() -> None:
    wire_level_tour()
    stack_tour()


if __name__ == "__main__":
    main()
