#!/usr/bin/env python3
"""Red-light assist over SPATEM/MAPEM.

An RSU runs a traffic light for the intersection at the origin and
broadcasts its topology (MAPEM) and live phases (SPATEM).  The robotic
vehicle approaches on the east-west lane; an assist application on
the Jetson checks the signal group governing its approach and

* brakes when the light is red and the stop line is within reach,
* resumes when the light turns green.

Run:  python examples/signalized_intersection.py
"""


from repro.facilities import ItsStation
from repro.facilities.traffic_light import (
    SignalPhaseService,
    TrafficLightController,
    two_phase_plan,
)
from repro.geonet import LocalFrame
from repro.messages import StationType
from repro.messages.spat import Lane
from repro.net import WirelessMedium
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.sim import RandomStreams, Simulator
from repro.vehicle import RoboticVehicle, VehicleState


class RedLightAssist:
    """Polls the signal phase for the vehicle's approach and acts."""

    def __init__(self, sim, vehicle, service, intersection_id,
                 stop_line_x=-0.8, check_period=0.1):
        self.sim = sim
        self.vehicle = vehicle
        self.service = service
        self.intersection_id = intersection_id
        self.stop_line_x = stop_line_x
        self.check_period = check_period
        self.stops = 0
        self.resumes = 0
        sim.schedule(check_period, self._check)

    def _check(self) -> None:
        movement = self.service.movement_for_approach(
            self.intersection_id, self.vehicle.heading_degrees)
        if movement is not None:
            x = self.vehicle.dynamics.state.x
            distance_to_line = self.stop_line_x - x
            if movement.is_stop and 0.0 < distance_to_line:
                speed = self.vehicle.speed
                stopping = self.vehicle.dynamics.stopping_distance() \
                    + speed * 0.15 + 0.05
                if distance_to_line <= stopping and speed > 0.05:
                    if not self.vehicle.planner.emergency_engaged:
                        self.stops += 1
                        self.vehicle.planner.emergency_stop("red-light")
            elif movement.is_go and self.vehicle.planner.emergency_engaged:
                self.resumes += 1
                self.vehicle.planner.resume()
        self.sim.schedule(self.check_period, self._check)


def main() -> None:
    sim = Simulator()
    streams = RandomStreams(21)
    frame = LocalFrame()
    medium = WirelessMedium(sim, streams.seed,
                            LinkBudget(path_loss=LogDistancePathLoss()))

    # The vehicle drives east (+x) towards the intersection at x=0.
    vehicle = RoboticVehicle(
        sim, streams,
        initial_state=VehicleState(x=-12.0, y=0.0, heading=0.0))
    obu = ItsStation(
        sim, medium, streams, "obu", 101, StationType.PASSENGER_CAR,
        position=lambda: frame.to_geo(*vehicle.position),
        dynamics=lambda: (vehicle.speed, vehicle.heading_degrees),
        local_frame=frame)
    rsu = ItsStation(
        sim, medium, streams, "rsu", 900, StationType.ROAD_SIDE_UNIT,
        position=lambda: frame.to_geo(0.0, 2.0), is_rsu=True,
        local_frame=frame)

    lanes = [
        Lane(1, "ingress", approach_bearing=90.0, signal_group=1),
        Lane(2, "ingress", approach_bearing=180.0, signal_group=2),
    ]
    TrafficLightController(
        sim, rsu.router, 900, intersection_id=7,
        position=frame.to_geo(0.0, 0.0), lanes=lanes,
        plan=two_phase_plan(green_time=6.0, yellow_time=1.5,
                            all_red=1.0))
    service = SignalPhaseService(sim, obu.router, obu.ldm)
    assist = RedLightAssist(sim, vehicle, service, intersection_id=7)

    print("Vehicle approaches a signalized intersection "
          "(eastbound, signal group 1)\n")
    log = []

    def snapshot():
        movement = service.movement_for_approach(
            7, vehicle.heading_degrees)
        phase = movement.event_state if movement else "?"
        log.append((sim.now, vehicle.dynamics.state.x,
                    vehicle.speed, phase))
        sim.schedule(1.0, snapshot)

    sim.schedule(1.0, snapshot)
    sim.run_until(22.0)

    for t, x, speed, phase in log:
        marker = "STOPPED" if speed < 0.05 else ""
        print(f"  t={t:5.1f} s  x={x:7.2f} m  v={speed:4.2f} m/s  "
              f"signal: {phase:<28} {marker}")

    print()
    print(f"red-light stops: {assist.stops}, resumes: {assist.resumes}")
    final_x = vehicle.dynamics.state.x
    assert assist.stops >= 1, "the light cycle should have caught us"
    assert assist.resumes >= 1
    assert final_x > 0.5, "vehicle should eventually cross"
    print(f"vehicle crossed the intersection (x={final_x:.1f} m) after "
          "waiting out the red.")
    print()
    print("Tip: GLOSA (repro.facilities.glosa) avoids the stop "
          "entirely by\nslowing early to arrive on green -- see "
          "tests/test_glosa.py for the\nclosed-loop comparison.")


if __name__ == "__main__":
    main()
