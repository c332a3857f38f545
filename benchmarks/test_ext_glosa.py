"""E6 -- extension: GLOSA vs reactive red-light assist.

Both applications run on the SPATEM/MAPEM stack.  The red-light
assist brakes when the light ahead is red and resumes on green; GLOSA
(Green Light Optimal Speed Advisory) adjusts speed ahead of time so
the vehicle arrives during a green window.  Metrics per approach:
full stops, time to cross the intersection, and mean speed (a
smoothness/energy proxy).
"""

import numpy as np

from repro.facilities import ItsStation
from repro.facilities.glosa import advise
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

from benchmarks.conftest import fmt

SEEDS = (9, 10, 11)
STOP_LINE_X = -0.8


def run_approach(use_glosa, seed):
    sim = Simulator()
    streams = RandomStreams(seed)
    frame = LocalFrame()
    medium = WirelessMedium(sim, streams.seed,
                            LinkBudget(path_loss=LogDistancePathLoss()))
    vehicle = RoboticVehicle(
        sim, streams,
        initial_state=VehicleState(x=-14.0, y=0.0, heading=0.0))
    obu = ItsStation(
        sim, medium, streams, "obu", 101, StationType.PASSENGER_CAR,
        position=lambda: frame.to_geo(*vehicle.position),
        dynamics=lambda: (vehicle.speed, vehicle.heading_degrees),
        local_frame=frame)
    rsu = ItsStation(
        sim, medium, streams, "rsu", 900, StationType.ROAD_SIDE_UNIT,
        position=lambda: frame.to_geo(0.0, 2.0), is_rsu=True,
        local_frame=frame)
    TrafficLightController(
        sim, rsu.router, 900, 7, frame.to_geo(0.0, 0.0),
        lanes=[Lane(1, "ingress", 90.0, signal_group=1)],
        plan=two_phase_plan(green_time=5.0, yellow_time=1.0,
                            all_red=1.0))
    service = SignalPhaseService(sim, obu.router, obu.ldm)

    full_stops = [0]
    was_moving = [False]
    speeds = []
    crossed_at = [None]

    def controller():
        movement = service.movement_for_approach(
            7, vehicle.heading_degrees)
        x = vehicle.dynamics.state.x
        distance = STOP_LINE_X - x
        speed = vehicle.speed
        speeds.append(speed)
        if crossed_at[0] is None and x > 0.0:
            crossed_at[0] = sim.now
        if speed > 0.3:
            was_moving[0] = True
        if was_moving[0] and speed < 0.02 and distance > -0.5:
            full_stops[0] += 1
            was_moving[0] = False
        if movement is not None and distance > 0:
            if use_glosa:
                advice = advise(distance, speed, movement,
                                v_max=1.5, v_min=0.4,
                                red_estimate=7.0)
                if advice.requires_stop:
                    vehicle.planner.emergency_stop("glosa")
                else:
                    if vehicle.planner.emergency_engaged:
                        vehicle.planner.resume()
                    throttle = advice.target_speed / 8.0 / 0.95
                    vehicle.planner.cruise_throttle = throttle
                    vehicle.control.command_throttle(throttle)
            else:
                stopping = (vehicle.dynamics.stopping_distance()
                            + speed * 0.2)
                if movement.is_stop and distance <= stopping + 0.1:
                    vehicle.planner.emergency_stop("red")
                elif movement.is_go \
                        and vehicle.planner.emergency_engaged:
                    vehicle.planner.resume()
        sim.schedule(0.1, controller)

    sim.schedule(0.1, controller)
    sim.run_until(35.0)
    return {
        "stops": full_stops[0],
        "crossing_time": crossed_at[0],
        "mean_speed": float(np.mean(speeds)),
    }


def run_all():
    out = {}
    for label, use_glosa in (("red-light assist", False),
                             ("GLOSA", True)):
        out[label] = [run_approach(use_glosa, seed) for seed in SEEDS]
    return out


def test_ext_glosa_vs_assist(benchmark, report):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    report.line("Extension E6 -- GLOSA vs reactive red-light assist")
    report.line(f"(14 m approach, 5 s green / 7 s effective red, "
                f"{len(SEEDS)} seeds)")
    report.line()
    rows = []
    for label, runs in results.items():
        stops = sum(run["stops"] for run in runs)
        crossing = np.mean([run["crossing_time"] for run in runs])
        speed = np.mean([run["mean_speed"] for run in runs])
        rows.append((label, stops, fmt(crossing), fmt(speed, 2)))
    report.table(("application", "total full stops",
                  "avg crossing time (s)", "avg speed (m/s)"), rows)
    report.save("ext_glosa")

    # --- Shape assertions --------------------------------------------
    assist = results["red-light assist"]
    glosa = results["GLOSA"]
    # Everyone crosses eventually.
    assert all(run["crossing_time"] is not None
               for run in assist + glosa)
    # The reactive assist stops at reds; GLOSA glides through with
    # strictly fewer full stops.
    assert sum(run["stops"] for run in assist) >= len(SEEDS)
    assert sum(run["stops"] for run in glosa) \
        < sum(run["stops"] for run in assist)
