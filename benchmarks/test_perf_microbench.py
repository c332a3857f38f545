"""Library performance microbenchmarks.

Not a paper artefact: these track the simulator's own throughput so
regressions in the hot paths (kernel, UPER codec, vision pipeline,
whole-testbed run, detlint) show up in CI benchmark history.
"""

import os

import numpy as np

from repro.analysis.engine import discover_files
from repro.analysis.suppressions import parse_suppressions
from repro.core import EmergencyBrakeScenario, ScaleTestbed
from repro.messages import ActionId, Cam, Denm, ReferencePosition, StationType
from repro.net import AccessCategory, Frame, NetworkInterface, WirelessMedium
from repro.net.dcc import DccGatekeeper
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.sim import Simulator
from repro.vision import canny, probabilistic_hough, render_line_view

POSITION = ReferencePosition(41.17867, -8.60782)


def test_perf_kernel_events(benchmark):
    """Kernel throughput: schedule + dispatch 50k chained events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 50_000:
                sim.schedule(1e-4, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run) == 50_000


def test_perf_cam_codec(benchmark):
    """CAM encode + decode round trips per second."""
    cam = Cam(station_id=7, station_type=StationType.PASSENGER_CAR,
              generation_delta_time=1234, position=POSITION,
              heading=45.0, speed=1.5)

    def round_trip():
        return Cam.decode(cam.encode())

    result = benchmark(round_trip)
    assert result.station_id == 7


def test_perf_denm_codec(benchmark):
    """DENM encode + decode round trips per second."""
    denm = Denm.collision_risk(ActionId(900, 1), 600000000000,
                               POSITION, StationType.ROAD_SIDE_UNIT,
                               event_speed=1.4, event_heading=270.0)

    def round_trip():
        return Denm.decode(denm.encode())

    result = benchmark(round_trip)
    assert result.event_type.cause_code == 97


def test_perf_vision_frame(benchmark):
    """One full line-detection frame: render + Canny + Hough."""
    rng = np.random.default_rng(1)

    def frame():
        image = render_line_view(0.03, 0.05, rng=rng)
        edges = canny(image, 0.15, 0.3)
        return probabilistic_hough(edges, threshold=8,
                                   min_line_length=15,
                                   rng=np.random.default_rng(2))

    lines = benchmark(frame)
    assert lines


def test_perf_canny_frame(benchmark):
    """Canny alone on one rendered line-follower frame (72x96)."""
    image = render_line_view(0.03, 0.05, rng=np.random.default_rng(1))
    edges = benchmark(canny, image, 0.15, 0.3)
    assert edges.shape == image.shape
    assert edges.any()


def test_perf_full_testbed_run(benchmark):
    """Wall time of one complete emergency-braking run."""

    def run():
        return ScaleTestbed(EmergencyBrakeScenario(
            seed=3, start_distance=3.5, timeout=15.0)).run()

    measurement = benchmark.pedantic(run, rounds=3, iterations=1)
    assert measurement.completed


def test_perf_suppression_scan(benchmark):
    """detlint reading suppression comments over the whole ``src``."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    corpus = []
    for path in discover_files([src]):
        with open(path, "r", encoding="utf-8") as handle:
            corpus.append((handle.read(), path))

    def scan():
        return sum(len(parse_suppressions(source, path)[0])
                   for source, path in corpus)

    assert benchmark.pedantic(scan, rounds=5, iterations=1) > 0


def test_perf_cbr_read(benchmark):
    """One DCC state update reading the first second of a loaded
    channel: two neighbours each send a 1400-byte frame every 2.5 ms."""

    def loaded():
        sim = Simulator()
        medium = WirelessMedium(sim, 1,
                                LinkBudget(path_loss=LogDistancePathLoss()))
        nic = NetworkInterface(sim, medium, "m", lambda: (0.0, 0.0),
                               rng=np.random.default_rng(1))
        gate = DccGatekeeper(sim, nic)
        for index in range(2):
            other = NetworkInterface(sim, medium, f"o{index}",
                                     lambda index=index: (3.0 + index, 0.0),
                                     rng=np.random.default_rng(2 + index))

            def spam(other=other):
                other.send(Frame(payload=b"x", size=1400, source="",
                                 category=AccessCategory.AC_VI))
                sim.schedule(0.0025, spam)

            sim.schedule(0.001 * (index + 1), spam)
        # Up to just before the gate's own first update at 1 s.
        sim.run_until(1.0 - 1e-6)
        return (gate,), {}

    def read(gate):
        gate._update_state()
        return gate

    gate = benchmark.pedantic(read, setup=loaded, rounds=10, iterations=1)
    assert gate.state > 0
