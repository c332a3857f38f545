"""Cross-cutting property-based tests: conservation laws and
invariants that must hold across randomised scenarios."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency import bootstrap_mean_ci
from repro.net import AccessCategory, Frame, NetworkInterface, WirelessMedium
from repro.net.propagation import (
    LinkBudget,
    LogDistancePathLoss,
    NakagamiFading,
    ShadowingModel,
)
from repro.sim import Simulator
from repro.vehicle import CircularTrack, RoboticVehicle, VehicleState
from repro.sim.randomness import RandomStreams


class TestMediumConservation:
    """Every transmitted frame is accounted for at every receiver."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(2, 6),                 # stations
        st.integers(1, 8),                 # frames per station
        st.floats(2.0, 400.0),             # spacing
        st.integers(0, 1000),              # seed
    )
    def test_sent_equals_outcomes(self, stations, frames, spacing, seed):
        sim = Simulator()
        budget = LinkBudget(
            path_loss=LogDistancePathLoss(exponent=2.5),
            shadowing=ShadowingModel(sigma_db=3.0),
            fading=NakagamiFading(m=1.5),
        )
        medium = WirelessMedium(sim, seed, budget)
        nics = [
            NetworkInterface(sim, medium, f"n{i}",
                             lambda i=i: (i * spacing, 0.0),
                             rng=np.random.default_rng(seed + 1 + i))
            for i in range(stations)
        ]
        for index, nic in enumerate(nics):
            for k in range(frames):
                sim.schedule(
                    0.001 * ((index * frames + k) % 7),
                    lambda nic=nic: nic.send(Frame(
                        payload=b"x", size=100, source=nic.name,
                        category=AccessCategory.AC_VI)))
        sim.run()
        stats = medium.stats()
        outcomes = (stats["delivered"] + stats["lost_noise"]
                    + stats["lost_collision"]
                    + stats["below_sensitivity"])
        assert stats["sent"] == stations * frames
        assert outcomes == stats["sent"] * (stations - 1)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 500))
    def test_no_duplicate_delivery(self, seed):
        sim = Simulator()
        medium = WirelessMedium(
            sim, seed,
            LinkBudget(path_loss=LogDistancePathLoss()))
        a = NetworkInterface(sim, medium, "a", lambda: (0.0, 0.0),
                             rng=np.random.default_rng(seed + 1))
        b = NetworkInterface(sim, medium, "b", lambda: (5.0, 0.0),
                             rng=np.random.default_rng(seed + 2))
        got = []
        b.on_receive(got.append)
        for _ in range(10):
            sim.schedule(0.0, lambda: a.send(Frame(
                payload=b"x", size=60, source="a",
                category=AccessCategory.AC_VO)))
        sim.run()
        assert len(got) == len({id(frame) for frame in got}) == 10


class TestMacOrdering:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 500), st.integers(2, 12))
    def test_same_category_fifo(self, seed, count):
        sim = Simulator()
        medium = WirelessMedium(
            sim, seed,
            LinkBudget(path_loss=LogDistancePathLoss()))
        a = NetworkInterface(sim, medium, "a", lambda: (0.0, 0.0),
                             rng=np.random.default_rng(seed + 1))
        b = NetworkInterface(sim, medium, "b", lambda: (5.0, 0.0),
                             rng=np.random.default_rng(seed + 2))
        got = []
        b.on_receive(lambda f: got.append(f.payload))
        def send_all():
            for k in range(count):
                a.send(Frame(payload=k, size=60, source="a",
                             category=AccessCategory.AC_VI))
        sim.schedule(0.0, send_all)
        sim.run()
        assert got == list(range(count))


class TestVehicleInvariants:
    def test_closed_circuit_lap(self):
        sim = Simulator()
        track = CircularTrack(radius=3.0)
        vehicle = RoboticVehicle(
            sim, RandomStreams(11), track=track,
            initial_state=VehicleState(x=3.0, y=0.0,
                                       heading=math.pi / 2))
        offsets = []

        def watch():
            state = vehicle.dynamics.state
            offsets.append(abs(track.lateral_offset(state.x, state.y)))
            sim.schedule(0.25, watch)

        sim.schedule(2.0, watch)  # skip the initial transient
        sim.run_until(20.0)
        # More than one full lap, never far off the line.
        assert vehicle.dynamics.odometer > 2.0 * math.pi * 3.0
        assert max(offsets) < 0.12

    @settings(max_examples=10, deadline=None)
    @given(st.floats(0.05, 0.25), st.floats(-0.08, 0.08))
    def test_straight_line_following_robust(self, throttle, y0):
        sim = Simulator()
        vehicle = RoboticVehicle(
            sim, RandomStreams(5),
            initial_state=VehicleState(x=0.0, y=y0, heading=0.0),
            cruise_throttle=throttle)
        sim.run_until(8.0)
        assert abs(vehicle.dynamics.state.y) < 0.06
        assert vehicle.dynamics.state.x > 0.5


class TestBootstrapCi:
    def test_ci_contains_mean_for_tight_data(self):
        low, high = bootstrap_mean_ci([10.0, 10.1, 9.9, 10.0, 10.05])
        assert low <= 10.01 <= high
        assert high - low < 0.3

    def test_ci_widens_with_variance(self):
        rng = np.random.default_rng(1)
        tight = bootstrap_mean_ci(rng.normal(50, 1, 30), seed=2)
        wide = bootstrap_mean_ci(rng.normal(50, 10, 30), seed=2)
        assert (wide[1] - wide[0]) > (tight[1] - tight[0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_mean_ci([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_mean_ci([1.0, 2.0], confidence=1.5)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(1.0, 100.0), min_size=3, max_size=40))
    def test_ci_brackets_are_ordered(self, samples):
        low, high = bootstrap_mean_ci(samples)
        assert low <= high
        assert min(samples) - 1e-9 <= low
        assert high <= max(samples) + 1e-9
