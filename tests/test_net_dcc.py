"""Tests for Decentralized Congestion Control (reactive DCC)."""

import numpy as np

from repro.net import (
    AccessCategory,
    Frame,
    NetworkInterface,
    WirelessMedium,
)
from repro.net.dcc import (
    ChannelBusyMonitor,
    DccGatekeeper,
    DccParameters,
    DccState,
)
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.sim import Simulator


def build_nic(seed=1, extra_nics=0):
    sim = Simulator()
    medium = WirelessMedium(sim, seed,
                            LinkBudget(path_loss=LogDistancePathLoss()))
    nic = NetworkInterface(sim, medium, "main", lambda: (0.0, 0.0),
                           rng=np.random.default_rng(seed + 1))
    others = [
        NetworkInterface(sim, medium, f"o{i}",
                         lambda i=i: (3.0 + i, 0.0),
                         rng=np.random.default_rng(seed + 2 + i))
        for i in range(extra_nics)
    ]
    return sim, medium, nic, others


def make_frame(category=AccessCategory.AC_VI, size=60):
    return Frame(payload=b"x", size=size, source="", category=category)


class TestParameters:
    def test_state_for_thresholds(self):
        params = DccParameters()
        assert params.state_for(0.0) == DccState.RELAXED
        assert params.state_for(0.18) == DccState.RELAXED
        assert params.state_for(0.20) == DccState.ACTIVE_1
        assert params.state_for(0.30) == DccState.ACTIVE_2
        assert params.state_for(0.40) == DccState.ACTIVE_3
        assert params.state_for(0.60) == DccState.RESTRICTIVE

    def test_t_off_grows_with_state(self):
        params = DccParameters()
        assert list(params.t_off) == sorted(params.t_off)


class TestChannelBusyMonitor:
    def test_idle_channel_cbr_zero(self):
        sim, medium, nic, _ = build_nic()
        monitor = ChannelBusyMonitor(sim, nic)
        sim.run_until(2.0)
        assert monitor.cbr(1.0) == 0.0

    def test_busy_channel_cbr_positive(self):
        sim, medium, nic, (other,) = build_nic(extra_nics=1)
        monitor = ChannelBusyMonitor(sim, nic)

        def spam():
            other.send(make_frame(size=1400))
            sim.schedule(0.002, spam)

        sim.schedule(0.0, spam)
        sim.run_until(2.0)
        assert monitor.cbr(1.0) > 0.5

    def test_cbr_windows(self):
        sim, medium, nic, (other,) = build_nic(extra_nics=1)
        monitor = ChannelBusyMonitor(sim, nic)
        sim.run_until(4.0)   # 4 s of silence

        def spam():
            other.send(make_frame(size=1400))
            sim.schedule(0.002, spam)

        sim.schedule(0.0, spam)
        sim.run_until(5.0)   # 1 s of saturation
        # Recent window is saturated; long window is diluted.
        assert monitor.cbr(1.0) > monitor.cbr(5.0)


class TestGatekeeper:
    def test_relaxed_passes_immediately(self):
        sim, medium, nic, _ = build_nic()
        gate = DccGatekeeper(sim, nic)
        assert gate.send(make_frame())
        assert gate.frames_passed == 1
        assert gate.queued == 0
        sim.run_until(0.1)

    def test_gate_enforces_t_off(self):
        sim, medium, nic, _ = build_nic()
        gate = DccGatekeeper(sim, nic)
        # Track when our frames leave via the mac counter timeline.
        sends = []
        original = nic.send

        def tracked(frame):
            sends.append(sim.now)
            return original(frame)

        nic.send = tracked
        for _ in range(3):
            gate.send(make_frame())
        sim.run_until(1.0)
        assert len(sends) == 3
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        assert all(gap >= gate.parameters.t_off[0] - 1e-9
                   for gap in gaps)

    def test_queue_priority(self):
        sim, medium, nic, _ = build_nic()
        gate = DccGatekeeper(sim, nic)
        order = []
        original = nic.send

        def tracked(frame):
            order.append(frame.category)
            return original(frame)

        nic.send = tracked
        gate.send(make_frame(AccessCategory.AC_VI))   # passes now
        gate.send(make_frame(AccessCategory.AC_BK))   # queued
        gate.send(make_frame(AccessCategory.AC_VO))   # queued, priority
        sim.run_until(1.0)
        assert order[0] == AccessCategory.AC_VI
        assert order[1] == AccessCategory.AC_VO
        assert order[2] == AccessCategory.AC_BK

    def test_queue_limit_drops(self):
        sim, medium, nic, _ = build_nic()
        gate = DccGatekeeper(sim, nic,
                             DccParameters(queue_limit=2))
        results = [gate.send(make_frame()) for _ in range(5)]
        # 1 passes + 2 queued + 2 dropped.
        assert results == [True, True, True, False, False]
        assert gate.frames_dropped == 2

    def test_state_escalates_under_load(self):
        sim, medium, nic, others = build_nic(extra_nics=2)
        gate = DccGatekeeper(sim, nic)

        def spam(other):
            other.send(make_frame(size=1400))
            sim.schedule(0.0025, lambda: spam(other))

        for other in others:
            sim.schedule(0.001, lambda o=other: spam(o))
        sim.run_until(8.0)
        assert gate.state > DccState.RELAXED
        assert gate.state_changes

    def test_state_relaxes_after_load_stops(self):
        sim, medium, nic, others = build_nic(extra_nics=2)
        gate = DccGatekeeper(sim, nic)
        stop_at = [False]

        def spam(other):
            if stop_at[0]:
                return
            other.send(make_frame(size=1400))
            sim.schedule(0.0025, lambda: spam(other))

        for other in others:
            sim.schedule(0.001, lambda o=other: spam(o))
        sim.run_until(6.0)
        loaded_state = gate.state
        stop_at[0] = True
        sim.run_until(20.0)
        assert loaded_state > DccState.RELAXED
        assert gate.state < loaded_state

    def test_gated_frames_eventually_sent(self):
        sim, medium, nic, _ = build_nic()
        gate = DccGatekeeper(sim, nic)
        for _ in range(6):
            gate.send(make_frame())
        sim.run_until(2.0)
        assert gate.frames_passed == 6
        assert gate.queued == 0
