"""Contention battery: channel-sharing properties under many senders.

Property tests for the invariants fleet-scale congestion relies on:

* a frame is delivered to a given receiver at most once, and the
  delivered subset of one sender's same-priority frames arrives in
  send order (the MAC may lose frames, never duplicate or reorder);
* the medium's incremental busy bookkeeping agrees with a from-scratch
  scan of the active transmissions at every instant;
* :class:`~repro.net.medium.OrderFreeReception` draws are pure
  functions of (sender, sequence, receiver) in [0, 1);
* the reactive DCC state machine moves at most one state per update
  and always gates with an interval from the ETSI t_off table
  (TS 102 687 ramp bounds), whatever CBR trajectory drives it;
* a DCC gate never lets a fresh frame overtake queued traffic (the
  starvation regression: arrivals on the t_off grid must not beat the
  armed gate timer forever).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    AccessCategory,
    Frame,
    NetworkInterface,
    WirelessMedium,
)
from repro.net.dcc import DccGatekeeper, DccParameters, DccState
from repro.net.medium import OrderFreeReception
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.sim import Simulator


def build_channel(n_senders, seed=1, cs_latency=0.0):
    sim = Simulator()
    medium = WirelessMedium(
        sim, seed,
        LinkBudget(path_loss=LogDistancePathLoss()),
        cs_latency=cs_latency)
    receiver = NetworkInterface(sim, medium, "rx", lambda: (0.0, 0.0),
                                rng=np.random.default_rng(seed + 1))
    senders = [
        NetworkInterface(sim, medium, f"s{i}",
                         lambda i=i: (2.0 + 0.5 * i, 0.0),
                         rng=np.random.default_rng(seed + 2 + i))
        for i in range(n_senders)
    ]
    return sim, medium, receiver, senders


class TestDeliveryProperties:
    @given(
        n_senders=st.integers(min_value=2, max_value=6),
        frames_each=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_no_double_delivery_no_reordering(self, n_senders,
                                              frames_each, seed):
        sim, medium, receiver, senders = build_channel(n_senders, seed)
        received = []
        receiver.on_receive(
            lambda frame: received.append(frame.payload))
        submitted = {sender.name: [] for sender in senders}

        def submit(sender, f_index):
            submitted[sender.name].append(f_index)
            sender.send(Frame(payload=(sender.name, f_index), size=60,
                              source=sender.name,
                              category=AccessCategory.AC_VI))

        offsets = np.random.default_rng(seed).uniform(
            0.0, 5e-3, size=n_senders * frames_each)
        for s_index, sender in enumerate(senders):
            for f_index in range(frames_each):
                delay = (f_index * 2e-3
                         + float(offsets[s_index * frames_each + f_index]))
                sim.schedule(delay, lambda s=sender, i=f_index:
                             submit(s, i))
        sim.run_until(2.0)
        # At most once each.
        assert len(received) == len(set(received))
        # The delivered subset of one sender's frames preserves that
        # sender's submission order (losses allowed, reordering not).
        for sender in senders:
            got = [i for name, i in received if name == sender.name]
            reference = [i for i in submitted[sender.name] if i in got]
            assert got == reference, (
                f"{sender.name} frames reordered: {got} vs {reference}")

    @given(seed=st.integers(min_value=1, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_same_instant_senders_with_cs_latency(self, seed):
        # All MAC timers expire together; with a positive cs_latency
        # every sender sees idle and transmits.  Nothing may be
        # delivered twice, whatever the kernel pops first.
        sim, medium, receiver, senders = build_channel(
            4, seed, cs_latency=4e-6)
        received = []
        receiver.on_receive(
            lambda frame: received.append(frame.payload))
        for sender in senders:
            sim.schedule(1e-3, lambda s=sender: s.send(
                Frame(payload=(s.name, 0), size=60, source=s.name,
                      category=AccessCategory.AC_VI)))
        sim.run_until(1.0)
        assert len(received) == len(set(received))
        assert medium.frames_sent == 4


class TestBusyBookkeeping:
    def _reference_busy(self, medium, nic):
        """Recompute busy-for-nic by scanning active transmissions."""
        for tx in medium._active:
            if tx.station.nic is nic:
                return True
            if tx.sensed and nic.name in tx.audible:
                return True
        return False

    @given(
        seed=st.integers(min_value=1, max_value=40),
        n_senders=st.integers(min_value=2, max_value=5),
        cs_latency=st.sampled_from([0.0, 4e-6]),
    )
    @settings(max_examples=20, deadline=None)
    def test_incremental_counts_match_reference_scan(
            self, seed, n_senders, cs_latency):
        sim, medium, receiver, senders = build_channel(
            n_senders, seed, cs_latency=cs_latency)
        rng = np.random.default_rng(seed + 99)
        for sender in senders:
            for delay in rng.uniform(0.0, 3e-3, size=3):
                sim.schedule(float(delay), lambda s=sender: s.send(
                    Frame(payload=b"x", size=120, source=s.name,
                          category=AccessCategory.AC_BE)))
        mismatches = []

        def audit():
            for nic in (receiver, *senders):
                fast = medium.is_busy_for(nic)
                slow = self._reference_busy(medium, nic)
                if fast != slow:
                    mismatches.append((sim.now, nic.name, fast, slow))
            sim.schedule(1.7e-4, audit)

        sim.schedule(1e-5, audit)
        sim.run_until(0.02)
        assert not mismatches

    def test_counts_drain_to_idle(self):
        sim, medium, receiver, senders = build_channel(3)
        for sender in senders:
            sender.send(Frame(payload=b"x", size=200,
                              source=sender.name,
                              category=AccessCategory.AC_BE))
        sim.run_until(1.0)
        assert medium.active_count == 0
        for nic in (receiver, *senders):
            assert not medium.is_busy_for(nic)


class TestOrderFreeReception:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        sender=st.text(min_size=1, max_size=12),
        sequence=st.integers(min_value=0, max_value=10**6),
        receiver=st.text(min_size=1, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_draw_is_pure_and_uniform_range(self, seed, sender,
                                            sequence, receiver):
        draw = OrderFreeReception(seed)
        value = draw.uniform(sender, sequence, receiver)
        assert 0.0 <= value < 1.0
        assert draw.uniform(sender, sequence, receiver) == value
        assert OrderFreeReception(seed).uniform(
            sender, sequence, receiver) == value

    def test_distinct_keys_decorrelate(self):
        draw = OrderFreeReception(1)
        values = {
            draw.uniform("a", 0, "b"),
            draw.uniform("a", 1, "b"),
            draw.uniform("a", 0, "c"),
            draw.uniform("b", 0, "b"),
            OrderFreeReception(2).uniform("a", 0, "b"),
        }
        assert len(values) == 5


class _ScriptedMonitor:
    """Stands in for ChannelBusyMonitor with a scripted CBR tape."""

    def __init__(self, tape):
        self.tape = list(tape)
        self.cursor = -1

    def advance(self):
        self.cursor = min(self.cursor + 1, len(self.tape) - 1)

    def cbr(self, window):
        if self.cursor < 0:
            return 0.0
        return self.tape[self.cursor]


class TestDccRampBounds:
    @given(tape=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_single_step_transitions_and_etsi_t_off(self, tape):
        sim = Simulator()
        medium = WirelessMedium(sim, 1, LinkBudget())
        nic = NetworkInterface(sim, medium, "n", lambda: (0.0, 0.0),
                               rng=np.random.default_rng(2))
        gate = DccGatekeeper(sim, nic)
        monitor = _ScriptedMonitor(tape)
        gate.monitor = monitor
        states = [gate.state]
        for _ in tape:
            monitor.advance()
            gate._update_state()
            states.append(gate.state)
            assert gate.t_off == gate.parameters.t_off[int(gate.state)]
            assert gate.t_off in DccParameters().t_off
        for before, after in zip(states, states[1:]):
            assert abs(int(after) - int(before)) <= 1, (
                f"multi-state jump {before} -> {after}")
            assert DccState.RELAXED <= after <= DccState.RESTRICTIVE
        assert gate.state_transitions == sum(
            1 for a, b in zip(states, states[1:]) if a != b)

    def test_rising_cbr_walks_the_full_ramp(self):
        sim = Simulator()
        medium = WirelessMedium(sim, 1, LinkBudget())
        nic = NetworkInterface(sim, medium, "n", lambda: (0.0, 0.0),
                               rng=np.random.default_rng(2))
        gate = DccGatekeeper(sim, nic)
        monitor = _ScriptedMonitor([0.5] * 10)
        gate.monitor = monitor
        walked = [gate.state]
        for _ in range(6):
            monitor.advance()
            gate._update_state()
            walked.append(gate.state)
        assert walked[:5] == [DccState.RELAXED, DccState.ACTIVE_1,
                              DccState.ACTIVE_2, DccState.ACTIVE_3,
                              DccState.RESTRICTIVE]
        assert walked[-1] == DccState.RESTRICTIVE  # saturates


class TestGateNoOvertake:
    def test_grid_aligned_arrivals_cannot_starve_queue(self):
        # Regression: CAM-like arrivals exactly every t_off used to
        # slip through the momentarily-open gate ahead of the armed
        # timer, starving queued AC_VO traffic indefinitely.
        sim = Simulator()
        medium = WirelessMedium(sim, 1, LinkBudget())
        nic = NetworkInterface(sim, medium, "n", lambda: (0.0, 0.0),
                               rng=np.random.default_rng(2))
        gate = DccGatekeeper(sim, nic)
        order = []
        nic.send = lambda frame: order.append(frame.category)
        t_off = gate.parameters.t_off[0]

        def cam_tick():
            gate.send(Frame(payload=b"cam", size=60, source="n",
                            category=AccessCategory.AC_VI))
            sim.schedule(t_off, cam_tick)

        cam_tick()
        sim.schedule(t_off / 2, lambda: gate.send(
            Frame(payload=b"denm", size=90, source="n",
                  category=AccessCategory.AC_VO)))
        sim.run_until(t_off * 10)
        assert AccessCategory.AC_VO in order, (
            "queued DENM starved behind grid-aligned CAMs")
        # It went out at the first gate opening after being queued.
        assert order.index(AccessCategory.AC_VO) == 1

    def test_open_gate_empty_queue_still_passes_immediately(self):
        sim = Simulator()
        medium = WirelessMedium(sim, 1, LinkBudget())
        nic = NetworkInterface(sim, medium, "n", lambda: (0.0, 0.0),
                               rng=np.random.default_rng(2))
        gate = DccGatekeeper(sim, nic)
        assert gate.send(Frame(payload=b"x", size=60, source="n",
                               category=AccessCategory.AC_VI))
        assert gate.frames_passed == 1
        assert gate.queued == 0
