"""Tests for the EDCA MAC and the shared medium."""

import numpy as np
import pytest

from repro.net import (
    AccessCategory,
    EDCA_PARAMETERS,
    Frame,
    NetworkInterface,
    PhyConfig,
    WirelessMedium,
)
from repro.net.mac import SIFS, SLOT_TIME
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.sim import Simulator


def build_pair(distance=5.0, phy=None, seed=1):
    sim = Simulator()
    medium = WirelessMedium(sim, seed,
                            LinkBudget(path_loss=LogDistancePathLoss()))
    a = NetworkInterface(sim, medium, "a", lambda: (0.0, 0.0), phy=phy,
                         rng=np.random.default_rng(seed + 1))
    b = NetworkInterface(sim, medium, "b", lambda: (distance, 0.0), phy=phy,
                         rng=np.random.default_rng(seed + 2))
    return sim, medium, a, b


def make_frame(size=60, category=AccessCategory.AC_VO):
    return Frame(payload=b"x", size=size, source="", category=category)


class TestEdcaParameters:
    def test_priority_order(self):
        # Higher priority -> shorter AIFS.
        aifs = [EDCA_PARAMETERS[c].aifs for c in AccessCategory]
        assert aifs == sorted(aifs)

    def test_voice_parameters(self):
        vo = EDCA_PARAMETERS[AccessCategory.AC_VO]
        assert vo.aifsn == 2
        assert vo.cw_min == 3
        assert vo.aifs == pytest.approx(SIFS + 2 * SLOT_TIME)


class TestSingleLink:
    def test_idle_channel_delivery(self):
        sim, medium, a, b = build_pair()
        got = []
        b.on_receive(lambda f: got.append((sim.now, f)))
        sim.schedule(0.001, lambda: a.send(make_frame()))
        sim.run()
        assert len(got) == 1
        # AIFS (58 us) + airtime: well under a millisecond.
        assert 0.001 < got[0][0] < 0.0015

    def test_latency_is_aifs_plus_airtime(self):
        sim, medium, a, b = build_pair()
        got = []
        b.on_receive(lambda f: got.append(sim.now))
        sim.schedule(0.001, lambda: a.send(make_frame(size=60)))
        sim.run()
        expected = (EDCA_PARAMETERS[AccessCategory.AC_VO].aifs
                    + a.phy.airtime(60 + 38))
        assert got[0] - 0.001 == pytest.approx(expected, abs=1e-9)

    def test_sender_does_not_receive_own_frame(self):
        sim, medium, a, b = build_pair()
        got_a = []
        a.on_receive(lambda f: got_a.append(f))
        sim.schedule(0.0, lambda: a.send(make_frame()))
        sim.run()
        assert got_a == []

    def test_out_of_range_not_delivered(self):
        phy = PhyConfig(tx_power_dbm=-30.0)
        sim, medium, a, b = build_pair(distance=200.0, phy=phy)
        got = []
        b.on_receive(lambda f: got.append(f))
        sim.schedule(0.0, lambda: a.send(make_frame()))
        sim.run()
        assert got == []
        assert medium.frames_below_sensitivity == 1


class TestQueueing:
    def test_back_to_back_frames_serialise(self):
        sim, medium, a, b = build_pair()
        times = []
        b.on_receive(lambda f: times.append(sim.now))
        def send_three():
            for _ in range(3):
                a.send(make_frame())
        sim.schedule(0.0, send_three)
        sim.run()
        assert len(times) == 3
        assert times[0] < times[1] < times[2]

    def test_queue_limit_tail_drop(self):
        sim, medium, a, b = build_pair()
        a.mac.queue_limit = 4
        results = [a.send(make_frame()) for _ in range(6)]
        assert results == [True] * 4 + [False] * 2
        assert a.mac.frames_dropped == 2

    def test_higher_priority_queue_served_first(self):
        sim, medium, a, b = build_pair()
        order = []
        b.on_receive(lambda f: order.append(f.category))
        def send():
            a.send(make_frame(category=AccessCategory.AC_BK))
            a.send(make_frame(category=AccessCategory.AC_VO))
            a.send(make_frame(category=AccessCategory.AC_BE))
        sim.schedule(0.0, send)
        sim.run()
        # The BK frame is already contending when VO arrives; after the
        # first transmission the highest-priority queue is served next.
        assert order[1] == AccessCategory.AC_VO

    def test_access_delay_accounting(self):
        sim, medium, a, b = build_pair()
        sim.schedule(0.0, lambda: [a.send(make_frame()) for _ in range(5)])
        sim.run()
        assert a.mac.frames_transmitted == 5
        assert a.mac.mean_access_delay > 0


class TestContention:
    def test_two_stations_share_channel(self):
        sim, medium, a, b = build_pair()
        got = {"a": 0, "b": 0}
        a.on_receive(lambda f: got.__setitem__(
            "a", got["a"] + 1))
        b.on_receive(lambda f: got.__setitem__(
            "b", got["b"] + 1))
        def burst():
            for _ in range(20):
                a.send(make_frame())
                b.send(make_frame())
        sim.schedule(0.0, burst)
        sim.run()
        # All frames eventually delivered to the peer.
        assert got["a"] == 20  # from b
        assert got["b"] == 20  # from a

    def test_collisions_under_synchronised_send(self):
        # Many stations transmitting at the same instant -> backoff
        # mostly resolves it, but the channel sees real collisions
        # under pressure; all sent frames are accounted for.
        sim = Simulator()
        medium = WirelessMedium(sim, 3,
                                LinkBudget(path_loss=LogDistancePathLoss()))
        nics = [NetworkInterface(sim, medium, f"n{i}",
                                 lambda i=i: (float(i), 0.0),
                                 rng=np.random.default_rng(10 + i))
                for i in range(6)]
        def blast():
            for nic in nics:
                for _ in range(5):
                    nic.send(make_frame(category=AccessCategory.AC_VO))
        sim.schedule(0.0, blast)
        sim.run()
        stats = medium.stats()
        assert stats["sent"] == 30
        # Every sent frame is heard by the other 5 NICs one way or
        # another (delivered or lost).
        total = (stats["delivered"] + stats["lost_noise"]
                 + stats["lost_collision"] + stats["below_sensitivity"])
        assert total == 30 * 5

    def test_carrier_sense_defers(self):
        # While a long frame is on the air, a second station's frame
        # waits rather than colliding.
        sim, medium, a, b = build_pair()
        sim_order = []
        b.on_receive(lambda f: sim_order.append(("rx_b", sim.now)))
        a.on_receive(lambda f: sim_order.append(("rx_a", sim.now)))
        sim.schedule(0.0, lambda: a.send(make_frame(size=1400)))
        # b starts mid-transmission of a's frame.
        sim.schedule(0.0005, lambda: b.send(make_frame(size=60)))
        sim.run()
        assert [tag for tag, _t in sim_order] == ["rx_b", "rx_a"]
        assert medium.frames_lost_collision == 0


class TestHalfDuplex:
    def test_same_instant_sends_are_serialised_by_carrier_sense(self):
        # With working carrier sense, the station that wins the AIFS
        # race transmits and the other defers -- both frames arrive.
        sim, medium, a, b = build_pair()
        got_a, got_b = [], []
        a.on_receive(lambda f: got_a.append(f))
        b.on_receive(lambda f: got_b.append(f))
        sim.schedule(0.0, lambda: a.send(make_frame()))
        sim.schedule(0.0, lambda: b.send(make_frame()))
        sim.run()
        assert len(got_a) == 1 and len(got_b) == 1
        assert medium.frames_lost_collision == 0

    def test_deaf_station_transmits_over_reception(self):
        # b's carrier sense is disabled (threshold above any rx
        # power): it transmits while a's frame is on the air, so it
        # cannot decode that frame (half-duplex loss).
        sim = Simulator()
        medium = WirelessMedium(
            sim, 1,
            LinkBudget(path_loss=LogDistancePathLoss()))
        a = NetworkInterface(sim, medium, "a", lambda: (0.0, 0.0),
                             rng=np.random.default_rng(2))
        deaf_phy = PhyConfig(cs_threshold_dbm=40.0)
        b = NetworkInterface(sim, medium, "b", lambda: (5.0, 0.0),
                             phy=deaf_phy, rng=np.random.default_rng(3))
        got_b = []
        b.on_receive(lambda f: got_b.append(f))
        sim.schedule(0.0, lambda: a.send(make_frame(size=1400)))
        # b starts while a's long frame is still in the air.
        sim.schedule(0.0005, lambda: b.send(make_frame(size=60)))
        sim.run()
        assert got_b == []
        assert b.frames_lost >= 1

    def test_suppressed_transmission_still_deafens(self):
        # b's radio is down (tx_blocked): its frame never reaches the
        # air, but b spends the airtime "transmitting" and so still
        # cannot decode a's overlapping frame -- a half-duplex loss.
        from repro.net.medium import ChannelImpairment

        class RadioDown(ChannelImpairment):
            def tx_blocked(self, sender_name, now):
                return sender_name == "b"

        sim = Simulator()
        medium = WirelessMedium(
            sim, 1,
            LinkBudget(path_loss=LogDistancePathLoss()))
        medium.impairment = RadioDown()
        a = NetworkInterface(sim, medium, "a", lambda: (0.0, 0.0),
                             rng=np.random.default_rng(2))
        b = NetworkInterface(sim, medium, "b", lambda: (5.0, 0.0),
                             phy=PhyConfig(cs_threshold_dbm=40.0),
                             rng=np.random.default_rng(3))
        losses = []
        b.on_loss(lambda f, reason: losses.append(reason))
        got_a = []
        a.on_receive(lambda f: got_a.append(f))
        sim.schedule(0.0, lambda: a.send(make_frame(size=1400)))
        sim.schedule(0.0005, lambda: b.send(make_frame(size=60)))
        sim.run()
        assert medium.frames_suppressed == 1
        assert medium.frames_sent == 1
        assert losses == ["half-duplex"]
        assert b.frames_received == 0
        assert got_a == []


class TestReattach:
    def test_reattach_mid_frame_takes_no_part_in_that_frame(self):
        # b is detached and re-attached while a's first frame is on
        # the air.  The new attachment did not span that frame: b must
        # not decode it, and its completion must not drive b's
        # carrier-sense count below zero, which would leave b deaf to
        # a's next frame.
        sim, medium, a, b = build_pair()
        got = []
        b.on_receive(lambda f: got.append(f.payload))
        busy_during_second = []
        sim.schedule(0.001, lambda: a.send(make_frame(size=400)))
        sim.schedule(0.0012, lambda: (medium.detach(b), medium.attach(b)))
        sim.schedule(0.005, lambda: a.send(Frame(
            payload=b"second", size=400, source="",
            category=AccessCategory.AC_VO)))
        # AIFS (58 us) + 632 us of airtime: the second frame is on the
        # air over [5.058, 5.690] ms.
        sim.schedule(0.0053, lambda: busy_during_second.append(
            (medium.active_count, medium.is_busy_for(b))))
        sim.run()
        assert busy_during_second == [(1, True)]
        assert got == [b"second"]
        assert b.frames_received == 1
        assert not medium.is_busy_for(b)

    def test_detached_station_is_never_busy(self):
        sim, medium, a, b = build_pair()
        medium.detach(b)
        sim.schedule(0.001, lambda: a.send(make_frame(size=400)))
        seen = []
        sim.schedule(0.0013, lambda: seen.append(
            (medium.active_count, medium.is_busy_for(a),
             medium.is_busy_for(b))))
        sim.run()
        assert seen == [(1, True, False)]
        assert b.frames_received == 0
