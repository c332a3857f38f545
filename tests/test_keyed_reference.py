"""Differential tests: the keyed (fleet) medium's numpy link pass and
splitmix64 draws against the scalar oracle in :mod:`tests.reference.keyed`.

The oracle computes each reception with :mod:`math` and the same
splitmix64 on Python ints.  Tolerances:

* draws match bit for bit;
* received power and PER match within 4 ulp: numpy's ``hypot``,
  ``log10``, ``log1p`` and ``expm1`` may differ from :mod:`math`'s in
  the last bit (the BER path, ``sqrt`` and ``erfc``, is bit-identical);
* a delivery decision ``u < PER`` matches except where
  ``|u - PER| < 1e-12``; those cases are counted, and must be rare;
* whole random channels, keyed medium against the scalar reference
  medium, agree on every counter, loss, carrier callback and
  generator state, and on delivered powers and SINRs to a relative
  1e-9 -- unless a decision came within 1e-12 of its threshold.

A seeded statistical test shows the new draw adds no bias: over 20
seeds, the delivery ratio per distance bin stays inside a 99 %
binomial interval of the SHA-256 draw the medium used before.
"""

import math
import struct
from typing import Any, Dict, List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import AccessCategory, Frame, NetworkInterface, PhyConfig
from repro.net.medium import OrderFreeReception, WirelessMedium
from repro.net.phy import McsTable, packet_error_rates
from repro.net.propagation import (
    FreeSpacePathLoss,
    LinkBudget,
    LogDistancePathLoss,
    NakagamiFading,
    ShadowingModel,
    TwoRayGroundPathLoss,
)
from repro.sim import Simulator
from tests.reference import keyed as ref
from tests.reference.link import (
    MCS_TABLE,
    ReferenceLinkBudget,
    ReferenceLogDistance,
    ReferenceMcs,
)
from tests.reference.medium import ReferenceMedium, ReferenceReception
from tests.test_link_reference import bits
from tests.test_medium_reference import channels, run_channel, seeded_channel

#: A decision closer than this to its threshold may flip on an ulp.
NEAR = 1e-12


def ulps(a: float, b: float) -> int:
    """How many doubles lie between *a* and *b* (0 when equal)."""
    def ordered(x: float) -> int:
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i + 2 ** 63)
    return abs(ordered(a) - ordered(b))


NAMES = st.text(min_size=1, max_size=12)


class TestDraws:
    @given(seed=st.integers(-2 ** 70, 2 ** 70), sender=NAMES,
           sequence=st.integers(0, 10 ** 9),
           receivers=st.lists(NAMES, min_size=1, max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_vector_and_scalar_draws_match_bitwise(self, seed, sender,
                                                   sequence, receivers):
        draw = OrderFreeReception(seed)
        oracle = ref.ReferenceKeyedReception(seed)
        keys = np.array([draw.station_key(r) for r in receivers],
                        dtype=np.uint64)
        frame_key = draw.frame_key(draw.station_key(sender), sequence)
        values = OrderFreeReception.uniforms(frame_key, keys).tolist()
        for receiver, value in zip(receivers, values):
            expected = oracle.uniform(sender, sequence, receiver)
            assert bits(value) == bits(expected)
            assert bits(draw.uniform(sender, sequence, receiver)) == \
                bits(expected)
            assert 0.0 <= value < 1.0

    def test_station_key_is_the_name_hash(self):
        for name in ("obu-0", "rsu-1", "ü", ""):
            assert OrderFreeReception.station_key(name) == \
                ref.station_key(name)

    def test_draws_are_uniform(self):
        # 64k draws from one sender's consecutive frames over 64
        # receivers: each decile holds 10 % within 5 sigma.
        draw = OrderFreeReception(7)
        keys = np.array([draw.station_key(f"obu-{i}") for i in range(64)],
                        dtype=np.uint64)
        sender = draw.station_key("obu-0")
        values = np.concatenate([
            OrderFreeReception.uniforms(draw.frame_key(sender, seq), keys)
            for seq in range(1000)])
        counts = np.histogram(values, bins=10, range=(0.0, 1.0))[0]
        sigma = math.sqrt(len(values) * 0.1 * 0.9)
        assert np.all(np.abs(counts - len(values) * 0.1) < 5 * sigma)


POINTS = st.tuples(st.floats(-2000.0, 2000.0), st.floats(-2000.0, 2000.0))


class TestLinkMath:
    @given(tx_pos=POINTS, rx=st.lists(POINTS, min_size=1, max_size=40),
           tx_power=st.sampled_from([0.0, 18.0, 23.0]),
           exponent=st.floats(1.5, 5.0),
           reference_distance=st.one_of(st.just(1.0), st.floats(0.1, 10.0)),
           gains=st.tuples(st.floats(-3.0, 10.0), st.floats(-3.0, 10.0)))
    @settings(max_examples=300, deadline=None)
    def test_received_power_within_4_ulp(self, tx_pos, rx, tx_power,
                                         exponent, reference_distance,
                                         gains):
        fast = LinkBudget(
            path_loss=LogDistancePathLoss(exponent, reference_distance),
            tx_antenna_gain_dbi=gains[0], rx_antenna_gain_dbi=gains[1])
        old = ReferenceLinkBudget(
            path_loss=ReferenceLogDistance(exponent, reference_distance),
            tx_antenna_gain_dbi=gains[0], rx_antenna_gain_dbi=gains[1])
        xs = np.array([p[0] for p in rx])
        ys = np.array([p[1] for p in rx])
        powers = fast.received_powers_dbm(tx_power, tx_pos, xs, ys).tolist()
        for pos, power in zip(rx, powers):
            expected = old.received_power_dbm(None, tx_power, ("a", "b"),
                                              tx_pos, pos)
            assert ulps(power, expected) <= 4, (power, expected)

    @given(distances=st.lists(st.floats(0.0, 5000.0), min_size=1,
                              max_size=20),
           model=st.sampled_from([FreeSpacePathLoss(),
                                  TwoRayGroundPathLoss()]))
    @settings(max_examples=100, deadline=None)
    def test_scalar_models_fall_back_bitwise(self, distances, model):
        losses = model.path_loss_db_array(np.array(distances)).tolist()
        assert [bits(x) for x in losses] == [
            bits(model.path_loss_db(d)) for d in distances]

    @given(rates=st.lists(st.sampled_from(sorted(McsTable.ENTRIES)),
                          min_size=1, max_size=30),
           data=st.data(), size=st.integers(1, 2400))
    @settings(max_examples=300, deadline=None)
    def test_per_within_4_ulp(self, rates, data, size):
        sinrs = data.draw(st.lists(
            st.one_of(st.floats(0.0, 1e7),
                      st.floats(-4.0, 7.0).map(lambda e: 10.0 ** e),
                      st.sampled_from([0.0, 5e-324])),
            min_size=len(rates), max_size=len(rates)))
        constants = np.array([McsTable.ENTRIES[r].ber_constants
                              for r in rates]).T
        pers = packet_error_rates(np.array(sinrs), *constants, size)
        for rate, sinr, per in zip(rates, sinrs, pers.tolist()):
            expected = MCS_TABLE[rate].packet_error_rate(sinr, size)
            assert ulps(per, expected) <= 4, (rate, sinr, per, expected)


def frame_decisions(rng: np.random.Generator) -> Tuple[int, int, int]:
    """One random frame's decisions, vector pass against the oracle.

    Returns (decisions, near-threshold cases, disagreements).
    """
    n = int(rng.integers(2, 40))
    exponent = float(rng.choice([2.2, 2.8, 3.5]))
    tx_power = float(rng.choice([0.0, 18.0]))
    rate = float(rng.choice(sorted(McsTable.ENTRIES)))
    size = int(rng.integers(50, 1500))
    # Receivers spread over the range where the frame is lossy.
    positions = rng.uniform(-400.0, 400.0, size=(n, 2))
    interference = rng.choice([0.0, 1e-11, 1e-9], size=n)
    seed, seq = int(rng.integers(0, 2 ** 32)), int(rng.integers(0, 10 ** 6))
    names = [f"s{i}" for i in range(n)]
    noise_mw = 10.0 ** (PhyConfig().noise_power_dbm / 10.0)
    mcs = McsTable.ENTRIES[rate]
    fast = LinkBudget(path_loss=LogDistancePathLoss(exponent))
    dbm = fast.received_powers_dbm(tx_power, (0.0, 0.0), positions[:, 0],
                                   positions[:, 1])
    sinr = 10.0 ** (dbm / 10.0) / (noise_mw + interference)
    pers = packet_error_rates(sinr, *np.array([mcs.ber_constants] * n).T,
                              size)
    draw = OrderFreeReception(seed)
    keys = np.array([draw.station_key(name) for name in names],
                    dtype=np.uint64)
    lost = (OrderFreeReception.uniforms(
        draw.frame_key(draw.station_key("tx"), seq), keys) < pers).tolist()
    oracle = ref.ReferenceKeyedReception(seed)
    budget = ReferenceLinkBudget(path_loss=ReferenceLogDistance(exponent))
    near = disagree = 0
    for i, name in enumerate(names):
        _power, per = ref.reception(
            budget, tx_power, (0.0, 0.0), tuple(positions[i]), noise_mw,
            float(interference[i]), rate, size)
        u = oracle.uniform("tx", seq, name)
        if abs(u - per) < NEAR:
            near += 1
        elif (u < per) != lost[i]:
            disagree += 1
    return n, near, disagree


class TestDecisions:
    def test_decisions_match_outside_the_near_band(self):
        rng = np.random.default_rng(2024)
        totals = [0, 0, 0]
        for _ in range(1500):
            for k, value in enumerate(frame_decisions(rng)):
                totals[k] += value
        decisions, near, disagree = totals
        assert decisions > 25_000
        assert disagree == 0
        # |u - PER| < 1e-12 has probability ~2e-12 per decision.
        assert near <= decisions * 1e-6


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def assert_runs_match(fast: Dict[str, Any], old: Dict[str, Any]) -> None:
    """Everything equal, delivered power and SINR within 1e-9."""
    for key in ("stats", "now", "lost", "carrier", "rng", "mac_rngs"):
        assert fast[key] == old[key], key
    assert fast["delivered"].keys() == old["delivered"].keys()
    for name, got in fast["delivered"].items():
        want = old["delivered"][name]
        assert len(got) == len(want), name
        for (payload, power, sinr_db, start, end), (
                payload2, power2, sinr_db2, start2, end2) in zip(got, want):
            assert (payload, start, end) == (payload2, start2, end2)
            assert ulps(power, power2) <= 4, (power, power2)
            assert _close(sinr_db, sinr_db2), (sinr_db, sinr_db2)


def run_reference_recording(spec: Dict[str, Any]) -> Tuple[Dict[str, Any],
                                                           int]:
    """The reference keyed run and its count of near-threshold cases:
    a draw within 1e-12 of its PER, or a power within 1e-9 dB of a
    sensitivity or carrier-sense threshold."""
    pers: List[float] = []
    draws: List[float] = []
    powers: List[float] = []
    original_per = ReferenceMcs.packet_error_rate
    original_uniform = ref.ReferenceKeyedReception.uniform
    original_power = ReferenceLinkBudget.received_power_dbm

    def per(mcs, sinr_linear, size_bytes):
        pers.append(original_per(mcs, sinr_linear, size_bytes))
        return pers[-1]

    def uniform(self, sender, sequence, receiver):
        draws.append(original_uniform(self, sender, sequence, receiver))
        return draws[-1]

    def power(self, *args, **kwargs):
        powers.append(original_power(self, *args, **kwargs))
        return powers[-1]

    with mock.patch.object(ReferenceMcs, "packet_error_rate", per), \
            mock.patch.object(ref.ReferenceKeyedReception, "uniform",
                              uniform), \
            mock.patch.object(ReferenceLinkBudget, "received_power_dbm",
                              power):
        out = run_channel(spec, reference=True)
    assert len(pers) == len(draws)
    thresholds = {PhyConfig().rx_sensitivity_dbm} | {
        station["cs_threshold_dbm"] for station in spec["stations"]}
    near = sum(abs(u - p) < NEAR for u, p in zip(draws, pers))
    near += sum(abs(p - t) < 1e-9 for p in powers for t in thresholds)
    return out, near


class TestKeyedMediumMatchesReference:
    @given(spec=channels(keyed=True))
    @settings(max_examples=120, deadline=None)
    def test_random_channels(self, spec):
        old, near = run_reference_recording(spec)
        if near:
            return
        assert_runs_match(run_channel(spec, reference=False), old)

    def test_seeded_channels_reach_every_outcome(self):
        totals: Dict[str, int] = {}
        reasons = set()
        near_runs = 0
        for seed in range(30):
            spec = seeded_channel(seed, keyed=True)
            fast = run_channel(spec, reference=False)
            old, near = run_reference_recording(spec)
            if near:
                near_runs += 1
                continue
            assert_runs_match(fast, old)
            for key, value in fast["stats"].items():
                totals[key] = totals.get(key, 0) + value
            reasons.update(reason for losses in fast["lost"].values()
                           for _payload, reason in losses)
        assert near_runs <= 1
        assert all(value > 0 for value in totals.values()), totals
        assert reasons == {"fault", "half-duplex", "collision", "noise"}


class TestConstruction:
    @pytest.mark.parametrize("budget", [
        LinkBudget(shadowing=ShadowingModel(sigma_db=4.0)),
        LinkBudget(fading=NakagamiFading(m=1.0)),
    ])
    def test_keyed_medium_refuses_random_link_budgets(self, budget):
        with pytest.raises(ValueError, match="shadowing or fading"):
            WirelessMedium(Simulator(), np.random.default_rng(0), budget,
                           reception_draw=OrderFreeReception(1))
        with pytest.raises(ValueError, match="shadowing or fading"):
            budget.received_powers_dbm(0.0, (0.0, 0.0), np.zeros(1),
                                       np.zeros(1))
        # The shared-rng medium takes them.
        WirelessMedium(Simulator(), np.random.default_rng(0), budget)


#: Receivers spread across the lossy edge of an 18 dBm QPSK 1/2 link
#: (exponent 2.8, 300-byte frames): PER climbs from 1 % at 230 m to
#: 99 % at 310 m; sensitivity cuts off near 320 m.
BIN_EDGES = (230.0, 244.0, 258.0, 272.0, 286.0, 300.0, 314.0)
PER_BIN = 4
FRAMES = 25


def delivery_by_bin(seed: int, keyed: bool) -> List[Tuple[int, int]]:
    """(delivered, attempted) per distance bin for one seed."""
    sim = Simulator()
    budget: Any
    if keyed:
        budget = LinkBudget(path_loss=LogDistancePathLoss(exponent=2.8))
        medium: Any = WirelessMedium(sim, np.random.default_rng(seed),
                                     budget,
                                     reception_draw=OrderFreeReception(seed))
    else:
        budget = ReferenceLinkBudget(
            path_loss=ReferenceLogDistance(exponent=2.8))
        medium = ReferenceMedium(sim, np.random.default_rng(seed), budget,
                                 reception_draw=ReferenceReception(seed))
    sender = NetworkInterface(sim, medium, "tx", lambda: (0.0, 0.0),
                              rng=np.random.default_rng(seed))
    delivered: Dict[str, int] = {}
    bins: Dict[str, int] = {}
    for b, (low, high) in enumerate(zip(BIN_EDGES, BIN_EDGES[1:])):
        for k in range(PER_BIN):
            name = f"rx{b}.{k}"
            distance = low + (high - low) * (k + 0.5) / PER_BIN
            angle = 0.7 * (b * PER_BIN + k)
            nic = NetworkInterface(
                sim, medium, name,
                lambda d=distance, a=angle: (d * math.cos(a),
                                             d * math.sin(a)),
                rng=np.random.default_rng(seed + 1))
            delivered[name] = 0
            bins[name] = b
            nic.on_receive(lambda frame, info, name=name:
                           delivered.__setitem__(name, delivered[name] + 1))
    for index in range(FRAMES):
        sim.schedule(index * 2e-3, lambda index=index: sender.send(Frame(
            payload=index, size=300, source="tx",
            category=AccessCategory.AC_VI)))
    sim.run()
    assert medium.frames_sent == FRAMES
    out = [(0, 0)] * (len(BIN_EDGES) - 1)
    for name, count in delivered.items():
        got, tried = out[bins[name]]
        out[bins[name]] = (got + count, tried + FRAMES)
    return out


class TestNoBias:
    def test_delivery_ratio_per_bin_matches_the_sha256_draw(self):
        z99 = 2.5758293035489
        new = np.zeros((len(BIN_EDGES) - 1, 2))
        old = np.zeros((len(BIN_EDGES) - 1, 2))
        for seed in range(20):
            new += np.array(delivery_by_bin(seed, keyed=True))
            old += np.array(delivery_by_bin(seed, keyed=False))
        ratios = []
        for (got, tried), (got_old, tried_old) in zip(new, old):
            p_new, p_old = got / tried, got_old / tried_old
            pooled = (got + got_old) / (tried + tried_old)
            width = z99 * math.sqrt(pooled * (1.0 - pooled)
                                    * (1.0 / tried + 1.0 / tried_old))
            assert abs(p_new - p_old) <= width, (p_new, p_old, width)
            ratios.append(p_old)
        # The bins span the lossy edge, so the test has power.
        assert ratios[0] > 0.9 and ratios[-1] < 0.1
        assert any(0.2 < p < 0.8 for p in ratios)
