"""Differential tests: the medium's numpy link pass and splitmix64
draws against the scalar oracle in :mod:`tests.reference.keyed`.

The oracle computes each reception with :mod:`math` and the same
splitmix64 on Python ints.  Tolerances:

* draws -- packet-error, fading and shadowing -- match bit for bit;
* received power and PER match within 4 ulp: numpy's ``hypot``,
  ``log10``, ``log1p`` and ``expm1`` may differ from :mod:`math`'s in
  the last bit (the BER path, ``sqrt`` and ``erfc``, is bit-identical);
* a delivery decision ``u < PER`` matches except where
  ``|u - PER| < 1e-12``; those cases are counted, and must be rare.

Whole random channels, the medium against the scalar reference medium,
are compared in ``tests/test_medium_reference.py``.

A seeded statistical test shows the new draw adds no bias: over 20
seeds, the delivery ratio per distance bin stays inside a 99 %
binomial interval of the SHA-256 draw the medium used before.
"""

import math
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

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
)
from tests.reference.medium import ReferenceMedium, ReferenceReception
from tests.test_link_reference import bits, ulps
from tests.test_medium_reference import NEAR


NAMES = st.text(min_size=1, max_size=12)


def unmix64(z: int) -> int:
    """The inverse of the splitmix64 output mix."""
    def unshift(z: int, shift: int) -> int:
        # Undo z ^= z >> shift.
        out = z
        for _ in range(64 // shift + 1):
            out = z ^ (out >> shift)
        return out & ref.MASK64

    z = unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & ref.MASK64
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & ref.MASK64
    return unshift(z, 30)


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

    @given(seed=st.integers(-2 ** 70, 2 ** 70), sender=NAMES,
           sequence=st.integers(0, 10 ** 9),
           receivers=st.lists(NAMES, min_size=1, max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_fading_draws_match_bitwise(self, seed, sender, sequence,
                                        receivers):
        draw = OrderFreeReception(seed)
        oracle = ref.ReferenceKeyedReception(seed)
        keys = np.array([draw.station_key(r) for r in receivers],
                        dtype=np.uint64)
        frame_key = draw.frame_key(draw.station_key(sender), sequence)
        values = OrderFreeReception.fading_uniforms(frame_key, keys).tolist()
        for receiver, value in zip(receivers, values):
            expected = oracle.fading_uniform(sender, sequence, receiver)
            assert bits(value) == bits(expected)
            assert 0.0 < value < 1.0
            # Independent of the packet-error draw of the same pair.
            assert value != oracle.uniform(sender, sequence, receiver)

    @given(seed=st.integers(-2 ** 70, 2 ** 70), sender=NAMES,
           receiver=NAMES, epoch=st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_shadowing_draws_match_bitwise(self, seed, sender, receiver,
                                           epoch):
        draw = OrderFreeReception(seed)
        value = draw.link_uniform(draw.station_key(sender),
                                  draw.station_key(receiver), epoch)
        assert bits(value) == bits(ref.ReferenceKeyedReception(
            seed).link_uniform(sender, receiver, epoch))
        assert 0.0 < value < 1.0

    @pytest.mark.parametrize("z, u", [
        (0, 2.0 ** -53), ((1 << 64) - 1, 1.0 - 2.0 ** -53)])
    def test_open_uniforms_stay_inside_the_unit_interval(self, z, u):
        # A receiver key chosen so that the mixed value is z: the
        # extreme uniforms still give finite shadowing and fading.
        frame_key = OrderFreeReception(3).frame_key(5, 0)
        fading_key = ref.mix64(frame_key ^ ref.FADING_SALT)
        keys = np.array([unmix64(z) ^ fading_key], dtype=np.uint64)
        value = OrderFreeReception.fading_uniforms(frame_key, keys)[0]
        assert bits(value) == bits(u) == bits(ref.open_unit(z))
        assert math.isfinite(float(special.ndtri(value)))
        for m in (0.5, 1.0, 3.0, 10.0):
            gain = NakagamiFading(m).power_gains(np.array([value]))[0]
            assert 0.0 < gain < math.inf
            assert math.isfinite(10.0 * math.log10(gain))

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
                                              0, tx_pos, pos)
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


class TestConstruction:
    @pytest.mark.parametrize("budget", [
        LinkBudget(shadowing=ShadowingModel(sigma_db=4.0)),
        LinkBudget(fading=NakagamiFading(m=1.0)),
        LinkBudget(shadowing=ShadowingModel(sigma_db=4.0),
                   fading=NakagamiFading(m=1.0)),
    ])
    def test_medium_accepts_random_link_budgets(self, budget):
        sim = Simulator()
        medium = WirelessMedium(sim, 1, budget)
        heard: List[Frame] = []
        a = NetworkInterface(sim, medium, "a", lambda: (0.0, 0.0),
                             rng=np.random.default_rng(1))
        b = NetworkInterface(sim, medium, "b", lambda: (200.0, 0.0),
                             rng=np.random.default_rng(2))
        b.on_receive(heard.append)
        for index in range(40):
            sim.schedule(index * 1e-3, lambda: a.send(Frame(
                payload=b"x", size=300, source="a",
                category=AccessCategory.AC_VO)))
        sim.run()
        assert medium.frames_sent == 40
        assert 0 < len(heard) <= 40

    @pytest.mark.parametrize("seed", [np.random.default_rng(0), 1.5, "1"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(TypeError):
            WirelessMedium(Simulator(), seed)

    def test_numpy_integer_seed_is_the_same_seed(self):
        assert (OrderFreeReception(np.int64(7)).uniform("a", 0, "b")
                == OrderFreeReception(7).uniform("a", 0, "b"))


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
        medium: Any = WirelessMedium(sim, seed, budget)
    else:
        budget = ReferenceLinkBudget(
            path_loss=ReferenceLogDistance(exponent=2.8))
        medium = ReferenceMedium(sim, ReferenceReception(seed), budget)
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
            nic.on_receive(lambda frame, name=name:
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
