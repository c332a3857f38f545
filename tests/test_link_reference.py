"""Differential test: the link math, with its constants fixed at
construction, against its predecessor in :mod:`tests.reference.link`.

Each path-loss model, the dBm/mW conversions, the keyed shadowing and
fading draws and both directions of the local frame must agree bit for
bit.  Floats are compared as IEEE-754 bit patterns, so ``-0.0`` and
``0.0`` differ.  The packet error rates of all eight MCS entries agree
within 4 ulp (numpy's ``log1p``/``expm1`` against :mod:`math`'s), and
exactly where either is 0.0.  The SINR strategies reach the region
where ``erfc`` underflows, so a PER of exactly 0.0 (the medium's
no-draw branch) is covered along with the PERs just above it.
"""

import math
import struct
from typing import Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geonet.position import GeoPosition, LocalFrame
from repro.net.medium import OrderFreeReception
from repro.net.phy import McsTable, packet_error_rates
from repro.net.propagation import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    NakagamiFading,
    ShadowingModel,
    TwoRayGroundPathLoss,
    dbm_to_mw,
    mw_to_dbm,
)
from tests.reference import keyed as ref_keyed
from tests.reference import link as ref

RATES = sorted(McsTable.ENTRIES)

#: From no signal (BER 0.5) through deep loss to far past the SINR at
#: which erfc underflows to 0.0.
SINRS = st.one_of(
    st.floats(0.0, 1e7),
    st.floats(-4.0, 7.0).map(lambda exponent: 10.0 ** exponent),
    st.sampled_from([0.0, 5e-324, math.inf]),
)

DISTANCES = st.one_of(st.floats(-10.0, 5000.0, allow_nan=False),
                      st.sampled_from([0.0, 1.0]))

FREQUENCIES = st.one_of(st.sampled_from([5.9e9, 2.4e9, 6.0e10]),
                        st.floats(1e8, 1e11))


def bits(value: float) -> bytes:
    """The IEEE-754 bit pattern of *value*."""
    return struct.pack("<d", value)


def ulps(a: float, b: float) -> int:
    """How many doubles lie between *a* and *b* (0 when equal)."""
    def ordered(x: float) -> int:
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i + 2 ** 63)
    return abs(ordered(a) - ordered(b))


def pair_bits(pair: Tuple[float, float]) -> Tuple[bytes, bytes]:
    return bits(pair[0]), bits(pair[1])


def geo_bits(position: GeoPosition) -> Tuple[bytes, bytes]:
    return bits(position.latitude), bits(position.longitude)


def reference_constants(rate: float) -> Tuple[float, float, float]:
    """*rate*'s ``(coding gain, divisor, factor)``, from the oracle's BER."""
    mcs = ref.MCS_TABLE[rate]
    divisor, factor = {"bpsk": (0.5, 1.0), "qpsk": (1.0, 1.0),
                       "qam16": (5.0, 0.75),
                       "qam64": (21.0, 7.0 / 12.0)}[mcs.modulation]
    gain = 10.0 ** (5.0 * (1.0 - mcs.coding_rate) / 0.5 / 10.0)
    return gain, divisor, factor


def underflow_sinr(rate: float, t: float) -> float:
    """The SINR at which *rate*'s Q(.) argument x has 2 x**2 == *t*.

    erfc(x) underflows to 0.0 near x = 27.2 (t ~ 1480), so a sweep of
    *t* over [1200, 1600] crosses the edge where the PER becomes 0.0.
    """
    gain, divisor, _factor = reference_constants(rate)
    return t * divisor / gain


def per(rate: float, sinr: float, size: int) -> float:
    """One receiver's PER through the medium's array form."""
    constants = np.array([McsTable.ENTRIES[rate].ber_constants]).T
    return packet_error_rates(np.array([sinr]), *constants, size).item()


def assert_per_matches(rate: float, sinr: float, size: int) -> None:
    fast = per(rate, sinr, size)
    old = ref.MCS_TABLE[rate].packet_error_rate(sinr, size)
    assert (fast == 0.0) == (old == 0.0), (rate, sinr, fast, old)
    assert ulps(fast, old) <= 4, (rate, sinr, fast, old)


class TestErrorRates:
    def test_table_matches_reference(self):
        for rate in RATES:
            fast, old = McsTable.ENTRIES[rate], ref.MCS_TABLE[rate]
            assert (fast.data_rate_bps, fast.modulation, fast.coding_rate,
                    fast.bits_per_symbol) == (
                old.data_rate_bps, old.modulation, old.coding_rate,
                old.bits_per_symbol)
            assert fast.ber_constants == reference_constants(rate)
        assert sorted(ref.MCS_TABLE) == RATES

    @given(rate=st.sampled_from(RATES), sinr=SINRS,
           size=st.integers(1, 2400))
    @settings(max_examples=400, deadline=None)
    def test_per_matches_reference(self, rate, sinr, size):
        assert_per_matches(rate, sinr, size)

    @given(rate=st.sampled_from(RATES), t=st.floats(1200.0, 1600.0),
           size=st.integers(1, 2400))
    @settings(max_examples=300, deadline=None)
    def test_per_matches_across_erfc_underflow(self, rate, t, size):
        assert_per_matches(rate, underflow_sinr(rate, t), size)

    def test_underflow_sweep_reaches_every_branch(self):
        # The sweep meets PERs of exactly 0.0, PERs in (0, 2**-64) and
        # larger ones, for every MCS.
        for rate in RATES:
            pers = [per(rate, underflow_sinr(rate, t), 400)
                    for t in np.linspace(1.0, 1600.0, 400)]
            assert 0.0 in pers
            assert any(0.0 < p < 2.0 ** -64 for p in pers)
            assert any(p >= 2.0 ** -64 for p in pers)


class TestPathLoss:
    @given(distance=DISTANCES, frequency=FREQUENCIES)
    @settings(max_examples=200, deadline=None)
    def test_free_space_matches_bitwise(self, distance, frequency):
        assert bits(FreeSpacePathLoss(frequency).path_loss_db(
            distance)) == bits(ref.ReferenceFreeSpace(
                frequency).path_loss_db(distance))

    @given(distance=DISTANCES, tx_height=st.floats(0.1, 10.0),
           rx_height=st.floats(0.1, 10.0), frequency=FREQUENCIES)
    @settings(max_examples=200, deadline=None)
    def test_two_ray_matches_bitwise(self, distance, tx_height, rx_height,
                                     frequency):
        fast = TwoRayGroundPathLoss(tx_height, rx_height, frequency)
        old = ref.ReferenceTwoRay(tx_height, rx_height, frequency)
        assert bits(fast.path_loss_db(distance)) == bits(
            old.path_loss_db(distance))

    @given(distance=DISTANCES, exponent=st.floats(1.5, 5.0),
           reference_distance=st.one_of(st.just(1.0),
                                        st.floats(0.01, 100.0)),
           frequency=FREQUENCIES)
    @settings(max_examples=300, deadline=None)
    def test_log_distance_matches_bitwise(self, distance, exponent,
                                          reference_distance, frequency):
        fast = LogDistancePathLoss(exponent, reference_distance, frequency)
        old = ref.ReferenceLogDistance(exponent, reference_distance,
                                       frequency)
        assert bits(fast.path_loss_db(distance)) == bits(
            old.path_loss_db(distance))


POINTS = st.tuples(st.floats(-2000.0, 2000.0), st.floats(-2000.0, 2000.0))


class TestLinkBudget:
    @given(dbm=st.floats(-200.0, 60.0))
    @settings(max_examples=200, deadline=None)
    def test_dbm_conversions_match_bitwise(self, dbm):
        assert bits(dbm_to_mw(dbm)) == bits(ref.dbm_to_mw(dbm))
        assert bits(mw_to_dbm(dbm_to_mw(dbm))) == bits(
            ref.mw_to_dbm(ref.dbm_to_mw(dbm)))

    @given(tx_pos=POINTS, rx_pos=POINTS,
           m=st.sampled_from([0.5, 1.0, 3.0, 10.0]),
           seed=st.integers(0, 2 ** 32 - 1),
           sequence=st.integers(0, 10 ** 6),
           moves=st.lists(POINTS, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_keyed_shadowing_and_fading_match_bitwise(
            self, tx_pos, rx_pos, m, seed, sequence, moves):
        # The medium's keyed shadowing, per link and epoch, and its
        # fading gain, per (frame, receiver), as the reference computes
        # them one link at a time.  How the medium composes them with
        # the path loss is left to the whole-channel differential tests
        # of tests/test_medium_reference.py.
        draw = OrderFreeReception(seed)
        oracle = ref_keyed.ReferenceKeyedReception(seed)
        shadowing = ShadowingModel(sigma_db=4.0, decorrelation_distance=5.0)
        link = (draw.station_key("a"), draw.station_key("b"))
        for pos in [rx_pos, *moves]:
            fast = shadowing.shadowing_db(draw, link, tx_pos, pos)
            old = oracle.shadowing_db(shadowing, ("a", "b"), tx_pos, pos)
            assert bits(fast) == bits(old)
        frame_key = draw.frame_key(link[0], sequence)
        fast_gain = NakagamiFading(m).power_gains(
            OrderFreeReception.fading_uniforms(
                frame_key, np.array([link[1]], dtype=np.uint64)))[0]
        assert bits(fast_gain) == bits(
            oracle.fading_gain(m, ("a", "b"), sequence))


ORIGINS = st.builds(GeoPosition, st.floats(-80.0, 80.0),
                    st.floats(-180.0, 180.0))


class TestLocalFrame:
    @given(origin=ORIGINS, point=POINTS)
    @settings(max_examples=300, deadline=None)
    def test_round_trip_matches_bitwise(self, origin, point):
        fast = LocalFrame(origin)
        old = ref.ReferenceLocalFrame(origin)
        fast_geo = fast.to_geo(*point)
        assert geo_bits(fast_geo) == geo_bits(old.to_geo(*point))
        back = fast.to_local(fast_geo)
        assert pair_bits(back) == pair_bits(old.to_local(fast_geo))
        assert math.isclose(back[0], point[0], abs_tol=1e-6)
        assert math.isclose(back[1], point[1], abs_tol=1e-6)

    @given(origin=ORIGINS, offset=st.tuples(st.floats(-0.05, 0.05),
                                            st.floats(-0.05, 0.05)))
    @settings(max_examples=200, deadline=None)
    def test_to_local_matches_bitwise(self, origin, offset):
        position = GeoPosition(origin.latitude + offset[0],
                               origin.longitude + offset[1])
        assert pair_bits(LocalFrame(origin).to_local(position)) == (
            pair_bits(ref.ReferenceLocalFrame(origin).to_local(position)))

    def test_default_origin_matches(self):
        assert LocalFrame() == LocalFrame(ref.ReferenceLocalFrame().origin)
