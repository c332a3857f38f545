"""Differential test: the link math, with its constants fixed at
construction, against its predecessor in :mod:`tests.reference.link`.

Bit and packet error rates of all eight MCS entries, each path-loss
model, the received power of a link budget and both directions of the
local frame must agree bit for bit.  Floats are compared as IEEE-754
bit patterns, so ``-0.0`` and ``0.0`` differ.  The SINR strategies
reach the region where ``erfc`` underflows, so a PER of exactly 0.0
(the medium's no-draw branch) is covered along with the PERs just
above it.
"""

import math
import struct
from typing import Any, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geonet.position import GeoPosition, LocalFrame
from repro.net.phy import McsTable
from repro.net.propagation import (
    FreeSpacePathLoss,
    LinkBudget,
    LogDistancePathLoss,
    NakagamiFading,
    ShadowingModel,
    TwoRayGroundPathLoss,
    dbm_to_mw,
    mw_to_dbm,
)
from tests.reference import link as ref

RATES = sorted(McsTable.ENTRIES)

#: From no signal (BER 0.5) through deep loss to far past the SINR at
#: which erfc underflows to 0.0.
SINRS = st.one_of(
    st.floats(-1.0, 1e7, allow_nan=False),
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


def pair_bits(pair: Tuple[float, float]) -> Tuple[bytes, bytes]:
    return bits(pair[0]), bits(pair[1])


def geo_bits(position: GeoPosition) -> Tuple[bytes, bytes]:
    return bits(position.latitude), bits(position.longitude)


def underflow_sinr(rate: float, t: float) -> float:
    """The SINR at which *rate*'s Q(.) argument x has 2 x**2 == *t*.

    erfc(x) underflows to 0.0 near x = 27.2 (t ~ 1480), so a sweep of
    *t* over [1200, 1600] crosses the edge where the PER becomes 0.0.
    """
    mcs = ref.MCS_TABLE[rate]
    divisor = {"bpsk": 0.5, "qpsk": 1.0, "qam16": 5.0,
               "qam64": 21.0}[mcs.modulation]
    gain = 10.0 ** (5.0 * (1.0 - mcs.coding_rate) / 0.5 / 10.0)
    return t * divisor / gain


class TestErrorRates:
    def test_table_matches_reference(self):
        for rate in RATES:
            fast, old = McsTable.ENTRIES[rate], ref.MCS_TABLE[rate]
            assert (fast.data_rate_bps, fast.modulation, fast.coding_rate,
                    fast.bits_per_symbol) == (
                old.data_rate_bps, old.modulation, old.coding_rate,
                old.bits_per_symbol)
        assert sorted(ref.MCS_TABLE) == RATES

    @given(rate=st.sampled_from(RATES), sinr=SINRS,
           size=st.integers(1, 2400))
    @settings(max_examples=400, deadline=None)
    def test_ber_and_per_match_bitwise(self, rate, sinr, size):
        fast, old = McsTable.ENTRIES[rate], ref.MCS_TABLE[rate]
        assert bits(fast.bit_error_rate(sinr)) == bits(
            old.bit_error_rate(sinr))
        assert bits(fast.packet_error_rate(sinr, size)) == bits(
            old.packet_error_rate(sinr, size))

    @given(rate=st.sampled_from(RATES), t=st.floats(1200.0, 1600.0),
           size=st.integers(1, 2400))
    @settings(max_examples=300, deadline=None)
    def test_per_matches_across_erfc_underflow(self, rate, t, size):
        sinr = underflow_sinr(rate, t)
        assert bits(McsTable.ENTRIES[rate].packet_error_rate(
            sinr, size)) == bits(ref.MCS_TABLE[rate].packet_error_rate(
                sinr, size))

    def test_underflow_sweep_reaches_every_branch(self):
        # The sweep meets PERs of exactly 0.0, PERs in (0, 2**-64) and
        # larger ones, for every MCS.
        for rate in RATES:
            pers = [McsTable.ENTRIES[rate].packet_error_rate(
                underflow_sinr(rate, t), 400)
                for t in np.linspace(1.0, 1600.0, 400)]
            assert 0.0 in pers
            assert any(0.0 < per < 2.0 ** -64 for per in pers)
            assert any(per >= 2.0 ** -64 for per in pers)


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
    @given(tx_pos=POINTS, rx_pos=POINTS,
           tx_power=st.sampled_from([0.0, 18.0, 23.0]),
           exponent=st.floats(1.5, 5.0),
           gains=st.tuples(st.floats(-3.0, 10.0), st.floats(-3.0, 10.0)),
           randomised=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_received_power_matches_bitwise(self, tx_pos, rx_pos, tx_power,
                                            exponent, gains, randomised,
                                            seed):
        def build(reference: bool) -> Any:
            kwargs = dict(
                shadowing=ShadowingModel(sigma_db=4.0) if randomised
                else None,
                fading=NakagamiFading(m=1.0) if randomised else None,
                tx_antenna_gain_dbi=gains[0], rx_antenna_gain_dbi=gains[1])
            if reference:
                return ref.ReferenceLinkBudget(
                    path_loss=ref.ReferenceLogDistance(exponent), **kwargs)
            return LinkBudget(path_loss=LogDistancePathLoss(exponent),
                              **kwargs)

        fast_rng, old_rng = (np.random.default_rng(seed),
                             np.random.default_rng(seed))
        fast = build(False).received_power_dbm(
            fast_rng, tx_power, ("a", "b"), tx_pos, rx_pos)
        old = build(True).received_power_dbm(
            old_rng, tx_power, ("a", "b"), tx_pos, rx_pos)
        assert bits(fast) == bits(old)
        assert fast_rng.bit_generator.state == old_rng.bit_generator.state
        assert bits(dbm_to_mw(fast)) == bits(ref.dbm_to_mw(old))
        assert bits(mw_to_dbm(dbm_to_mw(fast))) == bits(
            ref.mw_to_dbm(ref.dbm_to_mw(old)))


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
