"""Tests for propagation models."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.medium import OrderFreeReception
from repro.net.propagation import (
    FreeSpacePathLoss,
    LinkBudget,
    LogDistancePathLoss,
    NakagamiFading,
    ShadowingModel,
    dbm_to_mw,
    free_space_path_loss_db,
    mw_to_dbm,
)


class TestFreeSpace:
    def test_known_value(self):
        # FSPL at 1 m, 5.9 GHz: 20 log10(4 pi / lambda) ~ 47.9 dB.
        loss = free_space_path_loss_db(1.0, 5.9e9)
        assert 47.0 < loss < 48.5

    def test_doubles_distance_adds_6db(self):
        l1 = free_space_path_loss_db(10.0, 5.9e9)
        l2 = free_space_path_loss_db(20.0, 5.9e9)
        assert abs((l2 - l1) - 6.02) < 0.1

    def test_zero_distance_no_loss(self):
        assert free_space_path_loss_db(0.0, 5.9e9) == 0.0

    def test_model_object(self):
        model = FreeSpacePathLoss()
        assert model.path_loss_db(10.0) == pytest.approx(
            free_space_path_loss_db(10.0, model.frequency_hz))


class TestLogDistance:
    def test_reduces_to_free_space_at_reference(self):
        model = LogDistancePathLoss(exponent=2.0, reference_distance=1.0)
        assert model.path_loss_db(1.0) == pytest.approx(
            free_space_path_loss_db(1.0, model.frequency_hz))

    def test_exponent_scales_slope(self):
        m2 = LogDistancePathLoss(exponent=2.0)
        m3 = LogDistancePathLoss(exponent=3.0)
        delta2 = m2.path_loss_db(100.0) - m2.path_loss_db(10.0)
        delta3 = m3.path_loss_db(100.0) - m3.path_loss_db(10.0)
        assert abs(delta2 - 20.0) < 0.01
        assert abs(delta3 - 30.0) < 0.01

    def test_clamps_below_reference(self):
        model = LogDistancePathLoss(reference_distance=1.0)
        assert model.path_loss_db(0.1) == model.path_loss_db(1.0)

    @given(st.floats(1.0, 1000.0), st.floats(1.0, 1000.0))
    def test_monotone_in_distance(self, d1, d2):
        model = LogDistancePathLoss()
        if d1 > d2:
            d1, d2 = d2, d1
        assert model.path_loss_db(d1) <= model.path_loss_db(d2)

    @pytest.mark.parametrize("d0", [0.0, -1.0])
    def test_non_positive_reference_distance_rejected(self, d0):
        # At construction, not as a ZeroDivisionError or math domain
        # error at the first reception.
        with pytest.raises(ValueError, match="reference_distance"):
            LogDistancePathLoss(reference_distance=d0)


def gains(fading, count, seed=1):
    """*count* Nakagami gains, one per (frame, receiver) key: 100
    receivers per frame."""
    draw = OrderFreeReception(seed)
    keys = np.array([draw.station_key(f"r{i}") for i in range(100)],
                    dtype=np.uint64)
    sender = draw.station_key("tx")
    return np.concatenate([
        fading.power_gains(OrderFreeReception.fading_uniforms(
            draw.frame_key(sender, seq), keys))
        for seq in range(count // 100)])


A, B = OrderFreeReception.station_key("a"), OrderFreeReception.station_key("b")


class TestShadowing:
    def test_disabled_when_sigma_zero(self):
        model = ShadowingModel(sigma_db=0.0)
        draw = OrderFreeReception(1)
        assert model.shadowing_db(draw, (A, B), (0, 0), (5, 0)) == 0.0

    def test_stable_while_stationary(self):
        model = ShadowingModel(sigma_db=4.0)
        draw = OrderFreeReception(1)
        first = model.shadowing_db(draw, (A, B), (0, 0), (5, 0))
        second = model.shadowing_db(draw, (A, B), (0, 0), (5, 0))
        assert first == second

    def test_redrawn_after_decorrelation_distance(self):
        model = ShadowingModel(sigma_db=4.0, decorrelation_distance=1.0)
        draw = OrderFreeReception(1)
        first = model.shadowing_db(draw, (A, B), (0, 0), (5, 0))
        moved = model.shadowing_db(draw, (A, B), (0, 0), (25, 0))
        assert first != moved

    def test_links_are_independent(self):
        model = ShadowingModel(sigma_db=4.0)
        draw = OrderFreeReception(1)
        ab = model.shadowing_db(draw, (A, B), (0, 0), (5, 0))
        ba = model.shadowing_db(draw, (B, A), (5, 0), (0, 0))
        assert ab != ba

    def test_value_is_keyed_by_link_and_epoch(self):
        # The same (seed, link, epoch) gives the same value whatever
        # else was drawn before it; a new epoch gives a new one.
        fresh = ShadowingModel(sigma_db=4.0, decorrelation_distance=1.0)
        busy = ShadowingModel(sigma_db=4.0, decorrelation_distance=1.0)
        draw = OrderFreeReception(1)
        for other in range(50):
            busy.shadowing_db(draw, (other, B), (0, 0), (5, 0))
        assert (fresh.shadowing_db(draw, (A, B), (0, 0), (5, 0))
                == busy.shadowing_db(draw, (A, B), (0, 0), (5, 0)))
        values = [fresh.shadowing_db(draw, (A, B), (0, 0), (5 + 2 * k, 0))
                  for k in range(1, 5)]
        assert len(set(values)) == 4

    def test_log_normal_spread(self):
        # sigma * ndtri(u) over fresh links: zero mean, sigma spread.
        model = ShadowingModel(sigma_db=4.0)
        draw = OrderFreeReception(1)
        values = np.array([model.shadowing_db(draw, (A, k), (0, 0), (5, 0))
                           for k in range(20000)])
        assert abs(values.mean()) < 0.1
        assert abs(values.std() - 4.0) < 0.1


class TestNakagami:
    def test_unit_mean(self):
        assert abs(np.mean(gains(NakagamiFading(m=3.0), 20000)) - 1.0) < 0.03

    def test_higher_m_less_variance(self):
        deep = gains(NakagamiFading(m=1.0), 5000)
        mild = gains(NakagamiFading(m=10.0), 5000)
        assert np.var(deep) > np.var(mild)

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            NakagamiFading(m=0.0).power_gains(np.array([0.5]))

    @pytest.mark.parametrize("m", [0.0, -2.0])
    def test_invalid_m_rejected_at_construction(self, m):
        with pytest.raises(ValueError, match="Nakagami m must be positive"):
            NakagamiFading(m=m)


def power(budget, rx):
    """The budget's received power at one receiver, 18 dBm from (0, 0)."""
    return budget.received_powers_dbm(18.0, (0, 0), np.array([rx[0]]),
                                      np.array([rx[1]]))[0]


class TestLinkBudget:
    def test_deterministic_without_randomness(self):
        budget = LinkBudget(path_loss=LogDistancePathLoss())
        assert power(budget, (10, 0)) == power(budget, (10, 0))

    def test_power_decreases_with_distance(self):
        budget = LinkBudget(path_loss=LogDistancePathLoss())
        assert power(budget, (2, 0)) > power(budget, (50, 0))

    def test_antenna_gains_add(self):
        no_gain = LinkBudget(path_loss=LogDistancePathLoss(),
                             tx_antenna_gain_dbi=0.0,
                             rx_antenna_gain_dbi=0.0)
        with_gain = LinkBudget(path_loss=LogDistancePathLoss(),
                               tx_antenna_gain_dbi=3.0,
                               rx_antenna_gain_dbi=3.0)
        p0 = power(no_gain, (10, 0))
        p6 = power(with_gain, (10, 0))
        assert p6 - p0 == pytest.approx(6.0)


class TestDbConversions:
    @given(st.floats(-120.0, 40.0))
    def test_round_trip(self, dbm):
        assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm)

    def test_zero_mw_is_minus_inf(self):
        assert mw_to_dbm(0.0) == -math.inf

    def test_known_points(self):
        assert dbm_to_mw(0.0) == pytest.approx(1.0)
        assert dbm_to_mw(30.0) == pytest.approx(1000.0)


class TestTwoRayGround:
    def test_free_space_below_crossover(self):
        from repro.net.propagation import TwoRayGroundPathLoss

        model = TwoRayGroundPathLoss(tx_height=1.5, rx_height=1.5)
        d = model.crossover_distance * 0.5
        assert model.path_loss_db(d) == pytest.approx(
            free_space_path_loss_db(d, model.frequency_hz))

    def test_fourth_power_beyond_crossover(self):
        from repro.net.propagation import TwoRayGroundPathLoss

        model = TwoRayGroundPathLoss()
        d = model.crossover_distance * 4.0
        # Doubling the distance adds 12 dB (40 log10 slope).
        delta = model.path_loss_db(2 * d) - model.path_loss_db(d)
        assert delta == pytest.approx(40.0 * math.log10(2.0), abs=0.01)

    def test_crossover_distance_formula(self):
        from repro.net.propagation import (
            SPEED_OF_LIGHT,
            TwoRayGroundPathLoss,
        )

        model = TwoRayGroundPathLoss(tx_height=2.0, rx_height=1.0)
        wavelength = SPEED_OF_LIGHT / model.frequency_hz
        expected = 4.0 * math.pi * 2.0 * 1.0 / wavelength
        assert model.crossover_distance == pytest.approx(expected)

    def test_taller_antennas_less_loss_at_range(self):
        from repro.net.propagation import TwoRayGroundPathLoss

        low = TwoRayGroundPathLoss(tx_height=1.0, rx_height=1.0)
        high = TwoRayGroundPathLoss(tx_height=5.0, rx_height=5.0)
        d = max(low.crossover_distance, high.crossover_distance) * 3.0
        assert high.path_loss_db(d) < low.path_loss_db(d)

    def test_continuous_at_crossover(self):
        from repro.net.propagation import TwoRayGroundPathLoss

        model = TwoRayGroundPathLoss()
        d = model.crossover_distance
        just_below = model.path_loss_db(d * 0.999)
        just_above = model.path_loss_db(d * 1.001)
        assert abs(just_above - just_below) < 1.0
