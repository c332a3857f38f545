"""Tests for propagation models."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


class TestShadowing:
    def test_disabled_when_sigma_zero(self):
        model = ShadowingModel(sigma_db=0.0)
        rng = np.random.default_rng(1)
        assert model.shadowing_db(rng, ("a", "b"), (0, 0), (5, 0)) == 0.0

    def test_stable_while_stationary(self):
        model = ShadowingModel(sigma_db=4.0)
        rng = np.random.default_rng(1)
        first = model.shadowing_db(rng, ("a", "b"), (0, 0), (5, 0))
        second = model.shadowing_db(rng, ("a", "b"), (0, 0), (5, 0))
        assert first == second

    def test_redrawn_after_decorrelation_distance(self):
        model = ShadowingModel(sigma_db=4.0, decorrelation_distance=1.0)
        rng = np.random.default_rng(1)
        first = model.shadowing_db(rng, ("a", "b"), (0, 0), (5, 0))
        moved = model.shadowing_db(rng, ("a", "b"), (0, 0), (25, 0))
        assert first != moved

    def test_links_are_independent(self):
        model = ShadowingModel(sigma_db=4.0)
        rng = np.random.default_rng(1)
        ab = model.shadowing_db(rng, ("a", "b"), (0, 0), (5, 0))
        ba = model.shadowing_db(rng, ("b", "a"), (5, 0), (0, 0))
        assert ab != ba


class TestNakagami:
    def test_unit_mean(self):
        fading = NakagamiFading(m=3.0)
        rng = np.random.default_rng(1)
        gains = [fading.power_gain(rng) for _ in range(20000)]
        assert abs(np.mean(gains) - 1.0) < 0.03

    def test_higher_m_less_variance(self):
        rng1 = np.random.default_rng(1)
        rng2 = np.random.default_rng(1)
        deep = [NakagamiFading(m=1.0).power_gain(rng1)
                for _ in range(5000)]
        mild = [NakagamiFading(m=10.0).power_gain(rng2)
                for _ in range(5000)]
        assert np.var(deep) > np.var(mild)

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            NakagamiFading(m=0.0).power_gain(np.random.default_rng(1))

    @pytest.mark.parametrize("m", [0.0, -2.0])
    def test_invalid_m_rejected_at_construction(self, m):
        with pytest.raises(ValueError, match="Nakagami m must be positive"):
            NakagamiFading(m=m)


class TestLinkBudget:
    def test_deterministic_without_randomness(self):
        budget = LinkBudget(path_loss=LogDistancePathLoss())
        rng = np.random.default_rng(1)
        p1 = budget.received_power_dbm(rng, 18.0, ("a", "b"),
                                       (0, 0), (10, 0))
        p2 = budget.received_power_dbm(rng, 18.0, ("a", "b"),
                                       (0, 0), (10, 0))
        assert p1 == p2

    def test_power_decreases_with_distance(self):
        budget = LinkBudget(path_loss=LogDistancePathLoss())
        rng = np.random.default_rng(1)
        near = budget.received_power_dbm(rng, 18.0, ("a", "b"),
                                         (0, 0), (2, 0))
        far = budget.received_power_dbm(rng, 18.0, ("a", "b"),
                                        (0, 0), (50, 0))
        assert near > far

    def test_antenna_gains_add(self):
        no_gain = LinkBudget(path_loss=LogDistancePathLoss(),
                             tx_antenna_gain_dbi=0.0,
                             rx_antenna_gain_dbi=0.0)
        with_gain = LinkBudget(path_loss=LogDistancePathLoss(),
                               tx_antenna_gain_dbi=3.0,
                               rx_antenna_gain_dbi=3.0)
        rng = np.random.default_rng(1)
        p0 = no_gain.received_power_dbm(rng, 18.0, ("a", "b"),
                                        (0, 0), (10, 0))
        p6 = with_gain.received_power_dbm(rng, 18.0, ("a", "b"),
                                          (0, 0), (10, 0))
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
