"""Tests for the 802.11p PHY model."""

import numpy as np
import pytest

from repro.net.phy import Mcs, McsTable, PhyConfig, packet_error_rates


def per(mcs, sinr, size):
    """One receiver's packet error rate at *mcs*."""
    constants = np.array([mcs.ber_constants]).T
    return packet_error_rates(np.array([sinr]), *constants, size).item()


class TestMcsTable:
    def test_eight_rates(self):
        assert len(McsTable.ENTRIES) == 8

    def test_default_rate_is_qpsk_half(self):
        mcs = McsTable.get(McsTable.DEFAULT_RATE)
        assert mcs.modulation == "qpsk"
        assert mcs.coding_rate == pytest.approx(0.5)

    def test_unknown_rate_rejected(self):
        with pytest.raises(ValueError, match="unsupported data rate"):
            McsTable.get(5.5e6)

    def test_bits_per_symbol_consistent_with_rate(self):
        # data_rate = bits_per_symbol / symbol_duration (8 us).
        for rate, mcs in McsTable.ENTRIES.items():
            assert mcs.bits_per_symbol / 8e-6 == pytest.approx(rate)


class TestBer:
    # The BER is seen through the PER of a fixed-size frame, which is
    # monotone in it: 1 - (1 - ber)**bits.

    def test_ber_decreases_with_sinr(self):
        mcs = McsTable.get(6e6)
        pers = [per(mcs, 10 ** (snr / 10.0), 100)
                for snr in range(-5, 30, 5)]
        assert all(a >= b for a, b in zip(pers, pers[1:]))

    def test_zero_sinr_is_half(self):
        # A one-byte frame survives a BER of 0.5 with 2**-8.
        assert per(McsTable.get(6e6), 0.0, 1) == pytest.approx(
            1.0 - 0.5 ** 8)

    def test_higher_order_modulation_needs_more_snr(self):
        sinr = 10 ** (10.0 / 10.0)  # 10 dB
        qpsk = per(McsTable.get(6e6), sinr, 100)
        qam64 = per(McsTable.get(27e6), sinr, 100)
        assert qam64 > qpsk

    def test_unknown_modulation_rejected(self):
        # At construction, not at the first PER (which an SINR <= 0
        # would never reach).
        with pytest.raises(ValueError, match="unknown modulation 'qam1024'"):
            Mcs(1e6, "qam1024", 0.5, 10)


class TestPer:
    def test_per_increases_with_size(self):
        mcs = McsTable.get(6e6)
        sinr = 10 ** (0.6)  # ~6 dB, lossy region
        small = per(mcs, sinr, 50)
        large = per(mcs, sinr, 1500)
        assert large > small

    def test_per_bounds(self):
        mcs = McsTable.get(6e6)
        assert per(mcs, 10 ** 5.0, 100) == pytest.approx(0.0, abs=1e-9)
        assert 0.99 < per(mcs, 1e-3, 1500) <= 1.0

    def test_good_sinr_reliable_delivery(self):
        # 25 dB SINR: a short safety message should essentially always
        # get through.
        assert per(McsTable.get(6e6), 10 ** 2.5, 100) < 1e-6


class TestPhyConfig:
    def test_noise_floor_for_10mhz(self):
        config = PhyConfig()
        # kTB for 10 MHz ~ -104 dBm; +6 dB NF -> ~ -98 dBm.
        assert -99.0 < config.noise_power_dbm < -97.0

    def test_airtime_known_frame(self):
        config = PhyConfig()  # 6 Mbps, 48 bits/symbol
        # 100 bytes -> 822 bits incl. service+tail -> 18 symbols.
        airtime = config.airtime(100)
        assert airtime == pytest.approx(40e-6 + 18 * 8e-6)

    def test_airtime_monotone_in_size(self):
        config = PhyConfig()
        assert config.airtime(400) > config.airtime(100)

    def test_airtime_faster_at_higher_rate(self):
        slow = PhyConfig(data_rate_bps=3e6)
        fast = PhyConfig(data_rate_bps=27e6)
        assert fast.airtime(500) < slow.airtime(500)

    def test_mcs_property(self):
        assert PhyConfig(data_rate_bps=12e6).mcs.modulation == "qam16"
