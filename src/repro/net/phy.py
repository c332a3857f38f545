"""The 802.11p OFDM PHY (10 MHz channel).

Models the pieces that matter for latency and reliability:

* the MCS rate table (3..27 Mbit/s) with modulation and coding rate;
* frame airtime: preamble + signal field + data symbols;
* SINR -> bit error rate for each modulation (standard AWGN formulas
  with a coding gain approximation) -> packet error rate.

The timing constants are the 10 MHz variants of 802.11a (all OFDM
timing doubles): 8 us symbols, 32 us preamble+SIGNAL, 13 us slots,
32 us SIFS.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Tuple

import numpy as np
from scipy import special


_SQRT2 = math.sqrt(2.0)


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * float(special.erfc(x / _SQRT2))


#: Per modulation, the AWGN bit error rate ``factor * Q(sqrt(sinr /
#: divisor))`` as ``(divisor, factor)``: BPSK Q(sqrt(2 sinr)), QPSK
#: Q(sqrt(sinr)), 16-QAM 3/4 Q(sqrt(sinr / 5)), 64-QAM 7/12
#: Q(sqrt(sinr / 21)).  Dividing by 0.5 or 1.0 and multiplying by 1.0
#: are exact, so every modulation shares one expression.
_BER_TERMS: Dict[str, Tuple[float, float]] = {
    "bpsk": (0.5, 1.0),
    "qpsk": (1.0, 1.0),
    "qam16": (5.0, 0.75),
    "qam64": (21.0, 7.0 / 12.0),
}


@dataclasses.dataclass(frozen=True)
class Mcs:
    """One modulation-and-coding scheme of the 10 MHz PHY.

    The coding gain and the modulation's BER terms are fixed at
    construction; an unknown modulation is rejected there.
    """

    data_rate_bps: float
    modulation: str          # bpsk | qpsk | qam16 | qam64
    coding_rate: float       # 1/2, 2/3, 3/4
    bits_per_symbol: int     # data bits per OFDM symbol
    _coding_gain: float = dataclasses.field(
        init=False, repr=False, compare=False)
    _ber_terms: Tuple[float, float] = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        terms = _BER_TERMS.get(self.modulation)
        if terms is None:
            raise ValueError(f"unknown modulation {self.modulation!r}")
        coding_gain_db = 5.0 * (1.0 - self.coding_rate) / 0.5
        object.__setattr__(self, "_coding_gain",
                           10.0 ** (coding_gain_db / 10.0))
        object.__setattr__(self, "_ber_terms", terms)

    @property
    def ber_constants(self) -> Tuple[float, float, float]:
        """``(coding gain, divisor, factor)`` of :meth:`bit_error_rate`."""
        divisor, factor = self._ber_terms
        return self._coding_gain, divisor, factor

    def bit_error_rate(self, sinr_linear: float) -> float:
        """Coded BER approximation for an AWGN channel at this MCS.

        Uses the uncoded BER of the modulation at the per-bit SNR and
        applies an effective coding gain (~5 dB at rate 1/2 scaling
        down with rate), a standard simulator-grade approximation.
        """
        if sinr_linear <= 0:
            return 0.5
        divisor, factor = self._ber_terms
        sinr = sinr_linear * self._coding_gain
        return factor * q_function(math.sqrt(sinr / divisor))

    def packet_error_rate(self, sinr_linear: float, size_bytes: int) -> float:
        """Probability the whole frame fails at this SINR."""
        ber = self.bit_error_rate(sinr_linear)
        bits = size_bytes * 8
        if ber <= 0.0:
            return 0.0
        # 1 - (1-ber)^bits, computed stably.
        return -math.expm1(bits * math.log1p(-min(ber, 0.5)))


def packet_error_rates(sinr_linear: np.ndarray, coding_gain: np.ndarray,
                       divisor: np.ndarray, factor: np.ndarray,
                       size_bytes: int) -> np.ndarray:
    """:meth:`Mcs.packet_error_rate` of one frame at many receivers.

    *sinr_linear* (>= 0) and each receiver's :attr:`Mcs.ber_constants`
    are arrays.  The BER takes the scalar path's operations in its
    order, so it matches bit for bit; numpy's ``log1p`` and ``expm1``
    may differ from :mod:`math`'s in the last bit.
    """
    sinr = sinr_linear * coding_gain
    ber = factor * (0.5 * special.erfc(np.sqrt(sinr / divisor) / _SQRT2))
    ber = np.where(sinr_linear > 0.0, ber, 0.5)
    # 0.0 - (-0.0): a BER of 0.0 gives a PER of +0.0, as the scalar does.
    return 0.0 - np.expm1(size_bytes * 8 * np.log1p(-np.minimum(ber, 0.5)))


class McsTable:
    """The eight MCS entries of the 10 MHz 802.11p PHY."""

    ENTRIES: Dict[float, Mcs] = {
        3.0e6: Mcs(3.0e6, "bpsk", 1 / 2, 24),
        4.5e6: Mcs(4.5e6, "bpsk", 3 / 4, 36),
        6.0e6: Mcs(6.0e6, "qpsk", 1 / 2, 48),
        9.0e6: Mcs(9.0e6, "qpsk", 3 / 4, 72),
        12.0e6: Mcs(12.0e6, "qam16", 1 / 2, 96),
        18.0e6: Mcs(18.0e6, "qam16", 3 / 4, 144),
        24.0e6: Mcs(24.0e6, "qam64", 2 / 3, 192),
        27.0e6: Mcs(27.0e6, "qam64", 3 / 4, 216),
    }

    #: The ITS-G5 default data rate (QPSK 1/2).
    DEFAULT_RATE = 6.0e6

    @classmethod
    def get(cls, data_rate_bps: float) -> Mcs:
        """The :class:`Mcs` for a data rate; raises on unknown rates."""
        try:
            return cls.ENTRIES[data_rate_bps]
        except KeyError:
            raise ValueError(
                f"unsupported data rate {data_rate_bps}; choose from "
                f"{sorted(cls.ENTRIES)}"
            ) from None


#: Boltzmann constant (J/K) for thermal noise.
BOLTZMANN = 1.380649e-23


@dataclasses.dataclass(frozen=True)
class PhyConfig:
    """Static PHY parameters of a station.

    The defaults match the paper's hardware class (Compex WLE200NX,
    ~18 dBm transmit power) on the ITS-G5 control channel.
    """

    data_rate_bps: float = McsTable.DEFAULT_RATE
    tx_power_dbm: float = 18.0
    bandwidth_hz: float = 10e6
    noise_figure_db: float = 6.0
    #: Energy-detection carrier-sense threshold.
    cs_threshold_dbm: float = -85.0
    #: Minimum received power to attempt decoding at all.
    rx_sensitivity_dbm: float = -94.0
    #: OFDM symbol duration at 10 MHz (s).
    symbol_duration: float = 8e-6
    #: PLCP preamble + SIGNAL field at 10 MHz (s).
    preamble_duration: float = 40e-6

    @property
    def mcs(self) -> Mcs:
        """The configured modulation-and-coding scheme."""
        return McsTable.get(self.data_rate_bps)

    @property
    def noise_power_dbm(self) -> float:
        """Thermal noise power + noise figure over the channel bandwidth."""
        noise_w = BOLTZMANN * 290.0 * self.bandwidth_hz
        return 10.0 * math.log10(noise_w * 1000.0) + self.noise_figure_db

    def airtime(self, wire_size_bytes: int) -> float:
        """Time on air for a frame of *wire_size_bytes* (s).

        16 service bits + 6 tail bits are appended before padding to a
        whole number of OFDM symbols.
        """
        data_bits = wire_size_bytes * 8 + 16 + 6
        symbols = math.ceil(data_bits / self.mcs.bits_per_symbol)
        return self.preamble_duration + symbols * self.symbol_duration
