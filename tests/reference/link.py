"""Reference oracle for the link math of the medium.

A verbatim copy of the received-power, SINR -> BER -> PER and
local-frame code of :mod:`repro.net.phy`, :mod:`repro.net.propagation`
and :mod:`repro.geonet.position` as it was before those classes fixed
their constants at construction: every call re-derives the coding
gain, re-selects the modulation branch, recomputes the reference path
loss, ``10 n`` and ``cos(lat0)``, and an unknown modulation is only
found at the first :meth:`ReferenceMcs.bit_error_rate`.  The only
departures: the classes carry a ``Reference`` prefix, the MCS table is
a module-level dict, :class:`ReferenceLocalFrame` builds
:class:`~repro.geonet.position.GeoPosition` values (a plain value
type), and :class:`ReferenceLinkBudget` takes the shadowing and
fading models from :mod:`repro.net.propagation` for their parameters
alone: their values come from the caller's keyed draw,
:class:`tests.reference.keyed.ReferenceKeyedReception`.

Used by the differential tests ``tests/test_link_reference.py`` and,
through :mod:`tests.reference.medium`, ``tests/test_medium_reference.py``.
Do not optimise this file: its value is being the old,
obviously-correct code.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Optional, Tuple

from scipy import special

from repro.geonet.position import EARTH_RADIUS, GeoPosition
from repro.net.propagation import NakagamiFading, ShadowingModel

#: Speed of light (m/s).
SPEED_OF_LIGHT = 299_792_458.0

#: ITS-G5 control channel centre frequency (Hz).
ITS_G5_FREQUENCY_HZ = 5.9e9


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * float(special.erfc(x / math.sqrt(2.0)))


@dataclasses.dataclass(frozen=True)
class ReferenceMcs:
    """One modulation-and-coding scheme of the 10 MHz PHY."""

    data_rate_bps: float
    modulation: str          # bpsk | qpsk | qam16 | qam64
    coding_rate: float       # 1/2, 2/3, 3/4
    bits_per_symbol: int     # data bits per OFDM symbol

    def bit_error_rate(self, sinr_linear: float) -> float:
        """Coded BER approximation for an AWGN channel at this MCS.

        Uses the uncoded BER of the modulation at the per-bit SNR and
        applies an effective coding gain (~5 dB at rate 1/2 scaling
        down with rate), a standard simulator-grade approximation.
        """
        if sinr_linear <= 0:
            return 0.5
        coding_gain_db = 5.0 * (1.0 - self.coding_rate) / 0.5
        sinr = sinr_linear * 10.0 ** (coding_gain_db / 10.0)
        if self.modulation == "bpsk":
            return q_function(math.sqrt(2.0 * sinr))
        if self.modulation == "qpsk":
            return q_function(math.sqrt(sinr))
        if self.modulation == "qam16":
            return 0.75 * q_function(math.sqrt(sinr / 5.0))
        if self.modulation == "qam64":
            return (7.0 / 12.0) * q_function(math.sqrt(sinr / 21.0))
        raise ValueError(f"unknown modulation {self.modulation!r}")

    def packet_error_rate(self, sinr_linear: float, size_bytes: int) -> float:
        """Probability the whole frame fails at this SINR."""
        ber = self.bit_error_rate(sinr_linear)
        bits = size_bytes * 8
        if ber <= 0.0:
            return 0.0
        # 1 - (1-ber)^bits, computed stably.
        return -math.expm1(bits * math.log1p(-min(ber, 0.5)))


#: The eight MCS entries of the 10 MHz 802.11p PHY, by data rate.
MCS_TABLE: Dict[float, ReferenceMcs] = {
    3.0e6: ReferenceMcs(3.0e6, "bpsk", 1 / 2, 24),
    4.5e6: ReferenceMcs(4.5e6, "bpsk", 3 / 4, 36),
    6.0e6: ReferenceMcs(6.0e6, "qpsk", 1 / 2, 48),
    9.0e6: ReferenceMcs(9.0e6, "qpsk", 3 / 4, 72),
    12.0e6: ReferenceMcs(12.0e6, "qam16", 1 / 2, 96),
    18.0e6: ReferenceMcs(18.0e6, "qam16", 3 / 4, 144),
    24.0e6: ReferenceMcs(24.0e6, "qam64", 2 / 3, 192),
    27.0e6: ReferenceMcs(27.0e6, "qam64", 3 / 4, 216),
}


def free_space_path_loss_db(distance: float, frequency_hz: float) -> float:
    """Friis free-space path loss in dB for *distance* metres."""
    if distance <= 0:
        return 0.0
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return 20.0 * math.log10(4.0 * math.pi * distance / wavelength)


@dataclasses.dataclass(frozen=True)
class ReferenceFreeSpace:
    """Friis free-space model; adequate for the short LoS lab link."""

    frequency_hz: float = ITS_G5_FREQUENCY_HZ

    def path_loss_db(self, distance: float) -> float:
        return free_space_path_loss_db(distance, self.frequency_hz)


@dataclasses.dataclass(frozen=True)
class ReferenceTwoRay:
    """Two-ray ground-reflection model."""

    tx_height: float = 1.5
    rx_height: float = 1.5
    frequency_hz: float = ITS_G5_FREQUENCY_HZ

    @property
    def crossover_distance(self) -> float:
        """Where the model switches from free space to fourth power."""
        wavelength = SPEED_OF_LIGHT / self.frequency_hz
        return 4.0 * math.pi * self.tx_height * self.rx_height / wavelength

    def path_loss_db(self, distance: float) -> float:
        if distance <= 0:
            return 0.0
        if distance <= self.crossover_distance:
            return free_space_path_loss_db(distance, self.frequency_hz)
        return (40.0 * math.log10(distance)
                - 10.0 * math.log10(self.tx_height ** 2
                                    * self.rx_height ** 2))


@dataclasses.dataclass(frozen=True)
class ReferenceLogDistance:
    """Log-distance model with reference distance d0."""

    exponent: float = 2.2
    reference_distance: float = 1.0
    frequency_hz: float = ITS_G5_FREQUENCY_HZ

    def path_loss_db(self, distance: float) -> float:
        d = max(distance, self.reference_distance)
        reference_loss = free_space_path_loss_db(
            self.reference_distance, self.frequency_hz)
        return reference_loss + 10.0 * self.exponent * math.log10(
            d / self.reference_distance)


@dataclasses.dataclass
class ReferenceLinkBudget:
    """Combines the pieces into a received-power computation."""

    path_loss: ReferenceLogDistance = dataclasses.field(
        default_factory=ReferenceLogDistance)
    shadowing: Optional[ShadowingModel] = None
    fading: Optional[NakagamiFading] = None
    tx_antenna_gain_dbi: float = 3.0
    rx_antenna_gain_dbi: float = 3.0

    def received_power_dbm(
        self,
        draw: Any,
        tx_power_dbm: float,
        link: Tuple[str, str],
        sequence: int,
        tx_pos: Tuple[float, float],
        rx_pos: Tuple[float, float],
    ) -> float:
        """Received power (dBm) of the sender's frame number *sequence*
        on *link*; *draw* keys the shadowing and fading."""
        distance = _dist(tx_pos, rx_pos)
        power = (tx_power_dbm + self.tx_antenna_gain_dbi
                 + self.rx_antenna_gain_dbi
                 - self.path_loss.path_loss_db(distance))
        if self.shadowing is not None:
            power -= draw.shadowing_db(self.shadowing, link, tx_pos, rx_pos)
        if self.fading is not None:
            power += 10.0 * math.log10(
                draw.fading_gain(self.fading.m, link, sequence))
        return power


def dbm_to_mw(dbm: float) -> float:
    """dBm -> milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Milliwatts -> dBm (-inf for zero power)."""
    if mw <= 0.0:
        return -math.inf
    return 10.0 * math.log10(mw)


def _dist(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclasses.dataclass(frozen=True)
class ReferenceLocalFrame:
    """A flat metric frame anchored at a geodetic origin."""

    origin: GeoPosition = GeoPosition(41.17867, -8.60782)

    def to_geo(self, x: float, y: float) -> GeoPosition:
        """Local metres -> geodetic degrees."""
        lat0 = math.radians(self.origin.latitude)
        d_lat = (y / EARTH_RADIUS) * (180.0 / math.pi)
        d_lon = (x / (EARTH_RADIUS * math.cos(lat0))) * (180.0 / math.pi)
        return GeoPosition(self.origin.latitude + d_lat,
                           self.origin.longitude + d_lon)

    def to_local(self, position: GeoPosition) -> Tuple[float, float]:
        """Geodetic degrees -> local metres."""
        lat0 = math.radians(self.origin.latitude)
        d_lat = math.radians(position.latitude - self.origin.latitude)
        d_lon = math.radians(position.longitude - self.origin.longitude)
        return (d_lon * EARTH_RADIUS * math.cos(lat0),
                d_lat * EARTH_RADIUS)
