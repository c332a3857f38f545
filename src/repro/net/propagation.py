"""Radio propagation models.

Received power is computed as::

    P_rx[dBm] = P_tx[dBm] + G_tx + G_rx - PL(d) - X_sigma

where ``PL(d)`` is the deterministic path loss, ``X_sigma`` a
log-normal shadowing term, and (optionally) a Nakagami-*m* small-scale
fading factor multiplies the linear received power.  These are the
models the paper's outlook calls for ("further work is required to
properly model attenuation, either by interference or shadowing
caused by own vehicle or others").

Shadowing is drawn per (transmitter, receiver) link and re-drawn when
either endpoint moves more than the decorrelation distance, which
approximates spatially correlated shadowing without a full Gudmundson
process.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Tuple

import numpy as np

#: Speed of light (m/s).
SPEED_OF_LIGHT = 299_792_458.0

#: ITS-G5 control channel centre frequency (Hz).
ITS_G5_FREQUENCY_HZ = 5.9e9


def free_space_path_loss_db(distance: float, frequency_hz: float) -> float:
    """Friis free-space path loss in dB for *distance* metres."""
    if distance <= 0:
        return 0.0
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return 20.0 * math.log10(4.0 * math.pi * distance / wavelength)


class PropagationModel:
    """Base class: maps (tx position, rx position) to path loss in dB."""

    def path_loss_db(self, distance: float) -> float:
        """Deterministic path loss for a link of *distance* metres."""
        raise NotImplementedError

    def path_loss_db_array(self, distance: np.ndarray) -> np.ndarray:
        """:meth:`path_loss_db` of every entry of *distance*."""
        return np.array([self.path_loss_db(d) for d in distance.tolist()],
                        dtype=np.float64)


@dataclasses.dataclass(frozen=True)
class FreeSpacePathLoss(PropagationModel):
    """Friis free-space model; adequate for the short LoS lab link."""

    frequency_hz: float = ITS_G5_FREQUENCY_HZ

    def path_loss_db(self, distance: float) -> float:
        return free_space_path_loss_db(distance, self.frequency_hz)


@dataclasses.dataclass(frozen=True)
class TwoRayGroundPathLoss(PropagationModel):
    """Two-ray ground-reflection model.

    The classic vehicular model: below the crossover distance
    ``d_c = 4 pi h_t h_r / lambda`` it behaves like free space; beyond
    it the direct and ground-reflected rays interfere destructively
    and the loss steepens to ``40 log10(d)`` with antenna-height gain::

        PL(d) = 40 log10(d) - 10 log10(h_t^2 h_r^2)    for d > d_c

    Appropriate for flat open road at ITS antenna heights.
    """

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
class LogDistancePathLoss(PropagationModel):
    """Log-distance model with reference distance d0.

    ``PL(d) = PL(d0) + 10 n log10(d / d0)``; typical vehicular exponents
    are n=2.0 (open LoS) to 3.0+ (obstructed urban).
    """

    exponent: float = 2.2
    reference_distance: float = 1.0
    frequency_hz: float = ITS_G5_FREQUENCY_HZ
    #: PL(d0) and 10 n, fixed at construction.
    _reference_loss: float = dataclasses.field(
        init=False, repr=False, compare=False)
    _ten_n: float = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.reference_distance <= 0:
            raise ValueError("reference_distance must be positive, got "
                             f"{self.reference_distance}")
        object.__setattr__(self, "_reference_loss", free_space_path_loss_db(
            self.reference_distance, self.frequency_hz))
        object.__setattr__(self, "_ten_n", 10.0 * self.exponent)

    def path_loss_db(self, distance: float) -> float:
        d0 = self.reference_distance
        return self._reference_loss + self._ten_n * math.log10(
            max(distance, d0) / d0)

    def path_loss_db_array(self, distance: np.ndarray) -> np.ndarray:
        d0 = self.reference_distance
        return self._reference_loss + self._ten_n * np.log10(
            np.maximum(distance, d0) / d0)


@dataclasses.dataclass
class ShadowingModel:
    """Log-normal shadowing with spatial decorrelation.

    A shadowing value (dB) is drawn per directed link and kept until
    either endpoint moves more than ``decorrelation_distance`` from
    where the value was drawn.
    """

    sigma_db: float = 0.0
    decorrelation_distance: float = 10.0

    def __post_init__(self) -> None:
        self._cache: Dict[Tuple[str, str],
                          Tuple[Tuple[float, float],
                                Tuple[float, float], float]] = {}

    def shadowing_db(
        self,
        rng: np.random.Generator,
        link: Tuple[str, str],
        tx_pos: Tuple[float, float],
        rx_pos: Tuple[float, float],
    ) -> float:
        """Shadowing (dB) for *link* with endpoints at the given positions."""
        if self.sigma_db <= 0:
            return 0.0
        cached = self._cache.get(link)
        if cached is not None:
            old_tx, old_rx, value = cached
            if (_dist(old_tx, tx_pos) < self.decorrelation_distance
                    and _dist(old_rx, rx_pos) < self.decorrelation_distance):
                return value
        value = float(rng.normal(0.0, self.sigma_db))
        self._cache[link] = (tx_pos, rx_pos, value)
        return value


@dataclasses.dataclass(frozen=True)
class NakagamiFading:
    """Nakagami-*m* small-scale fading.

    The received *linear* power is multiplied by a Gamma(m, 1/m)
    variate (unit mean).  ``m = 1`` is Rayleigh fading; ``m -> inf``
    approaches no fading.  Vehicular measurements commonly report
    m ~ 3 near LoS and m ~ 1 at long range.
    """

    m: float = 3.0

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise ValueError(f"Nakagami m must be positive, got {self.m}")

    def power_gain(self, rng: np.random.Generator) -> float:
        """Draw a unit-mean power gain."""
        return float(rng.gamma(self.m, 1.0 / self.m))


@dataclasses.dataclass
class LinkBudget:
    """Combines the pieces into a received-power computation."""

    path_loss: PropagationModel = dataclasses.field(
        default_factory=LogDistancePathLoss)
    shadowing: Optional[ShadowingModel] = None
    fading: Optional[NakagamiFading] = None
    tx_antenna_gain_dbi: float = 3.0
    rx_antenna_gain_dbi: float = 3.0

    def received_power_dbm(
        self,
        rng: np.random.Generator,
        tx_power_dbm: float,
        link: Tuple[str, str],
        tx_pos: Tuple[float, float],
        rx_pos: Tuple[float, float],
    ) -> float:
        """Received power (dBm) for one frame on *link*."""
        distance = _dist(tx_pos, rx_pos)
        power = (tx_power_dbm + self.tx_antenna_gain_dbi
                 + self.rx_antenna_gain_dbi
                 - self.path_loss.path_loss_db(distance))
        if self.shadowing is not None:
            power -= self.shadowing.shadowing_db(rng, link, tx_pos, rx_pos)
        if self.fading is not None:
            power += 10.0 * math.log10(self.fading.power_gain(rng))
        return power

    def received_powers_dbm(self, tx_power_dbm: float,
                            tx_pos: Tuple[float, float], rx_x: np.ndarray,
                            rx_y: np.ndarray) -> np.ndarray:
        """:meth:`received_power_dbm` at receivers (*rx_x*, *rx_y*).

        The same operations in the same order, on arrays; numpy's
        ``hypot`` and ``log10`` may differ from :mod:`math`'s in the
        last bit.  Only for a budget with no shadowing and no fading:
        those draw per link from a shared generator, in link order.
        """
        if self.shadowing is not None or self.fading is not None:
            raise ValueError("received_powers_dbm needs a budget without "
                             "shadowing or fading")
        distance = np.hypot(tx_pos[0] - rx_x, tx_pos[1] - rx_y)
        return (tx_power_dbm + self.tx_antenna_gain_dbi
                + self.rx_antenna_gain_dbi
                - self.path_loss.path_loss_db_array(distance))


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
