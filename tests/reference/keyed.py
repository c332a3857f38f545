"""Reference oracle for the keyed reception path.

The medium computes a frame's link math for all receivers in one numpy
pass and draws each receiver's packet-error check, fading gain and
link shadowing from a keyed splitmix64 in ``uint64`` arrays.  This
module is the same thing one reception at a time in plain Python: the
splitmix64 on Python ints masked to 64 bits, the inverse CDFs as
:mod:`scipy.special` scalars, and the link math with :mod:`math`
through :mod:`tests.reference.link`.
:class:`tests.reference.medium.ReferenceMedium` takes
:class:`ReferenceKeyedReception` as its draw, which makes it the
scalar twin of the medium.

Used by ``tests/test_keyed_reference.py``, ``tests/test_link_reference.py``
and ``tests/test_medium_reference.py``.  Do not optimise this file: its
value is being the obvious code.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, Tuple

from scipy import special

from tests.reference.link import (
    MCS_TABLE,
    ReferenceLinkBudget,
    dbm_to_mw,
)

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
#: The first two SHA-512 initial hash words: the fading and shadowing
#: streams' salts.
FADING_SALT = 0x6A09E667F3BCC908
SHADOWING_SALT = 0xBB67AE8584CAA73B

Point = Tuple[float, float]


def mix64(z: int) -> int:
    """The splitmix64 output mix (Steele, Lea and Flood, OOPSLA 2014)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def station_key(name: str) -> int:
    """A station's 64-bit key: its name's SHA-256, first 8 bytes LE."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def open_unit(z: int) -> float:
    """A 64-bit value as a uniform in the open interval (0, 1): its top
    52 bits plus one half, over 2**52."""
    top52 = z >> 12
    return (top52 + 0.5) / 2.0 ** 52


class ReferenceKeyedReception:
    """The keyed splitmix64 draws of one medium, and the per-link
    shadowing state they feed."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        #: (sender, receiver) -> (tx position, rx position, epoch, dB)
        self.shadowing: Dict[Tuple[str, str],
                             Tuple[Point, Point, int, float]] = {}

    def frame_key(self, sender: str, sequence: int) -> int:
        """The key of the sender's transmission number *sequence*."""
        seed_key = mix64(self.seed & MASK64)
        state = ((seed_key ^ station_key(sender))
                 + (sequence + 1) * GAMMA) & MASK64
        return mix64(state)

    def uniform(self, sender: str, sequence: int, receiver: str) -> float:
        """A U[0, 1) value unique to one (transmission, receiver) pair."""
        z = mix64(self.frame_key(sender, sequence) ^ station_key(receiver))
        top53 = z >> 11
        return top53 / 2.0 ** 53

    def fading_uniform(self, sender: str, sequence: int,
                       receiver: str) -> float:
        """The U(0, 1) fading value of one (transmission, receiver)."""
        fading_key = mix64(self.frame_key(sender, sequence) ^ FADING_SALT)
        return open_unit(mix64(fading_key ^ station_key(receiver)))

    def link_uniform(self, sender: str, receiver: str, epoch: int) -> float:
        """The U(0, 1) value of a link's shadowing epoch *epoch*."""
        seed_key = mix64(self.seed & MASK64)
        state = ((seed_key ^ station_key(sender) ^ SHADOWING_SALT)
                 + (epoch + 1) * GAMMA) & MASK64
        return open_unit(mix64(mix64(state) ^ station_key(receiver)))

    def fading_gain(self, m: float, link: Tuple[str, str],
                    sequence: int) -> float:
        """The Nakagami-*m* power gain of the sender's frame *sequence*
        at the receiver: the Gamma(m, 1/m) inverse CDF."""
        sender, receiver = link
        u = self.fading_uniform(sender, sequence, receiver)
        return float(special.gammaincinv(m, u)) / m

    def shadowing_db(self, model: Any, link: Tuple[str, str],
                     tx_pos: Point, rx_pos: Point) -> float:
        """The link's shadowing (dB) under *model* (a
        :class:`~repro.net.propagation.ShadowingModel`, read for its
        parameters): kept while both endpoints stay within the
        decorrelation distance of where it was drawn, redrawn with the
        next epoch otherwise."""
        if model.sigma_db <= 0:
            return 0.0
        epoch = 0
        if link in self.shadowing:
            old_tx, old_rx, epoch, value = self.shadowing[link]
            near = model.decorrelation_distance
            if (math.hypot(old_tx[0] - tx_pos[0], old_tx[1] - tx_pos[1])
                    < near and math.hypot(old_rx[0] - rx_pos[0],
                                          old_rx[1] - rx_pos[1]) < near):
                return value
            epoch = epoch + 1
        u = self.link_uniform(link[0], link[1], epoch)
        value = model.sigma_db * float(special.ndtri(u))
        self.shadowing[link] = (tx_pos, rx_pos, epoch, value)
        return value


def reception(budget: ReferenceLinkBudget, tx_power_dbm: float,
              tx_pos: Point, rx_pos: Point,
              noise_mw: float, interference_mw: float,
              data_rate_bps: float, size_bytes: int,
              ) -> Tuple[float, float]:
    """(rx power in dBm, PER) of one reception, computed with math.

    *budget* has no shadowing and no fading, so it draws nothing.
    """
    power = budget.received_power_dbm(
        None, tx_power_dbm, ("tx", "rx"), 0, tx_pos, rx_pos)
    sinr = dbm_to_mw(power) / (noise_mw + interference_mw)
    per = MCS_TABLE[data_rate_bps].packet_error_rate(sinr, size_bytes)
    return power, per
