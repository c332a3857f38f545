"""Reference oracle for the keyed (order-free) reception path.

The fleet medium computes a frame's link math for all receivers in one
numpy pass and draws each receiver's packet-error check from a keyed
splitmix64 in ``uint64`` arrays.  This module is the same thing one
reception at a time in plain Python: the splitmix64 on Python ints
masked to 64 bits, and the link math with :mod:`math` through
:mod:`tests.reference.link`.  :class:`tests.reference.medium.ReferenceMedium`
takes :class:`ReferenceKeyedReception` as its draw, which makes it the
scalar twin of the keyed medium.

Used by ``tests/test_keyed_reference.py``.  Do not optimise this file:
its value is being the obvious code.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from tests.reference.link import (
    MCS_TABLE,
    ReferenceLinkBudget,
    dbm_to_mw,
)

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """The splitmix64 output mix (Steele, Lea and Flood, OOPSLA 2014)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def station_key(name: str) -> int:
    """A station's 64-bit key: its name's SHA-256, first 8 bytes LE."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class ReferenceKeyedReception:
    """The keyed splitmix64 draw of one (transmission, receiver) pair."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def uniform(self, sender: str, sequence: int, receiver: str) -> float:
        """A U[0, 1) value unique to one (transmission, receiver) pair."""
        seed_key = mix64(self.seed & MASK64)
        state = ((seed_key ^ station_key(sender))
                 + (sequence + 1) * GAMMA) & MASK64
        frame_key = mix64(state)
        z = mix64(frame_key ^ station_key(receiver))
        top53 = z >> 11
        return top53 / 2.0 ** 53


def reception(budget: ReferenceLinkBudget, tx_power_dbm: float,
              tx_pos: Tuple[float, float], rx_pos: Tuple[float, float],
              noise_mw: float, interference_mw: float,
              data_rate_bps: float, size_bytes: int,
              ) -> Tuple[float, float]:
    """(rx power in dBm, PER) of one reception, computed with math.

    *budget* has no shadowing and no fading, so it draws nothing.
    """
    power = budget.received_power_dbm(
        None, tx_power_dbm, ("tx", "rx"), tx_pos, rx_pos)  # type: ignore
    sinr = dbm_to_mw(power) / (noise_mw + interference_mw)
    per = MCS_TABLE[data_rate_bps].packet_error_rate(sinr, size_bytes)
    return power, per
