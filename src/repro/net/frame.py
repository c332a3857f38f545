"""MAC frames and access categories."""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Optional


class AccessCategory(enum.IntEnum):
    """EDCA access categories, highest priority first.

    ETSI ITS maps DENMs to AC_VO and CAMs to AC_VI (TS 102 636-4-2
    traffic classes); background traffic uses AC_BE / AC_BK.
    """

    AC_VO = 0
    AC_VI = 1
    AC_BE = 2
    AC_BK = 3


#: MAC + LLC overhead added to every payload (bytes): 802.11 header
#: (24) + QoS (2) + LLC/SNAP (8) + FCS (4).
MAC_OVERHEAD_BYTES = 38


@dataclasses.dataclass
class Frame:
    """A broadcast MAC frame.

    ``payload`` is opaque to the MAC; the GeoNetworking router places
    encoded packets here.  ``size`` is the payload size in bytes; the
    PHY adds MAC overhead when computing airtime.
    """

    payload: Any
    size: int
    source: str
    category: AccessCategory = AccessCategory.AC_BE
    enqueued_at: Optional[float] = None

    @property
    def wire_size(self) -> int:
        """Total bytes on the air including MAC/LLC overhead."""
        return self.size + MAC_OVERHEAD_BYTES
