"""Basic Transport Protocol (EN 302 636-5-1), BTP-B flavour.

BTP adds a 4-byte header with a destination port; the facilities-layer
services each own a well-known port.  A handler gets the payload alone,
as an ETSI BTP data indication carries no PHY measurement.
"""

from __future__ import annotations

from typing import Callable, Dict, List

#: BTP header size on the wire (bytes).
BTP_HEADER_BYTES = 4

DeliveryCallback = Callable[[bytes], None]


class BtpPort:
    """Well-known BTP-B destination ports (TS 103 248)."""

    CAM = 2001
    DENM = 2002
    MAP = 2003
    SPAT = 2004
    SA = 2005
    IVI = 2006


class BtpMux:
    """Dispatches decoded GN payloads to facilities by destination port."""

    def __init__(self) -> None:
        self._handlers: Dict[int, List[DeliveryCallback]] = {}
        self.delivered = 0
        self.no_handler = 0

    def register(self, port: int, callback: DeliveryCallback) -> None:
        """Subscribe *callback* to payloads for *port*."""
        self._handlers.setdefault(port, []).append(callback)

    def dispatch(self, port: int, payload: bytes) -> bool:
        """Deliver *payload* to the handlers of *port*.

        Returns False when no handler is registered (the packet is
        dropped, mirroring a closed port).
        """
        handlers = self._handlers.get(port)
        if not handlers:
            self.no_handler += 1
            return False
        self.delivered += 1
        for callback in handlers:
            callback(payload)
        return True
