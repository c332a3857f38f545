"""A network interface: MAC + PHY bound to a position on the medium.

The NIC is what upper layers (the GeoNetworking router) talk to:
``send(frame)`` queues for EDCA access; a receive callback delivers
decoded frames with reception metadata.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.net.frame import Frame
from repro.net.mac import EdcaMac
from repro.net.medium import ReceptionInfo, WirelessMedium
from repro.net.phy import PhyConfig
from repro.sim.kernel import Simulator

PositionFn = Callable[[], Tuple[float, float]]
RxCallback = Callable[[Frame, ReceptionInfo], None]
LossCallback = Callable[[Frame, str], None]


class NetworkInterface:
    """One 802.11p radio.

    Args:
        sim: the simulation kernel.
        medium: the shared channel.
        name: unique station identifier (used as MAC address).
        position: callable returning the antenna's (x, y) in metres;
            for mobile stations this reads the vehicle's live pose.
        phy: PHY parameters (power, rate, sensitivity).
        rng: randomness for MAC backoff.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: WirelessMedium,
        name: str,
        position: PositionFn,
        phy: Optional[PhyConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.sim = sim
        self.medium = medium
        self.name = name
        self.position = position
        self.phy = phy or PhyConfig()
        self.mac = EdcaMac(sim, rng or np.random.default_rng(0), self)
        self._rx_callbacks: List[RxCallback] = []
        self._loss_callbacks: List[LossCallback] = []
        self.frames_received = 0
        self.frames_lost = 0
        medium.attach(self)

    # ------------------------------------------------------------------
    # Upper layer API
    # ------------------------------------------------------------------

    def send(self, frame: Frame) -> bool:
        """Queue *frame* for channel access.  False if tail-dropped."""
        frame.source = self.name
        return self.mac.enqueue(frame)

    def on_receive(self, callback: RxCallback) -> None:
        """Register a callback for successfully decoded frames."""
        self._rx_callbacks.append(callback)

    def on_loss(self, callback: LossCallback) -> None:
        """Register a callback for frames heard but not decoded."""
        self._loss_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Medium-side API
    # ------------------------------------------------------------------

    def start_transmission(self, frame: Frame) -> float:
        """Called by the MAC; puts the frame on the air."""
        return self.medium.transmit(self, frame)

    def deliver(self, frame: Frame, info: ReceptionInfo) -> None:
        """Called by the medium on successful decode."""
        self.frames_received += 1
        for callback in self._rx_callbacks:
            callback(frame, info)

    def on_frame_lost(self, frame: Frame, reason: str) -> None:
        """Called by the medium when a frame could not be decoded."""
        self.frames_lost += 1
        obs = self.sim.obs
        if obs is not None:
            obs.count("phy.frames_lost", device=self.name, reason=reason)
        for callback in self._loss_callbacks:
            callback(frame, reason)
