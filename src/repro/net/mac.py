"""EDCA (CSMA/CA) MAC in OCB mode.

802.11p stations operate Outside the Context of a BSS: no association,
no authentication, and safety messages are broadcast -- which means no
ACKs and no retransmissions.  Channel access is EDCA:

* four access categories, each with its own AIFS and contention window;
* a station that finds the medium idle for AIFS transmits immediately;
* a station that finds it busy draws a backoff from [0, CW] and counts
  down in slot times while the medium is idle, freezing while busy.

Timing constants are the 10 MHz values: slot 13 us, SIFS 32 us.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

import numpy as np

from repro.net.frame import AccessCategory, Frame
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.nic import NetworkInterface

#: Slot time for the 10 MHz PHY (s).
SLOT_TIME = 13e-6

#: SIFS for the 10 MHz PHY (s).
SIFS = 32e-6


@dataclasses.dataclass(frozen=True)
class EdcaParameters:
    """Per-access-category channel access parameters."""

    aifsn: int
    cw_min: int
    cw_max: int

    @property
    def aifs(self) -> float:
        """The arbitration inter-frame space (s)."""
        return SIFS + self.aifsn * SLOT_TIME


#: EDCA parameter set for ITS-G5 (EN 302 663, table B.2).
EDCA_PARAMETERS: Dict[AccessCategory, EdcaParameters] = {
    AccessCategory.AC_VO: EdcaParameters(aifsn=2, cw_min=3, cw_max=7),
    AccessCategory.AC_VI: EdcaParameters(aifsn=3, cw_min=7, cw_max=15),
    AccessCategory.AC_BE: EdcaParameters(aifsn=6, cw_min=15, cw_max=1023),
    AccessCategory.AC_BK: EdcaParameters(aifsn=9, cw_min=15, cw_max=1023),
}


class EdcaMac:
    """One station's EDCA state machine (broadcast-only, OCB mode).

    The MAC owns four FIFO queues; the highest-priority non-empty
    queue contends for the channel.  Internal collisions cannot occur
    in this simplified model because only one queue contends at a
    time -- a deliberate simplification that matches single-service
    OBU/RSU deployments like the paper's.
    """

    _IDLE = "idle"
    _DEFER = "defer"
    _TX = "tx"

    def __init__(self, sim: Simulator, rng: np.random.Generator,
                 nic: "NetworkInterface"):
        self.sim = sim
        self.rng = rng
        self.nic = nic
        self._queues: Dict[AccessCategory, Deque[Frame]] = {
            category: deque() for category in AccessCategory
        }
        self._state = self._IDLE
        self._token = 0
        self._backoff_remaining = 0
        self._backoff_drawn = False
        self._current: Optional[Frame] = None
        # Statistics
        self.frames_enqueued = 0
        self.frames_transmitted = 0
        self.frames_dropped = 0
        self.total_access_delay = 0.0
        #: Maximum frames queued per AC before tail drop.
        self.queue_limit = 64

    # ------------------------------------------------------------------
    # Upper-layer interface
    # ------------------------------------------------------------------

    def enqueue(self, frame: Frame) -> bool:
        """Queue *frame* for transmission; False if tail-dropped."""
        queue = self._queues[frame.category]
        if len(queue) >= self.queue_limit:
            self.frames_dropped += 1
            return False
        frame.enqueued_at = self.sim.now
        queue.append(frame)
        self.frames_enqueued += 1
        if self._state == self._IDLE:
            self._start_access()
        return True

    # ------------------------------------------------------------------
    # Medium notifications
    # ------------------------------------------------------------------

    def on_medium_busy(self) -> None:
        """Carrier sense went busy: freeze any countdown in progress."""
        if self._state != self._DEFER:
            return
        self._cancel_timers()
        if not self._backoff_drawn:
            # We were about to transmit after AIFS but the channel got
            # taken: draw a backoff for the next idle period.
            self._draw_backoff()

    def on_medium_idle(self) -> None:
        """Carrier sense went idle: restart AIFS then resume countdown."""
        if self._state != self._DEFER:
            return
        self._schedule_aifs()

    # ------------------------------------------------------------------
    # State machine internals
    # ------------------------------------------------------------------

    def _peek(self) -> Optional[Frame]:
        for category in AccessCategory:
            if self._queues[category]:
                return self._queues[category][0]
        return None

    def _parameters(self) -> EdcaParameters:
        assert self._current is not None
        return EDCA_PARAMETERS[self._current.category]

    def _start_access(self) -> None:
        frame = self._peek()
        if frame is None:
            self._state = self._IDLE
            return
        self._current = frame
        self._state = self._DEFER
        self._backoff_remaining = 0
        self._backoff_drawn = False
        if self.nic.medium.is_busy_for(self.nic):
            self._draw_backoff()
            # Wait for on_medium_idle.
        else:
            self._schedule_aifs()

    def _draw_backoff(self) -> None:
        cw = self._parameters().cw_min
        self._backoff_remaining = int(self.rng.integers(0, cw + 1))
        self._backoff_drawn = True

    def _bump_token(self) -> int:
        self._token += 1
        return self._token

    def _cancel_timers(self) -> None:
        self._token += 1

    def _schedule_aifs(self) -> None:
        token = self._bump_token()
        self.sim.schedule(self._parameters().aifs,
                          lambda: self._aifs_elapsed(token))

    def _aifs_elapsed(self, token: int) -> None:
        if token != self._token or self._state != self._DEFER:
            return
        if self._backoff_remaining == 0:
            self._transmit()
        else:
            self._schedule_slot(token)

    def _schedule_slot(self, _previous: int) -> None:
        token = self._bump_token()
        self.sim.schedule(SLOT_TIME, lambda: self._slot_elapsed(token))

    def _slot_elapsed(self, token: int) -> None:
        if token != self._token or self._state != self._DEFER:
            return
        self._backoff_remaining -= 1
        if self._backoff_remaining <= 0:
            self._transmit()
        else:
            self._schedule_slot(token)

    def _transmit(self) -> None:
        assert self._current is not None
        frame = self._current
        self._queues[frame.category].popleft()
        self._current = None
        self._state = self._TX
        self._cancel_timers()
        if frame.enqueued_at is not None:
            self.total_access_delay += self.sim.now - frame.enqueued_at
            obs = self.sim.obs
            if obs is not None:
                obs.record_span("mac.access", frame.enqueued_at,
                                self.sim.now, device=self.nic.name)
                obs.observe("mac.access_delay_ms",
                            (self.sim.now - frame.enqueued_at) * 1000.0)
        # The medium calls the hook last in the frame's completion
        # event: one event, and the MAC never sees its own frame on
        # the air whatever the kernel's tie-break.
        self.nic.start_transmission(frame, self._transmission_done)
        self.frames_transmitted += 1

    def _transmission_done(self) -> None:
        self._state = self._IDLE
        self._start_access()

    @property
    def mean_access_delay(self) -> float:
        """Average queue + contention delay per transmitted frame (s)."""
        if self.frames_transmitted == 0:
            return 0.0
        return self.total_access_delay / self.frames_transmitted
