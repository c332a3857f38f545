"""Decentralized Congestion Control (ETSI TS 102 687, reactive).

ITS-G5 stations must bound their channel usage: a DCC gatekeeper sits
between the networking layer and the MAC and enforces a minimum
interval between a station's transmissions (``t_off``), chosen from a
state machine driven by the measured Channel Busy Ratio (CBR):

    state       CBR threshold    min packet interval
    RELAXED       < 0.19             25 ms  (40 Hz)
    ACTIVE_1      < 0.27            100 ms  (10 Hz)
    ACTIVE_2      < 0.35            200 ms  ( 5 Hz)
    ACTIVE_3      < 0.43            400 ms  (2.5 Hz)
    RESTRICTIVE   >= 0.43          1000 ms  ( 1 Hz)

The CBR is a busy fraction over a window, as the standard defines it:
:class:`ChannelBusyMonitor` counts busy points of a fixed sample grid,
read on demand from the medium's log of carrier-sense flips, with no
sampling event.  State transitions use the standard's asymmetric
smoothing: stepping *up* (towards RESTRICTIVE) looks at the most
recent window (1 s); stepping *down* requires the longer 5 s window to
agree, which damps oscillation.  Frames arriving while the gate is
closed queue up (safety-priority first); the gate never reorders
within a priority.

OpenC2X implements exactly this entity; the paper's single-DENM
experiment never trips it, but the channel-load ablation does.
"""

from __future__ import annotations

import dataclasses
import enum
from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.net.frame import AccessCategory, Frame
from repro.net.nic import NetworkInterface
from repro.sim.kernel import Simulator


class DccState(enum.IntEnum):
    """Reactive DCC states, least to most restrictive."""

    RELAXED = 0
    ACTIVE_1 = 1
    ACTIVE_2 = 2
    ACTIVE_3 = 3
    RESTRICTIVE = 4


@dataclasses.dataclass(frozen=True)
class DccParameters:
    """Thresholds and gate intervals per state."""

    #: CBR upper bound per state (entering the next state above it).
    cbr_thresholds: Tuple[float, ...] = (0.19, 0.27, 0.35, 0.43)
    #: Minimum packet interval per state (s).
    t_off: Tuple[float, ...] = (0.025, 0.1, 0.2, 0.4, 1.0)
    #: Spacing of the CBR sample grid (s).
    sample_period: float = 1e-3
    #: Window for stepping towards more restrictive states (s).
    up_window: float = 1.0
    #: Window for stepping towards less restrictive states (s).
    down_window: float = 5.0
    #: Gate queue capacity per access category.
    queue_limit: int = 16

    def state_for(self, cbr: float) -> DccState:
        """The state the thresholds demand for *cbr*."""
        for index, threshold in enumerate(self.cbr_thresholds):
            if cbr < threshold:
                return DccState(index)
        return DccState.RESTRICTIVE


class ChannelBusyMonitor:
    """Measures the Channel Busy Ratio seen by one NIC.

    The busy fraction over a window is the share of busy samples of
    carrier sense on a fixed grid: the first point ``start_offset``
    (default ``sample_period``) after construction, every next one the
    float sum of the one before and ``sample_period`` -- the sequence a
    self-rescheduling sampler would run on.  Nothing is scheduled: the
    medium logs the time of every busy/idle flip of the NIC
    (:meth:`~repro.net.medium.WirelessMedium.flip_log`), and
    :meth:`cbr` first fills the sample history from that log up to
    ``sim.now``.

    Where times coincide, one rule holds under every tie-break policy:

    * a grid point sees the state *before* any flip at the same
      instant (a sampler scheduled one period earlier runs first under
      fifo, ahead of the MAC timers, carrier-sense updates and frame
      ends of frames shorter than a period that cause flips);
    * a read inside an event at a grid point leaves that point out (a
      reader scheduled earlier than the sampler runs first under
      fifo, like the gatekeeper's state update); a read after
      ``run_until`` returned counts a point at ``sim.now``
      (:attr:`~repro.sim.kernel.Simulator.settled`).

    The flip log holds only the flips since the last read: every read
    deletes those it consumed.
    """

    def __init__(self, sim: Simulator, nic: NetworkInterface,
                 sample_period: float = 1e-3,
                 history: float = 5.0,
                 start_offset: Optional[float] = None):
        # Fleet scenarios phase-shift each station's grid so no two
        # monitors share a sample instant; the default keeps the legacy
        # first sample at t + sample_period.
        offset = sample_period if start_offset is None else start_offset
        if not sample_period > 0.0 or not offset > 0.0:
            raise ValueError(
                f"sample_period and start_offset must be > 0, got "
                f"{sample_period!r} and {start_offset!r}")
        self.sim = sim
        self.nic = nic
        self.sample_period = sample_period
        self._samples: Deque[bool] = deque(
            maxlen=max(1, int(history / sample_period)))
        medium = nic.medium
        self._flips = medium.flip_log(nic)
        #: Carrier sense before the first unconsumed flip.
        self._busy = medium.is_busy_for(nic)
        #: The next grid point not yet in ``_samples``.
        self._due = sim.now + offset

    def _catch_up(self) -> None:
        """Append the sample of every grid point the reader has passed."""
        now = self.sim.now
        settled = self.sim.settled
        t = self._due
        if not (t < now or t <= settled):
            return
        flips = self._flips
        states = (self._busy, not self._busy)
        append = self._samples.append
        period = self.sample_period
        consumed = 0
        while t < now or t <= settled:
            # Flips strictly before t decide the state at t.
            consumed = bisect_left(flips, t, consumed)
            append(states[consumed & 1])
            t += period
        self._due = t
        if consumed:
            del flips[:consumed]
            self._busy = states[consumed & 1]

    def cbr(self, window: float) -> float:
        """Busy fraction over the last *window* seconds (0 if no data)."""
        self._catch_up()
        count = max(1, int(window / self.sample_period))
        recent = list(self._samples)[-count:]
        if not recent:
            return 0.0
        return sum(recent) / len(recent)


class DccGatekeeper:
    """The gate between the router and the MAC.

    Use :meth:`send` instead of ``nic.send``; frames pass immediately
    while the gate is open and queue otherwise.  Highest-priority
    queued frame goes out at each gate opening.
    """

    def __init__(self, sim: Simulator, nic: NetworkInterface,
                 parameters: Optional[DccParameters] = None,
                 start_offset: float = 0.0):
        self.sim = sim
        self.nic = nic
        self.parameters = parameters or DccParameters()
        # A per-station phase (fleet scenarios) shifts both the CBR
        # sample grid and the 1 Hz state updates, which de-ties the
        # updates across N stations.
        self.monitor = ChannelBusyMonitor(
            sim, nic, self.parameters.sample_period,
            start_offset=(self.parameters.sample_period + start_offset
                          if start_offset > 0.0 else None))
        self.state = DccState.RELAXED
        self._queues: Dict[AccessCategory, Deque[Frame]] = {
            category: deque() for category in AccessCategory
        }
        self._last_transmission: Optional[float] = None
        self._gate_timer_armed = False
        self.frames_gated = 0
        self.frames_passed = 0
        self.frames_dropped = 0
        self.state_transitions = 0
        self.state_changes: List[Tuple[float, DccState]] = []
        sim.schedule(self.parameters.up_window + start_offset,
                     self._update_state)

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    @property
    def t_off(self) -> float:
        """Current minimum packet interval (s)."""
        return self.parameters.t_off[int(self.state)]

    def _update_state(self) -> None:
        up_cbr = self.monitor.cbr(self.parameters.up_window)
        down_cbr = self.monitor.cbr(self.parameters.down_window)
        demanded_up = self.parameters.state_for(up_cbr)
        demanded_down = self.parameters.state_for(down_cbr)
        new_state = self.state
        if demanded_up > self.state:
            # Step one state up at a time (standard behaviour).
            new_state = DccState(int(self.state) + 1)
        elif demanded_down < self.state and demanded_up < self.state:
            new_state = DccState(int(self.state) - 1)
        obs = self.sim.obs
        if obs is not None:
            obs.observe("net.cbr", up_cbr, device=self.nic.name)
        if new_state != self.state:
            old_state = self.state
            self.state = new_state
            self.state_transitions += 1
            self.state_changes.append((self.sim.now, new_state))
            if obs is not None:
                obs.count("dcc.state_transitions", device=self.nic.name,
                          from_state=old_state.name,
                          to_state=new_state.name)
                obs.set_gauge("dcc.state", int(new_state),
                              device=self.nic.name)
        self.sim.schedule(self.parameters.up_window, self._update_state)

    # ------------------------------------------------------------------
    # Gate
    # ------------------------------------------------------------------

    def send(self, frame: Frame) -> bool:
        """Submit *frame*; False if the gate queue tail-dropped it."""
        if self._gate_open() and not any(self._queues.values()):
            self._transmit(frame)
            return True
        # A backlog means the frame must join its queue even if the
        # gate is momentarily open: letting it overtake would starve
        # queued higher-priority traffic whenever arrivals land on the
        # t_off grid (e.g. CAMs at exactly 1/t_off beat the armed gate
        # timer by its epsilon slack, forever).  The timer drains the
        # queues highest-priority first.
        queue = self._queues[frame.category]
        if len(queue) >= self.parameters.queue_limit:
            self.frames_dropped += 1
            return False
        queue.append(frame)
        self.frames_gated += 1
        obs = self.sim.obs
        if obs is not None:
            obs.count("dcc.frames_gated", device=self.nic.name)
        self._arm_gate_timer()
        return True

    #: Slack added to gate timers so floating-point rounding cannot
    #: leave the timer firing an instant before the gate opens.
    _EPSILON = 1e-9

    def _gate_open(self) -> bool:
        if self._last_transmission is None:
            return True
        return (self.sim.now - self._last_transmission
                >= self.t_off - self._EPSILON)

    def _transmit(self, frame: Frame) -> None:
        self._last_transmission = self.sim.now
        self.frames_passed += 1
        obs = self.sim.obs
        if obs is not None:
            obs.count("dcc.frames_passed", device=self.nic.name)
            obs.set_gauge("dcc.state", int(self.state),
                          device=self.nic.name)
        self.nic.send(frame)
        if any(self._queues.values()):
            self._arm_gate_timer()

    def _arm_gate_timer(self) -> None:
        if self._gate_timer_armed:
            return
        self._gate_timer_armed = True
        assert self._last_transmission is not None
        delay = max(self._EPSILON,
                    self._last_transmission + self.t_off - self.sim.now
                    + self._EPSILON)
        self.sim.schedule(delay, self._gate_fires)

    def _gate_fires(self) -> None:
        self._gate_timer_armed = False
        if not self._gate_open():
            # t_off grew (state became more restrictive) meanwhile.
            self._arm_gate_timer()
            return
        frame = self._pop_next()
        if frame is not None:
            self._transmit(frame)

    def _pop_next(self) -> Optional[Frame]:
        for category in AccessCategory:
            if self._queues[category]:
                return self._queues[category].popleft()
        return None

    @property
    def queued(self) -> int:
        """Frames currently waiting at the gate."""
        return sum(len(q) for q in self._queues.values())
