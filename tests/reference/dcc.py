"""Reference oracle for the clockless CBR monitor.

:class:`PolledChannelBusyMonitor` is ``repro.net.dcc.ChannelBusyMonitor``
as it was when a self-rescheduling ``_sample`` event polled
``medium.is_busy_for`` every ``sample_period``.  It is copied verbatim
(only renamed).  It is used only by the differential tests
(``tests/test_dcc_reference.py``), which assert that the monitor that
reads the medium's flip log produces the same samples and the same
busy ratios.  Do not optimise this file: its value is being the old,
obviously-correct code.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.net.nic import NetworkInterface
from repro.sim.kernel import Simulator


class PolledChannelBusyMonitor:
    """Measures the Channel Busy Ratio seen by one NIC.

    Samples carrier sense every ``sample_period`` and exposes the busy
    fraction over arbitrary windows.
    """

    def __init__(self, sim: Simulator, nic: NetworkInterface,
                 sample_period: float = 1e-3,
                 history: float = 5.0,
                 start_offset: Optional[float] = None):
        self.sim = sim
        self.nic = nic
        self.sample_period = sample_period
        self._samples: Deque[bool] = deque(
            maxlen=max(1, int(history / sample_period)))
        # Fleet scenarios phase-shift each station's sampling so no two
        # monitors ever sample at the same kernel timestamp; the default
        # keeps the legacy first sample at t + sample_period.
        sim.schedule(sample_period if start_offset is None
                     else start_offset, self._sample)

    def _sample(self) -> None:
        self._samples.append(self.nic.medium.is_busy_for(self.nic))
        self.sim.schedule(self.sample_period, self._sample)

    def cbr(self, window: float) -> float:
        """Busy fraction over the last *window* seconds (0 if no data)."""
        count = max(1, int(window / self.sample_period))
        recent = list(self._samples)[-count:]
        if not recent:
            return 0.0
        return sum(recent) / len(recent)
