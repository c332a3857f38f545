"""Discrete-event simulation kernel.

This package replaces the physical time base of the original testbed
(four NTP-synchronised devices) with a deterministic discrete-event
simulator.  It provides:

* :class:`~repro.sim.kernel.Simulator` -- the event loop; simulated
  components are plain callbacks scheduled on it;
* :class:`~repro.sim.clock.DeviceClock` -- per-device clocks with offset,
  drift and NTP discipline, so that cross-device timestamping exhibits
  the same artefacts as the paper's measurement setup;
* :class:`~repro.sim.randomness.RandomStreams` -- named, reproducible
  random substreams.
"""

from repro.sim.kernel import (
    TIE_BREAK_POLICIES,
    EventQueue,
    SimulationError,
    Simulator,
)
from repro.sim.clock import DeviceClock, NtpModel
from repro.sim.randomness import RandomStreams
from repro.sim.tie_audit import TieAudit

__all__ = [
    "TIE_BREAK_POLICIES",
    "EventQueue",
    "Simulator",
    "SimulationError",
    "TieAudit",
    "DeviceClock",
    "NtpModel",
    "RandomStreams",
]
