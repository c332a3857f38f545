"""Discrete-event simulation kernel.

The kernel is a classic calendar-queue event loop: callbacks are
scheduled at absolute simulated times and executed in (time, tie-break)
order.  All simulated subsystems -- radios, HTTP servers, vehicle
dynamics integrators, camera frame clocks -- hang off a single
:class:`Simulator` instance, which guarantees a total order of events
and therefore full determinism for a given seed.

Two events scheduled for the *same* simulated time are ordered by the
:class:`EventQueue`'s **tie-break policy**:

* ``"fifo"`` (the default) -- insertion order, the behaviour every
  build of this kernel has always had;
* ``"lifo"`` -- reverse insertion order among tied events;
* ``"seeded"`` -- a random permutation drawn from a dedicated
  ``tie_break.*`` substream, deterministic per seed.

A run whose results are a pure function of the scenario and seed must
be *bit-identical under all three policies*: any divergence means an
ordering assumption between same-time events has leaked into results.
The ``tie-audit`` workflow (``repro.core.tieaudit``, rule family
SCH001..SCH003 in ``repro.analysis``) permutes the policy and pins
divergences to the scheduling sites involved; the
:class:`~repro.sim.tie_audit.TieAudit` seam on :class:`Simulator`
records every runtime tie with the static site ids of both events.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.tie_audit import UNKNOWN_SITE, TieAudit

#: The recognised tie-break policies, in canonical order.
TIE_BREAK_POLICIES = ("fifo", "lifo", "seeded")


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, etc.)."""


#: Path fragments that anchor a site id: everything before the anchor
#: is machine-specific and stripped, so the same source line yields
#: the same site id on every host and from every working directory.
_SITE_ANCHORS = ("/src/", "/tests/", "/benchmarks/", "/examples/")

_KERNEL_FILE = __file__


def _normalise_site_path(path: str) -> str:
    """Repo-anchored, forward-slash form of a code object's filename."""
    path = path.replace("\\", "/")
    for anchor in _SITE_ANCHORS:
        index = path.rfind(anchor)
        if index >= 0:
            return path[index + 1:]
    return path


def _caller_site() -> str:
    """``path:line`` of the nearest non-kernel frame on the stack.

    This is the *static site id* of a scheduling call -- the same
    identifier the interprocedural analysis assigns to the call site
    -- captured only while a :class:`TieAudit` is installed (site
    capture costs a frame walk per ``schedule``).
    """
    try:
        frame = sys._getframe(2)
    except ValueError:  # pragma: no cover - impossibly shallow stack
        return UNKNOWN_SITE
    while frame is not None and frame.f_code.co_filename == _KERNEL_FILE:
        frame = frame.f_back
    if frame is None:
        return UNKNOWN_SITE
    return (f"{_normalise_site_path(frame.f_code.co_filename)}"
            f":{frame.f_lineno}")


class EventQueue:
    """The kernel's pending-event heap with a pluggable tie-break.

    Entries are ordered by ``(time, key, seq)`` where *seq* is the
    insertion counter and *key* depends on the policy: under ``fifo``
    the key is the counter itself (insertion order, the historical
    behaviour, bit for bit), under ``lifo`` it is the negated counter
    (reverse insertion order among ties), and under ``seeded`` it is a
    uniform draw from the supplied RNG (a deterministic shuffle of
    every tie).  Distinct timestamps are *never* reordered by any
    policy -- time always dominates the key.
    """

    __slots__ = ("tie_break", "_rng", "_heap", "_count")

    def __init__(self, tie_break: str = "fifo",
                 rng: Optional[Any] = None):
        if tie_break not in TIE_BREAK_POLICIES:
            raise SimulationError(
                f"unknown tie_break policy {tie_break!r}; expected "
                f"one of {', '.join(TIE_BREAK_POLICIES)}")
        if tie_break == "seeded" and rng is None:
            raise SimulationError(
                "tie_break='seeded' needs an rng (draw it from a "
                "'tie_break.*' substream so the shuffle is "
                "reproducible per seed)")
        self.tie_break = tie_break
        self._rng = rng
        self._heap: List[Tuple[float, float, int,
                               Callable[[], None],
                               Optional[str]]] = []
        self._count = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, when: float, callback: Callable[[], None],
             site: Optional[str] = None) -> None:
        """Enqueue *callback* at absolute time *when*."""
        seq = self._count
        self._count = seq + 1
        if self.tie_break == "fifo":
            key = float(seq)
        elif self.tie_break == "lifo":
            key = float(-seq)
        else:
            key = float(self._rng.random())
        heapq.heappush(self._heap, (when, key, seq, callback, site))

    def pop(self) -> Tuple[float, Callable[[], None], Optional[str]]:
        """Dequeue the next event as ``(when, callback, site)``."""
        when, _key, _seq, callback, site = heapq.heappop(self._heap)
        return when, callback, site

    def peek_time(self) -> float:
        """Time of the next event, or +inf when empty."""
        return self._heap[0][0] if self._heap else math.inf

    def peek_site(self) -> str:
        """Site id of the next event (:data:`UNKNOWN_SITE` fallback)."""
        if not self._heap:
            return UNKNOWN_SITE
        site = self._heap[0][4]
        return site if site is not None else UNKNOWN_SITE


def build_simulator(tie_break: str = "fifo",
                    streams: Optional[Any] = None) -> "Simulator":
    """A :class:`Simulator` with *tie_break*, seeded from *streams*.

    The ``"seeded"`` policy draws its shuffle keys from the
    ``tie_break.shuffle`` substream of *streams* (a
    :class:`~repro.sim.randomness.RandomStreams`), so the permutation
    is a pure function of the scenario seed and perturbs no other
    subsystem's draws.  ``fifo``/``lifo`` need no RNG.
    """
    rng = None
    if tie_break == "seeded":
        if streams is None:
            raise SimulationError(
                "tie_break='seeded' needs a RandomStreams to draw "
                "the tie_break.shuffle substream from")
        rng = streams.get("tie_break.shuffle")
    return Simulator(tie_break=tie_break, tie_rng=rng)


class Simulator:
    """The discrete-event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run_until(10.0)

    Time is a float in **seconds**.  Events scheduled at the same time
    run in *tie-break* order: insertion order under the default
    ``"fifo"`` policy; see :class:`EventQueue` for ``"lifo"`` and
    ``"seeded"``.  A result that depends on the policy depends on
    schedule order -- the ``tie-audit`` workflow exists to catch that.
    """

    def __init__(self, tie_break: str = "fifo",
                 tie_rng: Optional[Any] = None) -> None:
        #: Current simulated time in seconds (advanced by the kernel
        #: only; a plain attribute, read on every hot path).
        self.now = 0.0
        #: The time through which every event had run when
        #: :meth:`run_until` (or a :meth:`run` that drained the queue)
        #: last returned; -inf before.  A reader outside the loop at
        #: ``now == settled`` comes after every event that was due at
        #: ``now``; a reader inside an event does not.
        self.settled = -math.inf
        self._queue = EventQueue(tie_break, tie_rng)
        self._running = False
        self._stopped = False
        #: Observability seam (:class:`repro.obs.ObsContext`).  None by
        #: default; every instrumented subsystem checks this before
        #: recording, so an unobserved run pays one attribute read per
        #: site and stays bit-identical to pre-observability builds.
        self.obs: Optional[Any] = None
        #: Tie-audit seam (:class:`repro.sim.tie_audit.TieAudit`).
        #: None by default -- same no-op-when-unset contract as
        #: ``obs``: an unaudited run captures no sites and pays one
        #: attribute read per schedule/step.
        self.tie_audit: Optional[TieAudit] = None

    @property
    def tie_break(self) -> str:
        """The active tie-break policy (``fifo``/``lifo``/``seeded``)."""
        return self._queue.tie_break

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run *callback* after *delay* seconds of simulated time."""
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"cannot schedule with delay {delay!r}")
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run *callback* at absolute simulated time *when*."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at t={when} (now is t={self.now})"
            )
        site = None
        audit = self.tie_audit
        if audit is not None:
            site = _caller_site()
        self._queue.push(when, callback, site)

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def step(self) -> bool:
        """Execute the next scheduled event.  Returns False if none left."""
        if not self._queue:
            return False
        when, callback, site = self._queue.pop()
        audit = self.tie_audit
        if audit is not None and self._queue.peek_time() == when:
            audit.record(when,
                         site if site is not None else UNKNOWN_SITE,
                         self._queue.peek_site())
        self.now = when
        obs = self.obs
        callback()
        if obs is not None:
            obs.kernel_step()
        return True

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event queue drains (or *max_events* executed)."""
        self._stopped = False
        executed = 0
        while not self._stopped and self.step():
            executed += 1
            if executed >= max_events:
                raise SimulationError(
                    f"run() exceeded {max_events} events; likely a livelock"
                )
        if not self._stopped:
            self.settled = self.now

    def run_until(self, until: float, max_events: int = 10_000_000) -> None:
        """Run events with time <= *until*, then set time to *until*."""
        if until < self.now:
            raise SimulationError(
                f"run_until({until}) but now is t={self.now}"
            )
        self._stopped = False
        executed = 0
        while not self._stopped and self._queue and \
                self._queue.peek_time() <= until:
            self.step()
            executed += 1
            if executed >= max_events:
                raise SimulationError(
                    f"run_until() exceeded {max_events} events; likely a livelock"
                )
        if not self._stopped:
            self.now = self.settled = until

    def peek(self) -> float:
        """Time of the next event, or +inf if the queue is empty."""
        return self._queue.peek_time()
