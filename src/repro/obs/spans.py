"""Sim-time spans: named intervals on the simulation clock.

A span brackets one stage of the chain of action -- a frame's airtime
(``phy.tx``), an HTTP request's queue+service time (``http.request``),
the whole detection-to-actuation path (``e2e.total``).  Spans are
recorded per device as structured events and aggregate into exact
per-stage statistics, the per-stage latency decomposition that
city-scale ITS deployments treat as table stakes.

Two recording styles:

* **live** -- ``handle = recorder.start("phy.tx", device="rsu")`` at
  the start event, ``handle.end()`` at the end event (possibly many
  simulator callbacks later); ``with recorder.start(...):`` works for
  spans that close inside one callback;
* **after the fact** -- ``recorder.record(name, start, end, device)``
  when both instants are already known (e.g. derived from the step
  timeline after a run).

Everything here is pure bookkeeping on ``sim.now``: no RNG, no event
scheduling, so recording spans can never perturb a simulation.
Per-name totals are exact integer state, like the metrics' sums (see
:mod:`repro.obs.metrics`): floats appear only at the export edge.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import _read_sum, _to_float, _units


@dataclasses.dataclass(frozen=True)
class SpanEvent:
    """One completed span."""

    name: str
    device: str
    start: float
    end: float
    #: How many spans were already open on the same device when this
    #: one started (best-effort nesting depth; concurrent non-LIFO
    #: spans are legal).
    depth: int

    @property
    def duration(self) -> float:
        """Span length in simulated seconds."""
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "device": self.device,
            "start": self.start,
            "end": self.end,
            "depth": self.depth,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanEvent":
        """Rebuild an event serialised by :meth:`to_dict`."""
        return cls(
            name=str(data["name"]),
            device=str(data["device"]),
            start=float(data["start"]),
            end=float(data["end"]),
            depth=int(data["depth"]),
        )


class SpanStats:
    """Aggregated statistics for one span name.

    Durations accumulate exactly, like histogram sums (a whole
    ``int`` plus an ``int`` count of 2**-1074 units), so folding
    per-run stats into a campaign aggregate is associative and
    commutative bit for bit whatever the merge order -- the DET004
    contract.  Floats only appear at the export edge (:attr:`total`,
    :attr:`mean`, :meth:`to_dict`).
    """

    __slots__ = ("count", "_whole", "_units", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self._whole = 0
        self._units = 0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    @property
    def total(self) -> float:
        """Summed duration (s), as a float."""
        return _to_float(self._whole, self._units)

    @property
    def mean(self) -> float:
        """Mean duration, or NaN when empty."""
        if not self.count:
            return float("nan")
        return _to_float(self._whole, self._units, self.count)

    def add(self, duration: float) -> None:
        """Add one duration (finite; state is untouched if not)."""
        if not math.isfinite(duration):
            raise ValueError(f"span duration must be finite, "
                             f"got {duration!r}")
        whole = int(duration)
        if whole == duration:
            self._whole += whole
        else:
            self._units += _units(duration, "span duration")
        self.count += 1
        self.minimum = min(self.minimum, duration)
        self.maximum = max(self.maximum, duration)

    def merge(self, other: "SpanStats") -> None:
        self.count += other.count
        self._whole += other._whole
        self._units += other._units
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total_s": self.total,
            "min_s": self.minimum if self.count else None,
            "max_s": self.maximum if self.count else None,
            "mean_s": self.mean if self.count else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanStats":  # detlint: ignore[FPR002] -- 'mean_s' is derived (exact total / count) and recomputed by the mean property; persisting it is for humans reading the JSON, not for state
        """Rebuild stats serialised by :meth:`to_dict`.

        The float ``total_s`` is re-read exactly, so a round-trip
        is stable (``from_dict(x.to_dict()).to_dict() ==
        x.to_dict()``).
        """
        stats = cls()
        stats.count = int(data["count"])
        stats._whole, stats._units = _read_sum(float(data["total_s"]),
                                               "total_s")
        if stats.count:
            stats.minimum = float(data["min_s"])
            stats.maximum = float(data["max_s"])
        return stats


class Span:
    """A live span handle; close it with :meth:`end` (or ``with``)."""

    __slots__ = ("recorder", "name", "device", "start", "depth", "_ended")

    def __init__(self, recorder: "SpanRecorder", name: str,
                 device: str, start: float, depth: int):
        self.recorder = recorder
        self.name = name
        self.device = device
        self.start = start
        self.depth = depth
        self._ended = False

    def end(self) -> Optional[SpanEvent]:
        """Close the span at the current simulated time (idempotent)."""
        if self._ended:
            return None
        self._ended = True
        return self.recorder._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.end()


class SpanRecorder:
    """Collects :class:`SpanEvent` records on one simulation clock."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self._events: List[SpanEvent] = []
        self._open: Dict[str, int] = {}

    def bind(self, clock: Callable[[], float]) -> None:
        """Point the recorder at a simulation clock (``lambda: sim.now``)."""
        self._clock = clock

    def start(self, name: str, device: str = "") -> Span:
        """Open a span at the current simulated time."""
        depth = self._open.get(device, 0)
        self._open[device] = depth + 1
        return Span(self, name, device, self._clock(), depth)

    def _finish(self, span: Span) -> SpanEvent:
        open_count = self._open.get(span.device, 0)
        if open_count > 0:
            self._open[span.device] = open_count - 1
        event = SpanEvent(name=span.name, device=span.device,
                          start=span.start, end=self._clock(),
                          depth=span.depth)
        self._events.append(event)
        return event

    def record(self, name: str, start: float, end: float,
               device: str = "") -> SpanEvent:
        """Record a span whose endpoints are already known."""
        event = SpanEvent(name=name, device=device, start=start,
                          end=end, depth=0)
        self._events.append(event)
        return event

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def events(self, name: Optional[str] = None,
               device: Optional[str] = None) -> List[SpanEvent]:
        """Completed spans matching the filters, in completion order."""
        out = []
        for event in self._events:
            if name is not None and event.name != name:
                continue
            if device is not None and event.device != device:
                continue
            out.append(event)
        return out

    def __len__(self) -> int:
        return len(self._events)

    def stats(self) -> Dict[str, SpanStats]:
        """Per-name aggregated durations, sorted by name."""
        out: Dict[str, SpanStats] = {}
        for event in self._events:
            out.setdefault(event.name, SpanStats()).add(event.duration)
        return dict(sorted(out.items()))

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Every event as a plain dict (structured-event export)."""
        return [event.to_dict() for event in self._events]


def merge_span_stats(into: Dict[str, SpanStats],
                     other: Dict[str, SpanStats]) -> None:
    """Fold *other*'s per-name stats into *into* (in place).

    Names are folded in sorted order so the fold is independent of
    how *other* was populated (per-name merges are exact, so this
    is belt and braces -- but DET003 asks for it and it costs one
    sort).
    """
    for name, stats in sorted(other.items()):
        mine = into.setdefault(name, SpanStats())
        mine.merge(stats)
