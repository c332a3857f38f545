"""Reference oracle for the observer's metric and span state.

A verbatim copy of :mod:`repro.obs.metrics` and the ``SpanEvent`` /
``SpanStats`` / span-recorder code of :mod:`repro.obs.spans` as they
were while every counter value, histogram sum and span total was a
:class:`fractions.Fraction` and every registry lookup rebuilt its
sorted label key.  The only departures: the two modules share one
import block, and their module docstrings are dropped.

Used by the differential test ``tests/test_obs_reference.py``.  Do not
optimise this file: its value is being the old, obviously-correct
code.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Default histogram buckets (upper bounds).  Spaced for latencies in
#: milliseconds: 1 us .. 1000 ms when observations are given in ms.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
    1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0,
)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(pairs: LabelPairs) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count.

    Like the histogram sum, the running value accumulates as an
    exact rational (every float increment is an exact
    :class:`~fractions.Fraction`), so merging counters is
    associative and commutative bit for bit regardless of fold
    order -- the DET004 contract for exactly-mergeable state.
    Floats only appear at the export edge (:attr:`value`,
    :meth:`to_dict`).
    """

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = Fraction(0)

    @property
    def value(self) -> float:
        """The count, as a float."""
        return float(self._value)

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, "
                             f"got {amount}")
        self._value += Fraction(amount)

    def merge(self, other: "Counter") -> None:
        """Fold *other* into this counter (exact)."""
        self._value += other._value

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Counter":
        counter = cls()
        counter._value = Fraction(float(data["value"]))
        return counter


class Gauge:
    """A point-in-time value; merging keeps the last-set value."""

    __slots__ = ("value", "_set")

    def __init__(self) -> None:
        self.value = 0.0
        self._set = False

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)
        self._set = True

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by *amount*."""
        self.value += amount
        self._set = True

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``-amount``."""
        self.inc(-amount)

    def merge(self, other: "Gauge") -> None:
        """Fold *other* in: an explicitly-set other wins."""
        if other._set:
            self.value = other.value
            self._set = True

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Gauge":
        gauge = cls()
        gauge.set(float(data["value"]))
        return gauge


class Histogram:
    """Fixed-bucket histogram with exact, mergeable state.

    ``bounds`` are strictly increasing bucket upper bounds; one
    implicit overflow bucket catches everything above the last bound.
    The running sum is kept as an exact rational so that::

        merge(merge(a, b), c) == merge(a, merge(b, c))   # bit for bit

    holds for any observation streams.  Designed for non-negative
    observations (durations, sizes); negative values land in the first
    bucket and quantile interpolation treats the first bucket's lower
    edge as 0.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "_sum")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"bucket bounds must be strictly increasing: {bounds}")
        if any(math.isnan(b) or math.isinf(b) for b in bounds):
            raise ValueError(f"bucket bounds must be finite: {bounds}")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self._sum = Fraction(0)

    @property
    def sum(self) -> float:
        """The exact sum of observations, as a float."""
        return float(self._sum)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        index = bisect.bisect_left(self.bounds, value)
        self.bucket_counts[index] += 1
        self.count += 1
        self._sum += Fraction(value)

    def merge(self, other: "Histogram") -> None:
        """Fold *other* into this histogram (same bounds required)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.bounds} vs {other.bounds}")
        for index, bucket_count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket_count
        self.count += other.count
        self._sum += other._sum

    def mean(self) -> float:
        """Mean observation, or NaN when empty."""
        if self.count == 0:
            return float("nan")
        return float(self._sum / self.count)

    def quantile(self, q: float) -> float:
        """Estimated q-quantile via linear interpolation per bucket.

        The estimate is monotone non-decreasing in *q* (the property
        test's invariant).  Values in the overflow bucket are clamped
        to the highest finite bound, like ``histogram_quantile``.
        Returns NaN when the histogram is empty.
        """
        if self.count == 0:
            return float("nan")
        q = min(1.0, max(0.0, float(q)))
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                cumulative += bucket_count
                continue
            if cumulative + bucket_count >= target:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                upper = self.bounds[index]
                lower = 0.0 if index == 0 else self.bounds[index - 1]
                if index == 0 and upper <= 0.0:
                    lower = upper
                fraction = max(0.0, target - cumulative) / bucket_count
                return lower + (upper - lower) * min(1.0, fraction)
            cumulative += bucket_count
        return self.bounds[-1]

    def to_dict(self) -> Dict[str, Any]:
        """Exact, JSON-serialisable state (sum as a rational string)."""
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": str(self._sum),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        histogram = cls(data["bounds"])
        histogram.bucket_counts = [int(c) for c in data["bucket_counts"]]
        histogram.count = int(data["count"])
        histogram._sum = Fraction(data["sum"])
        return histogram


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """All metrics of one run (or one aggregated campaign).

    Metrics are created on first use (``registry.counter("phy.tx",
    device="obu").inc()``) and identified by name + labels.  The
    registry merges exactly (:meth:`merge`), serialises canonically
    (:meth:`to_dict` / :meth:`from_dict`) and renders the Prometheus
    text exposition format (:meth:`to_prometheus_text`).
    """

    def __init__(self) -> None:
        #: (name, labels) -> metric instance.
        self._metrics: Dict[Tuple[str, LabelPairs], Any] = {}
        #: name -> kind, to reject kind clashes early.
        self._kinds: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get(self, kind: str, name: str, labels: Dict[str, Any],
             buckets: Optional[Iterable[float]] = None) -> Any:
        known = self._kinds.get(name)
        if known is not None and known != kind:
            raise ValueError(
                f"metric {name!r} already registered as {known}, "
                f"requested as {kind}")
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            if kind == "histogram":
                metric = Histogram(buckets or DEFAULT_BUCKETS)
            else:
                metric = _KINDS[kind]()
            self._metrics[key] = metric
            self._kinds[name] = kind
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter called *name* with *labels* (auto-created)."""
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge called *name* with *labels* (auto-created)."""
        return self._get("gauge", name, labels)

    def histogram(self, name: str,
                  buckets: Optional[Iterable[float]] = None,
                  **labels: Any) -> Histogram:
        """The histogram called *name* with *labels* (auto-created)."""
        return self._get("histogram", name, labels, buckets)

    # ------------------------------------------------------------------
    # Merging / serialisation
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold every metric of *other* into this registry, exactly."""
        for (name, pairs), metric in sorted(other._metrics.items()):
            kind = other._kinds[name]
            labels = dict(pairs)
            if kind == "histogram":
                mine = self._get(kind, name, labels, metric.bounds)
            else:
                mine = self._get(kind, name, labels)
            mine.merge(metric)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form, sorted by name + labels."""
        out: Dict[str, Any] = {}
        for (name, pairs), metric in sorted(self._metrics.items()):
            out[name + _render_labels(pairs)] = {
                "kind": self._kinds[name],
                **metric.to_dict(),
            }
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry serialised by :meth:`to_dict`."""
        registry = cls()
        for full_name, payload in data.items():
            name, labels = _parse_metric_name(full_name)
            kind = payload["kind"]
            metric = _KINDS[kind].from_dict(payload)
            registry._metrics[(name, _label_key(labels))] = metric
            registry._kinds[name] = kind
        return registry

    def to_prometheus_text(self, prefix: str = "repro") -> str:
        """The Prometheus text exposition format.

        Metric names are mangled to the Prometheus charset
        (``phy.frames_sent`` -> ``repro_phy_frames_sent``); histograms
        expand to ``_bucket``/``_sum``/``_count`` series with
        cumulative ``le`` labels.
        """
        lines: List[str] = []
        seen_types = set()
        for (name, pairs), metric in sorted(self._metrics.items()):
            kind = self._kinds[name]
            flat = f"{prefix}_{name}".replace(".", "_").replace("-", "_")
            if flat not in seen_types:
                seen_types.add(flat)
                lines.append(f"# TYPE {flat} {kind}")
            if kind == "histogram":
                cumulative = 0
                for bound, bucket_count in zip(
                        metric.bounds, metric.bucket_counts):
                    cumulative += bucket_count
                    le = _label_key({"le": repr(bound)})
                    lines.append(f"{flat}_bucket"
                                 f"{_render_labels(pairs + le)} "
                                 f"{cumulative}")
                inf = _label_key({"le": "+Inf"})
                lines.append(f"{flat}_bucket"
                             f"{_render_labels(pairs + inf)} "
                             f"{metric.count}")
                lines.append(f"{flat}_sum{_render_labels(pairs)} "
                             f"{metric.sum!r}")
                lines.append(f"{flat}_count{_render_labels(pairs)} "
                             f"{metric.count}")
            else:
                lines.append(f"{flat}{_render_labels(pairs)} "
                             f"{metric.value!r}")
        return "\n".join(lines) + ("\n" if lines else "")


def _parse_metric_name(full_name: str) -> Tuple[str, Dict[str, str]]:
    """Invert ``name{k="v",...}`` back to (name, labels)."""
    if "{" not in full_name:
        return full_name, {}
    name, _, rest = full_name.partition("{")
    labels: Dict[str, str] = {}
    for pair in rest.rstrip("}").split(","):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        labels[key] = value.strip('"')
    return name, labels


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

    Durations accumulate as exact rationals (like histogram sums),
    so folding per-run stats into a campaign aggregate is
    associative and commutative bit for bit whatever the merge
    order -- the DET004 contract.  Floats only appear at the export
    edge (:attr:`total`, :attr:`mean`, :meth:`to_dict`).
    """

    __slots__ = ("count", "_total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self._total = Fraction(0)
        self.minimum = float("inf")
        self.maximum = float("-inf")

    @property
    def total(self) -> float:
        """Summed duration (s), as a float."""
        return float(self._total)

    @property
    def mean(self) -> float:
        """Mean duration, or NaN when empty."""
        if not self.count:
            return float("nan")
        return float(self._total / self.count)

    def add(self, duration: float) -> None:
        self.count += 1
        self._total += Fraction(duration)
        self.minimum = min(self.minimum, duration)
        self.maximum = max(self.maximum, duration)

    def merge(self, other: "SpanStats") -> None:
        self.count += other.count
        self._total += other._total
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
    def from_dict(cls, data: Dict[str, Any]) -> "SpanStats":  # detlint: ignore[FPR002] -- 'mean_s' is derived (exact Fraction total / count) and recomputed by the mean property; persisting it is for humans reading the JSON, not for state
        """Rebuild stats serialised by :meth:`to_dict`.

        The float ``total_s`` is re-read exactly, so a round-trip
        is stable (``from_dict(x.to_dict()).to_dict() ==
        x.to_dict()``).
        """
        stats = cls()
        stats.count = int(data["count"])
        stats._total = Fraction(float(data["total_s"]))
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
