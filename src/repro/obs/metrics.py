"""Metric primitives and the registry.

Three metric kinds, modelled on the Prometheus data model but kept
deterministic and *exactly* mergeable:

* :class:`Counter` -- a monotonically increasing count;
* :class:`Gauge` -- a point-in-time value (last write wins);
* :class:`Histogram` -- fixed upper-bound buckets plus an exact sum.

Counter values and histogram sums are kept as two plain ``int`` s: a
whole part that takes every integer-valued amount (the default
increment of 1.0 among them) and a count of 2**-1074 units that takes
every other finite float.  Every finite double is m * 2**e with
e >= -1074, so the units are exact and merging two metrics is
associative and commutative *bit for bit* -- the property the campaign
engine relies on when folding per-run registries into a campaign
aggregate, and the invariant pinned by ``tests/test_obs_properties.py``.
Floats appear only at the export edge (``value``, ``sum``, ``mean``,
``to_dict``), correctly rounded from the exact sum; ``_sum`` exposes
that sum as a :class:`fractions.Fraction`.

Metric identity is ``(name, sorted label pairs)``.  Names follow the
``<layer>.<quantity>`` scheme documented in ARCHITECTURE.md §9
(``phy.frames_sent``, ``http.requests_served``, ...).
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Default histogram buckets (upper bounds).  Spaced for latencies in
#: milliseconds: 1 us .. 1000 ms when observations are given in ms.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
    1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0,
)

LabelPairs = Tuple[Tuple[str, str], ...]

#: Non-integer amounts accumulate as a count of 2**-UNIT_BITS units,
#: the spacing of the subnormal doubles.
UNIT_BITS = 1074


def _units(value: Any, what: str) -> int:
    """Finite *value* as an exact count of units.

    Raises ``ValueError`` naming *what* when *value* is no multiple of
    2**-UNIT_BITS, which no float or sum of floats is (``1/3``).
    """
    numerator, denominator = value.as_integer_ratio()
    shift = UNIT_BITS + 1 - denominator.bit_length()
    if denominator & (denominator - 1) or shift < 0:
        raise ValueError(f"{what}: {value!r} is not a multiple of "
                         f"2**-{UNIT_BITS}, so not a sum of floats")
    return numerator << shift


def _to_float(whole: int, units: int, count: int = 1) -> float:
    """``(whole + units * 2**-UNIT_BITS) / count``, correctly rounded.

    Integer true division rounds correctly, as ``float(Fraction)``
    does, so the result equals the float of the exact fraction.
    """
    if not units:
        return whole / count
    return ((whole << UNIT_BITS) + units) / (count << UNIT_BITS)


def _read_sum(value: Any, field: str) -> Tuple[int, int]:
    """A stored sum (float or rational string) as ``(whole, units)``.

    Raises ``ValueError`` naming *field* when the value is not finite
    or no sum of floats: it is refused, never rounded into units.
    """
    try:
        exact = Fraction(value)
    except (OverflowError, ValueError):
        raise ValueError(f"{field}: {value!r} is not a finite "
                         f"number") from None
    if exact.denominator == 1:
        return exact.numerator, 0
    return 0, _units(exact, field)


def _label_key(labels: Dict[str, Any]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(pairs: LabelPairs) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count.

    Like the histogram sum, the running value is exact: integer
    increments add to a whole ``int``, other floats to an ``int``
    count of 2**-1074 units, so merging counters is associative and
    commutative bit for bit regardless of fold order -- the DET004
    contract for exactly-mergeable state.  Floats only appear at the
    export edge (:attr:`value`, :meth:`to_dict`).
    """

    __slots__ = ("_whole", "_units")

    def __init__(self) -> None:
        self._whole = 0
        self._units = 0

    @property
    def value(self) -> float:
        """The count, as a float."""
        return _to_float(self._whole, self._units)

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (finite, >= 0)."""
        if not amount >= 0 or amount == math.inf:
            raise ValueError(f"counter increment must be finite and "
                             f">= 0, got {amount!r}")
        whole = int(amount)
        if whole == amount:
            self._whole += whole
        else:
            self._units += _units(amount, "counter increment")

    def merge(self, other: "Counter") -> None:
        """Fold *other* into this counter (exact)."""
        self._whole += other._whole
        self._units += other._units

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Counter":
        value = float(data["value"])
        if value < 0:
            raise ValueError(f"value: {value!r} is negative; a counter "
                             f"never goes down")
        counter = cls()
        counter._whole, counter._units = _read_sum(value, "value")
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
    The running sum is kept exactly (a whole ``int`` plus an ``int``
    count of 2**-1074 units, like :class:`Counter`) so that::

        merge(merge(a, b), c) == merge(a, merge(b, c))   # bit for bit

    holds for any observation streams.  Designed for non-negative
    observations (durations, sizes); negative values land in the first
    bucket and quantile interpolation treats the first bucket's lower
    edge as 0.  Infinite and NaN observations are refused.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "_whole", "_units")

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
        self._whole = 0
        self._units = 0

    @property
    def _sum(self) -> Fraction:
        """The exact sum of observations."""
        return Fraction((self._whole << UNIT_BITS) + self._units,
                        1 << UNIT_BITS)

    @property
    def sum(self) -> float:
        """The exact sum of observations, as a float."""
        return _to_float(self._whole, self._units)

    def observe(self, value: float) -> None:
        """Record one observation (finite; state is untouched if not)."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("cannot observe NaN" if math.isnan(value)
                             else f"cannot observe {value!r}")
        whole = int(value)
        if whole == value:
            self._whole += whole
        else:
            self._units += _units(value, "observation")
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        """Fold *other* into this histogram (same bounds required)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.bounds} vs {other.bounds}")
        for index, bucket_count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket_count
        self.count += other.count
        self._whole += other._whole
        self._units += other._units

    def mean(self) -> float:
        """Mean observation, or NaN when empty."""
        if self.count == 0:
            return float("nan")
        return _to_float(self._whole, self._units, self.count)

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
        counts = [int(c) for c in data["bucket_counts"]]
        if len(counts) != len(histogram.bounds) + 1:
            raise ValueError(
                f"bucket_counts: {len(counts)} entries for "
                f"{len(histogram.bounds)} bounds (one more expected)")
        if any(c < 0 for c in counts):
            raise ValueError(f"bucket_counts: negative entry in {counts}")
        count = int(data["count"])
        if sum(counts) != count:
            raise ValueError(f"count: {count} but bucket_counts add "
                             f"up to {sum(counts)}")
        histogram.bucket_counts = counts
        histogram.count = count
        histogram._whole, histogram._units = _read_sum(data["sum"], "sum")
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
        #: (kind, name, *label items) -> metric instance, for label
        #: sets whose values are all ``str``: a call site with fixed
        #: labels builds the sorted canonical key once, not per call.
        self._handles: Dict[Tuple[Any, ...], Any] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get(self, kind: str, name: str, labels: Dict[str, Any],
             buckets: Optional[Iterable[float]] = None) -> Any:
        """The metric *kind* called *name* with *labels*, created on
        first use (*buckets* only shapes a new histogram)."""
        key = (kind, name, *labels.items())
        try:
            metric = self._handles.get(key)
        except TypeError:  # an unhashable label value
            metric = None
        if metric is None:
            metric = self._resolve(kind, name, labels, buckets)
            # Only str values: equal ints, floats and bools (1, 1.0,
            # True) hash alike but render as different labels.
            if all(type(value) is str for value in labels.values()):
                self._handles[key] = metric
        return metric

    def _resolve(self, kind: str, name: str, labels: Dict[str, Any],
                 buckets: Optional[Iterable[float]]) -> Any:
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
