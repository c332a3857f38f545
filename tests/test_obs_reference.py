"""Differential test: the observer's integer accumulators against their
``Fraction`` predecessor in :mod:`tests.reference.obs`.

Random programs of increments, observations, span durations, merges
and ``to_dict``/``from_dict`` round trips run on both versions side by
side.  After every step the exports (``to_dict``, ``value``, ``sum``,
``mean``, ``total``, the Prometheus text) must agree byte for byte --
compared as ``repr``, so ``-0.0`` and ``0.0`` differ -- and the exact
sums must be equal fractions.  An export that raises (a sum past the
largest double) must raise the same exception type in both.

Registry programs go through :class:`~repro.obs.context.ObsContext`'s
``count``/``observe`` seam as well as the registry's own accessors,
with label values that are equal as dict keys but render differently
(``1``, ``1.0``, ``True``, ``"1"``) and names shared across kinds, so
the metric-handle cache must keep them apart exactly as the
canonical-key lookup does.

Amounts are finite: non-finite input is refused before any state
changes (``tests/test_obs_metrics.py``, ``tests/test_obs_spans.py``),
where the reference fails part way through an update.
"""

import math
from fractions import Fraction
from typing import Any, Callable, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.context import ObsContext
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    UNIT_BITS,
)
from repro.obs.spans import SpanRecorder, SpanStats, merge_span_stats
from tests.reference import obs as ref

#: Zeros, the default increment, an inexact decimal, the smallest
#: subnormal, the largest subnormal, the smallest normal and values
#: whose sums leave the double range.
SPECIAL = (0.0, -0.0, 1.0, 0.1, 0.5, 3.0, 5e-324,
           2.225073858507201e-308, 2.2250738585072014e-308,
           1e308, 1.7976931348623157e308)

NON_NEGATIVE = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(min_value=0, max_value=2 ** 70),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-300, allow_subnormal=True),
)

FINITE = st.one_of(NON_NEGATIVE, NON_NEGATIVE.map(lambda value: -value))

BOUNDS = (0.0, 0.5, 1.0, 1e300)

SLOTS = 3
SLOT = st.integers(min_value=0, max_value=SLOTS - 1)


def _outcome(export: Callable[[], Any]) -> Tuple[str, str]:
    """``("ok", repr(result))`` or ``("raise", exception type)``."""
    try:
        return ("ok", repr(export()))
    except (OverflowError, ValueError) as err:
        return ("raise", type(err).__name__)


def _exact(metric: Any) -> Fraction:
    """The new metric's exact sum, rebuilt from its integer state."""
    return Fraction(metric._whole) + Fraction(metric._units,
                                              1 << UNIT_BITS)


def _check_counter(new: Counter, old: Any) -> None:
    assert _exact(new) == old._value
    assert _outcome(lambda: new.value) == _outcome(lambda: old.value)
    assert _outcome(new.to_dict) == _outcome(old.to_dict)


def _check_histogram(new: Histogram, old: Any) -> None:
    assert _exact(new) == new._sum == old._sum
    assert new.count == old.count
    assert new.bucket_counts == old.bucket_counts
    for export in ("sum", "to_dict", "mean"):
        assert _outcome(lambda: _read(new, export)) == \
            _outcome(lambda: _read(old, export))


def _check_spans(new: SpanStats, old: Any) -> None:
    assert _exact(new) == old._total
    for export in ("total", "mean", "to_dict"):
        assert _outcome(lambda: _read(new, export)) == \
            _outcome(lambda: _read(old, export))


def _read(obj: Any, name: str) -> Any:
    attr = getattr(obj, name)
    return attr() if callable(attr) else attr


def _reload(metric: Any) -> Any:
    """``from_dict(to_dict())``, or *metric* when its export raises."""
    try:
        return type(metric).from_dict(metric.to_dict())
    except OverflowError:
        return metric


METRIC_OPS = st.lists(st.one_of(
    st.tuples(st.just("inc"), SLOT, NON_NEGATIVE),
    st.tuples(st.just("observe"), SLOT, FINITE),
    st.tuples(st.just("add"), SLOT, FINITE),
    st.tuples(st.just("merge"), st.sampled_from(["counter", "histogram",
                                                 "spans"]), SLOT, SLOT),
    st.tuples(st.just("reload"), st.sampled_from(["counter", "histogram",
                                                  "spans"]), SLOT),
), max_size=40)

CHECKS = {"counter": _check_counter, "histogram": _check_histogram,
          "spans": _check_spans}


@settings(deadline=None, max_examples=250)
@given(METRIC_OPS)
def test_metric_programs_match_reference(program):
    new = {"counter": [Counter() for _ in range(SLOTS)],
           "histogram": [Histogram(BOUNDS) for _ in range(SLOTS)],
           "spans": [SpanStats() for _ in range(SLOTS)]}
    old = {"counter": [ref.Counter() for _ in range(SLOTS)],
           "histogram": [ref.Histogram(BOUNDS) for _ in range(SLOTS)],
           "spans": [ref.SpanStats() for _ in range(SLOTS)]}
    for op in program:
        if op[0] in ("inc", "observe", "add"):
            kind = {"inc": "counter", "observe": "histogram",
                    "add": "spans"}[op[0]]
            _, slot, amount = op
            getattr(new[kind][slot], op[0])(amount)
            getattr(old[kind][slot], op[0])(amount)
        elif op[0] == "merge":
            _, kind, slot, other = op
            new[kind][slot].merge(new[kind][other])
            old[kind][slot].merge(old[kind][other])
        else:
            _, kind, slot = op
            new[kind][slot] = _reload(new[kind][slot])
            old[kind][slot] = _reload(old[kind][slot])
        CHECKS[kind](new[kind][slot], old[kind][slot])


NAMES = st.sampled_from(["a", "b.c"])

LABELS = st.sampled_from([
    {}, {"device": "obu"}, {"device": "1"}, {"device": 1},
    {"device": 1.0}, {"device": True}, {"device": ["x"]},
    {"a": "x", "b": "y"}, {"b": "y", "a": "x"},
])

REGISTRY_OPS = st.lists(st.one_of(
    st.tuples(st.just("count"), SLOT, NAMES, NON_NEGATIVE, LABELS,
              st.booleans()),
    st.tuples(st.just("observe"), SLOT, NAMES, FINITE, LABELS,
              st.booleans(), st.sampled_from([None, (0.5, 2.0)])),
    st.tuples(st.just("gauge"), SLOT, NAMES, FINITE, LABELS),
    st.tuples(st.just("merge"), SLOT, SLOT),
    st.tuples(st.just("reload"), SLOT),
), max_size=30)


class _Side:
    """One implementation's registries: the new one behind
    :class:`ObsContext`, the reference one bare."""

    def __init__(self, new: bool):
        self.new = new
        if new:
            self.contexts = [ObsContext() for _ in range(SLOTS)]
            self.registries = [ctx.metrics for ctx in self.contexts]
        else:
            self.registries = [ref.MetricsRegistry()
                               for _ in range(SLOTS)]

    def apply(self, op: Tuple[Any, ...]) -> None:
        kind, slot = op[0], op[1]
        registry = self.registries[slot]
        if kind == "count":
            _, _, name, amount, labels, seam = op
            if self.new and seam:
                self.contexts[slot].count(name, amount, **labels)
            else:
                registry.counter(name, **labels).inc(amount)
        elif kind == "observe":
            _, _, name, value, labels, seam, buckets = op
            if self.new and seam:
                self.contexts[slot].observe(name, value, buckets,
                                            **labels)
            else:
                registry.histogram(name, buckets, **labels).observe(value)
        elif kind == "gauge":
            _, _, name, value, labels = op
            registry.gauge(name, **labels).set(value)
        elif kind == "merge":
            registry.merge(self.registries[op[2]])
        else:
            try:
                data = registry.to_dict()
            except OverflowError:
                return
            if self.new:
                ctx = ObsContext()
                ctx.metrics = MetricsRegistry.from_dict(data)
                self.contexts[slot] = ctx
                self.registries[slot] = ctx.metrics
            else:
                self.registries[slot] = ref.MetricsRegistry.from_dict(data)


@settings(deadline=None, max_examples=200)
@given(REGISTRY_OPS)
def test_registry_programs_match_reference(program):
    new, old = _Side(new=True), _Side(new=False)
    for op in program:
        outcomes = []
        for side in (new, old):
            outcomes.append(_outcome(lambda: side.apply(op)))
        assert outcomes[0] == outcomes[1], op
        slot = op[1]
        for export in ("to_dict", "to_prometheus_text"):
            assert _outcome(getattr(new.registries[slot], export)) == \
                _outcome(getattr(old.registries[slot], export))


EVENTS = st.lists(st.tuples(st.sampled_from(["phy.tx", "e2e.total"]),
                            FINITE, FINITE).filter(
    lambda event: math.isfinite(float(event[2]) - float(event[1]))),
    max_size=20)


@settings(deadline=None, max_examples=100)
@given(EVENTS, EVENTS)
def test_span_recorder_stats_match_reference(events_a, events_b):
    def folded(recorder_cls, merge):
        into = {}
        for events in (events_a, events_b):
            recorder = recorder_cls()
            for name, start, end in events:
                recorder.record(name, float(start), float(end))
            merge(into, recorder.stats())
        return {name: _outcome(stats.to_dict)
                for name, stats in sorted(into.items())}

    assert folded(SpanRecorder, merge_span_stats) == \
        folded(ref.SpanRecorder, ref.merge_span_stats)
