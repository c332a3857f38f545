"""Deterministic observability: metrics and sim-time spans.

The testbed's headline claims are quantitative (Table II latency
decomposition, the 1.6 ms radio hop, the 0.36 m braking distance), so
the reproduction needs a first-class measurement layer rather than ad
hoc prints.  This package provides two cooperating pieces:

* :mod:`repro.obs.metrics` -- a registry of counters, gauges and
  fixed-bucket histograms with *exact* mergeable state (counter
  values and histogram sums are plain ``int`` s: a whole part plus a
  count of 2**-1074 units, so merging per-run registries is
  associative and commutative bit for bit);
* :mod:`repro.obs.spans` -- sim-time spans (``span("phy.tx") ...
  end()``) recorded per device as structured events, aggregated into
  per-stage statistics whose totals are exact in the same way.

Floats appear only at the export edge (``value``, ``sum``, ``mean``,
``total``, ``to_dict``), correctly rounded from the exact sums.

Host wall time is not deterministic; apart from one duration per run
(for runs/sec) it is not recorded here.  The outside-in benchmark
under ``bench/`` measures it, untraced end to end and per layer.

Everything hangs off an :class:`~repro.obs.context.ObsContext`
attached to a :class:`~repro.sim.kernel.Simulator` via ``sim.obs``.
The seam is no-op-when-unset: instrumented code checks ``sim.obs is
None`` and touches neither RNG streams nor the event queue, so an
uninstrumented run is bit-identical to one that predates this package
(``tests/test_obs_instrumentation.py`` holds that oracle).
"""

from repro.obs.context import ObsAggregate, ObsContext
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_BUCKETS,
)
from repro.obs.spans import Span, SpanEvent, SpanRecorder, SpanStats

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsAggregate",
    "ObsContext",
    "Span",
    "SpanEvent",
    "SpanRecorder",
    "SpanStats",
]
