"""Replay of a DET003 catch: an obs exporter iterating a mapping view.

Before the fix, ``ObsContext.to_dict`` built its span table from
``self.spans.stats().items()``: insertion order, an accident of which
span finished first, so two equal runs could serialise differently.
"""


class ObsContext:
    def __init__(self, metrics, spans, wall):
        self.metrics = metrics
        self.spans = spans
        self.wall = wall

    def to_dict(self):
        """Canonical JSON form of one run's observability data."""
        return {
            "metrics": self.metrics.to_dict(),
            "spans": {name: stats.to_dict()
                      for name, stats in self.spans.stats().items()},
            "span_events": self.spans.to_dicts(),
            "wall": self.wall.to_dict(),
        }
