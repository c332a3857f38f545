"""Structured event tracing.

A :class:`Tracer` collects timestamped records from any subsystem
(``tracer.log("steps", "denm_sent", run_id=1)``) and renders them as
canonical JSON lines -- the simulation counterpart of the log files
the paper's devices produced, and the format of the golden traces.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional

from repro.sim.kernel import Simulator


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One traced event."""

    time: float
    category: str
    event: str
    fields: Dict[str, Any]

    def as_flat_dict(self) -> Dict[str, Any]:
        """Record flattened to one mapping (fields beside the header)."""
        out: Dict[str, Any] = {
            "time": self.time,
            "category": self.category,
            "event": self.event,
        }
        out.update(self.fields)
        return out


class Tracer:
    """An unbounded event log on the simulation clock."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._records: List[TraceRecord] = []

    def log(self, category: str, event: str, **fields: Any) -> None:
        """Record one event at the current simulated time."""
        self._records.append(TraceRecord(
            time=self.sim.now, category=category, event=event,
            fields=fields))

    def records(self, category: Optional[str] = None) -> List[TraceRecord]:
        """Records of *category* (all when None), in time order."""
        return [record for record in self._records
                if category is None or record.category == category]

    def __len__(self) -> int:
        return len(self._records)

    def to_canonical_jsonl_text(self) -> str:
        """All records as canonical JSON lines.

        Sorted keys, compact separators and Python's exact float
        reprs, so the same deterministic run always yields the same
        bytes -- the format of the golden-trace fixtures under
        ``tests/golden/``.
        """
        lines = [
            json.dumps(record.as_flat_dict(), sort_keys=True,
                       separators=(",", ":"), default=str)
            for record in self._records
        ]
        return "\n".join(lines) + ("\n" if lines else "")
