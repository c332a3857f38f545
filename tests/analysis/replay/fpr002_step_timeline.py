"""Replay of an FPR002 catch: defaulted reads in a round-trip reader.

Before the fix, ``StepTimeline.from_dict`` read ``records`` with
``data.get("records", [])``, so a truncated cached payload loaded as
an empty timeline instead of failing.
"""


class StepTimeline:
    def __init__(self):
        self._records = {}

    def records(self):
        return [self._records[step] for step in sorted(self._records)]

    def to_dict(self):
        return {"records": [record.to_dict()
                            for record in self.records()]}

    @classmethod
    def from_dict(cls, data):
        timeline = cls()
        for entry in data.get("records", []):
            timeline._records[entry["step"]] = entry
        return timeline
