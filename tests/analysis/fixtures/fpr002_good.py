"""FPR002 negative fixture: strict, symmetric round-trip.

Every key the writer emits the reader requires (``data[key]``), and
unknown keys are rejected so typos surface instead of vanishing.
"""


class WindowStats:
    def __init__(self, count, total):
        self.count = count
        self.total = total

    def to_dict(self):
        return {"count": self.count, "total": self.total}

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - {"count", "total"}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        return cls(data["count"], data["total"])


class Verdict:
    def __init__(self, label):
        self.label = label

    def to_dict(self):
        return {"label": self.label}

    @classmethod
    def from_dict(cls, data):
        return cls(label=data["label"])
