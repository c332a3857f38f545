"""FPR002 positive fixture: asymmetric to_dict/from_dict contracts.

Three shapes: a key read behind a silent ``.get(key, default)``, a
key the reader never touches (the round-trip drops it), and a
``to_dict`` with no ``from_dict`` at all (a one-way format).
"""


class WindowStats:
    def __init__(self, count, total):
        self.count = count
        self.total = total

    def to_dict(self):
        return {"count": self.count, "total": self.total}

    @classmethod
    def from_dict(cls, data):
        return cls(data["count"], data.get("total", 0.0))


class TracePage:
    def __init__(self, offset, rows):
        self.offset = offset
        self.rows = rows

    def to_dict(self):
        return {"offset": self.offset, "rows": self.rows}

    @classmethod
    def from_dict(cls, data):
        return cls(data["offset"], [])


class Verdict:
    def __init__(self, label):
        self.label = label

    def to_dict(self):
        return {"label": self.label}
