"""Replay of a DET004 catch: a float accumulator in mergeable obs state.

Before the fix, ``Counter`` summed increments and merges into a float,
so folding the same runs in another order could change the last bit.
"""


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount=1.0):
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, "
                             f"got {amount}")
        self.value += amount

    def merge(self, other):
        self.value += other.value
