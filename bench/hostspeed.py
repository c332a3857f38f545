"""Rescale wall times to a fixed host speed.

The benchmark runs on shared virtual CPUs whose speed changes by up to
2x within seconds while the process keeps its CPU (no steal time, and
CPU time equals wall time): other tenants share the physical cores
and caches.  A median of wall times taken minutes apart measures that
as much as the program.

A :class:`SpeedProbe` samples the speed of the CPU the process is
running on while the work runs: every :data:`INTERVAL_S` of the
process's CPU time a ``SIGPROF`` handler times one fixed pure-Python
reference chunk (after a few untimed rounds of it, so the chunk does
not pay for the caches the program evicted).  :meth:`Reading.scaled`
turns a wall time into *reference seconds*: the wall time minus the
probe's own samples, times :data:`REFERENCE_CHUNK_S` over the typical
chunk time seen during it -- the wall time the work would take on a
host that runs the chunk in :data:`REFERENCE_CHUNK_S`.  A change that
makes the program do less work lowers reference seconds as it lowers
wall seconds; a slow spell of the host raises wall seconds and leaves
reference seconds (nearly) alone.  Work that slows down less than the
chunk in a slow spell (imports, for one) is over-corrected a little.

The chunk allocates no container objects and runs with the garbage
collector paused, so it never runs a collection the program would
otherwise have run; its code is fixed here, so it is the same on
every commit the benchmark compares.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import runpy
import signal
import statistics
import sys
import time
from typing import Any, List, Optional, Tuple

#: CPU time of the process between two samples.
INTERVAL_S = 0.01

#: Rounds of the reference loop in one chunk.
CHUNK_ROUNDS = 2000

#: Untimed rounds run first, so the timed chunk finds its code and data
#: in the CPU caches however much of them the program evicted.
WARM_ROUNDS = 500

#: A chunk longer than this many times the median chunk of its reading
#: was interrupted, and does not count towards the speed.
OUTLIER_FACTOR = 3.0

#: Wall time of one chunk on the host that defines a reference second:
#: the median chunk on a 2-vCPU Xeon VM (Python 3.11) outside its slow
#: spells, so there reference seconds read about as wall seconds.
REFERENCE_CHUNK_S = 0.0003


class _Body:
    """A damped oscillator: attribute traffic and float arithmetic."""

    __slots__ = ("x", "v")

    def __init__(self) -> None:
        self.x = 1.0
        self.v = 0.0

    def step(self, dt: float) -> float:
        self.v -= (self.x + 0.1 * self.v) * dt
        self.x += self.v * dt
        return self.x


_TABLE = {key: float(key) for key in range(256)}


def reference_chunk(rounds: int = CHUNK_ROUNDS) -> float:
    """The fixed reference work: dict lookups, branches, calls, floats."""
    body = _Body()
    table = _TABLE
    total = 0.0
    for index in range(rounds):
        weight = table[(index * 37) & 255]
        if weight > 100.0:
            total += body.step(0.001) * weight
        else:
            total -= weight * 0.5
    return total


@dataclasses.dataclass(frozen=True)
class Reading:
    """What a probe saw over an interval."""

    #: Time of each timed chunk, in the order they ran.
    chunks: Tuple[float, ...] = ()
    #: Time of the whole samples, warm-up rounds included.
    spent_s: float = 0.0

    def __sub__(self, earlier: "Reading") -> "Reading":
        return Reading(self.chunks[len(earlier.chunks):],
                       self.spent_s - earlier.spent_s)

    @property
    def samples(self) -> int:
        return len(self.chunks)

    def speed(self) -> float:
        """Reference chunk time over the typical chunk time (1 = reference).

        The typical chunk time is the mean of the chunks, leaving out
        any longer than :data:`OUTLIER_FACTOR` times their median: a
        chunk the virtual CPU was taken away from in the middle.
        """
        if not self.chunks:
            raise ValueError("no probe sample: the interval was too short")
        limit = OUTLIER_FACTOR * statistics.median(self.chunks)
        kept = [chunk for chunk in self.chunks if chunk <= limit]
        return REFERENCE_CHUNK_S * len(kept) / sum(kept)

    def scaled(self, wall_s: float) -> float:
        """*wall_s* (probe samples included) in reference seconds."""
        return (wall_s - self.spent_s) * self.speed()

    def to_dict(self) -> dict:
        return {"chunks": list(self.chunks), "spent_s": self.spent_s}

    @classmethod
    def from_dict(cls, data: dict) -> "Reading":
        return cls(tuple(float(chunk) for chunk in data["chunks"]),
                   float(data["spent_s"]))


class SpeedProbe:
    """Samples host speed with ``SIGPROF`` while it is started.

    Only the main thread of a process may start one, and only one at a
    time: it owns the process's ``ITIMER_PROF`` and ``SIGPROF`` handler,
    and :meth:`stop` puts back what it found.
    """

    def __init__(self) -> None:
        self._chunks: List[float] = []
        self._spent_s = 0.0
        self._previous: Optional[Any] = None

    def reading(self) -> Reading:
        """Everything so far; subtract two readings for an interval."""
        return Reading(tuple(self._chunks), self._spent_s)

    def _sample(self, signum: int, frame: Any) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_chunk(WARM_ROUNDS)
            timed = time.perf_counter()
            reference_chunk()
            end = time.perf_counter()
            self._chunks.append(end - timed)
            self._spent_s += end - start
        finally:
            if collecting:
                gc.enable()

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "SpeedProbe":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def main(argv: List[str]) -> None:
    """``python bench/hostspeed.py SCRIPT [ARG...]``: run *SCRIPT* probed.

    *SCRIPT* runs as ``__main__`` with its own directory first on
    ``sys.path``, as ``python SCRIPT`` would run it, and exits the way
    it exits.  The probe's reading goes to standard error as the last
    line, the JSON object ``{"probe": {...}}``.
    """
    script, *args = argv
    sys.argv = [script, *args]
    sys.path[0] = os.path.dirname(os.path.abspath(script))
    probe = SpeedProbe().start()
    try:
        runpy.run_path(script, run_name="__main__")
    finally:
        probe.stop()
        print(json.dumps({"probe": probe.reading().to_dict()}),
              file=sys.stderr, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
