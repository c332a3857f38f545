"""SCH003 through a closure: the wall-clock helper of sch003_bad.py,
moved into a nested def of the method whose schedule delay calls it."""

import time

from repro.sim.kernel import Simulator


class Beacon:
    def __init__(self, sim):
        self.sim = sim

        def jitter():
            return time.time() % 0.001

        sim.schedule(0.1 + jitter(), self._fire)

    def _fire(self):
        self.sim.schedule(0.1, self._fire)


def build():
    sim = Simulator()
    return sim, Beacon(sim)
