"""The clockless CBR monitor against the polled one it replaced.

``repro.net.dcc.ChannelBusyMonitor`` schedules nothing: it reads the
medium's log of carrier-sense flips when it is read.
``tests.reference.dcc.PolledChannelBusyMonitor`` is the monitor as it
was, a ``_sample`` event every ``sample_period``.  Both watch the same
NIC of the same run, so they see one busy schedule:

* random schedules of transmissions (the watched NIC's own included),
  detaches and re-attaches, with flips, reads and the run's end placed
  on grid points, give the same samples and busy ratios.  The events
  that cause flips are scheduled less than one period ahead, and the
  in-run reads long before, as in the fleet: there the polled monitor
  under fifo gave the lazy monitor's answer at every coincidence.  The
  lazy monitor gives it under lifo and seeded too;
* each coincidence on its own, with what the polled monitor gave
  under fifo, lifo and seeded pinned, and the one rule the lazy
  monitor keeps under all three;
* guards: the monitor schedules no event, its flip log stays bounded
  and a station that nobody monitors logs nothing.
"""

import functools
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.scenario import EmergencyBrakeScenario
from repro.core.testbed import ScaleTestbed
from repro.net import AccessCategory, Frame, NetworkInterface, WirelessMedium
from repro.net.dcc import ChannelBusyMonitor, DccGatekeeper, DccParameters
from repro.net.phy import PhyConfig
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.sim import Simulator
from tests.reference.dcc import PolledChannelBusyMonitor

POLICIES = ("fifo", "lifo", "seeded")

#: Sample periods: binary-exact ones keep every grid point exact.
PERIODS = (2.0 ** -7, 1e-3, 3e-3, 0.01)

#: The watched NIC and two neighbours it hears.
STATIONS = (("m", 0.0), ("a", 3.0), ("b", 5.0))

#: The PHY of every NIC here, for airtimes.
_PHY = PhyConfig()


def build(policy: str) -> Tuple[Simulator, WirelessMedium,
                                Dict[str, NetworkInterface]]:
    sim = Simulator(policy, np.random.default_rng(7)
                    if policy == "seeded" else None)
    medium = WirelessMedium(sim, 1,
                            LinkBudget(path_loss=LogDistancePathLoss()))
    nics = {name: NetworkInterface(sim, medium, name,
                                   lambda x=x: (x, 0.0),
                                   rng=np.random.default_rng(index))
            for index, (name, x) in enumerate(STATIONS)}
    return sim, medium, nics


def frame(size: int) -> Frame:
    return Frame(payload=b"x", size=size, source="",
                 category=AccessCategory.AC_VI)


def grid(start: float, offset: Optional[float], period: float,
         count: int) -> List[float]:
    """The first *count* grid points of a monitor built at *start*."""
    points = [start + (period if offset is None else offset)]
    while len(points) < count:
        points.append(points[-1] + period)
    return points


def apply(medium: WirelessMedium, nics: Dict[str, NetworkInterface],
          action: Tuple[Any, ...]) -> None:
    kind = action[0]
    watched = nics["m"]
    if kind == "tx":
        medium.transmit(nics[action[1]], frame(action[2]))
    elif kind == "detach":
        medium.detach(watched)
    elif medium._stations.get("m") is None:
        medium.attach(watched)


def run_schedule(spec: Dict[str, Any], policy: str) -> Dict[str, Any]:
    """Both monitors on one run of *spec*; what each read saw."""
    sim, medium, nics = build(policy)
    period = spec["period"]
    reads: Dict[str, List[Any]] = {"lazy": [], "polled": []}
    monitors: Dict[str, Any] = {}

    def read() -> None:
        for name, monitor in monitors.items():
            ratios = [monitor.cbr(window) for window in spec["windows"]]
            reads[name].append((sim.now, list(monitor._samples), ratios))

    # In-run reads go in first, as the gatekeeper's state update is
    # scheduled a full window ahead of the samples it reads.
    for at in spec["reads"]:
        sim.schedule_at(at, read)
    sim.run_until(spec["start"])
    monitors["lazy"] = ChannelBusyMonitor(
        sim, nics["m"], period, spec["history"], spec["offset"])
    monitors["polled"] = PolledChannelBusyMonitor(
        sim, nics["m"], period, spec["history"], spec["offset"])
    # A flip's cause is scheduled half a period ahead, after the
    # sample it may coincide with, like the medium's and MAC's timers.
    for at, action in spec["actions"]:
        sim.schedule_at(max(sim.now, at - period / 2), functools.partial(
            sim.schedule_at, at,
            functools.partial(apply, medium, nics, action)))
    sim.run_until(spec["end"])
    read()
    return reads


@st.composite
def schedules(draw: Any) -> Dict[str, Any]:
    period = draw(st.sampled_from(PERIODS))
    offset = draw(st.one_of(
        st.none(), st.floats(1e-6, 3 * period),
        st.sampled_from([period / 2, period, 2 * period])))
    start = draw(st.sampled_from([0.0, 0.0, 0.0123, 0.5]))
    points = grid(start, offset, period, 60)
    horizon = points[-1]

    def instant() -> float:
        # A grid point, or any time in the run.
        if draw(st.booleans()):
            return draw(st.sampled_from(points))
        return draw(st.floats(start, horizon, exclude_min=True))

    actions = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["tx", "tx", "tx", "tx", "detach",
                                     "attach"]))
        if kind != "tx":
            actions.append((instant(), (kind,)))
            continue
        sender = draw(st.sampled_from(["a", "b", "m"]))
        size = draw(st.integers(1, 1500))
        at = instant()
        if draw(st.booleans()):
            # End the frame exactly on a grid point where the floats
            # allow it, with a frame shorter than a period.
            size = draw(st.integers(1, 100))
            end = draw(st.sampled_from(points))
            duration = _PHY.airtime(frame(size).wire_size)
            if duration < period and end - duration > start and (
                    (end - duration) + duration == end):
                at = end - duration
        actions.append((at, ("tx", sender, size)))
    # A detach or attach at the instant of another action would tie
    # with it, and the kernel's order would pick the busy schedule
    # (a frame that starts with the NIC attached or not): such
    # detaches and attaches are dropped.
    taken: Dict[float, int] = {}
    for at, action in actions:
        taken[at] = taken.get(at, 0) + 1
    actions = [(at, action) for at, action in actions
               if action[0] == "tx" or taken[at] == 1]
    # A frame of a period or longer that ends exactly on a grid point
    # is the one coincidence the polled fifo monitor saw after the
    # flip: see test_long_frame_ending_on_a_grid_point.
    exact = set(points)
    for at, action in actions:
        if action[0] == "tx":
            duration = _PHY.airtime(frame(action[2]).wire_size)
            assume(duration < period or at + duration not in exact)
    reads = draw(st.lists(st.one_of(
        st.sampled_from(points),
        st.floats(start, horizon, exclude_min=True)), max_size=6))
    return {
        "period": period,
        "offset": offset,
        "start": start,
        "history": draw(st.sampled_from([period * 10.5, 0.05, 5.0])),
        "actions": actions,
        "reads": reads,
        "windows": draw(st.lists(st.floats(period / 2, 2 * horizon),
                                 min_size=1, max_size=3)),
        "end": draw(st.sampled_from([horizon, points[len(points) // 2],
                                     horizon + period / 3])),
    }


class TestRandomSchedules:
    @given(spec=schedules(), policy=st.sampled_from(POLICIES))
    @settings(max_examples=150, deadline=None)
    def test_lazy_matches_polled_fifo_under_every_policy(self, spec,
                                                         policy):
        fifo = run_schedule(spec, "fifo")
        assert fifo["lazy"] == fifo["polled"]
        if policy != "fifo":
            assert run_schedule(spec, policy)["lazy"] == fifo["polled"]


# ----------------------------------------------------------------------
# Each coincidence on its own.  Period 0.25 s: every grid point (0.25,
# 0.5, 0.75, ...) is exact.
# ----------------------------------------------------------------------

PERIOD = 0.25


def coincidence(policy: str, setup: Callable[..., None],
                reads: Tuple[float, ...] = (), end: float = 1.0,
                ) -> Dict[str, List[List[bool]]]:
    """The samples each monitor held at every read (in-run reads at
    *reads*, scheduled before the monitors, then one after the run)."""
    sim, medium, nics = build(policy)
    seen: Dict[str, List[List[bool]]] = {"lazy": [], "polled": []}
    monitors: Dict[str, Any] = {}

    def read() -> None:
        for name, monitor in monitors.items():
            monitor.cbr(1.0)
            seen[name].append(list(monitor._samples))

    for at in reads:
        sim.schedule_at(at, read)
    monitors["lazy"] = ChannelBusyMonitor(sim, nics["m"], PERIOD)
    monitors["polled"] = PolledChannelBusyMonitor(sim, nics["m"], PERIOD)
    setup(sim, medium, nics)
    sim.run_until(end)
    read()
    return seen


def later(sim: Simulator, at: float, action: Callable[[], None]) -> None:
    """Run *action* at *at*, scheduled half a period ahead (after the
    sample at *at* was scheduled)."""
    sim.schedule_at(at - PERIOD / 2,
                    lambda: sim.schedule_at(at, action))


def busy_over(sim: Simulator, medium: WirelessMedium,
              nics: Dict[str, NetworkInterface], at: float) -> None:
    """A 1400-byte frame from "a" that covers *at*."""
    sim.schedule_at(at - 1e-3,
                    lambda: medium.transmit(nics["a"], frame(1400)))


class TestCoincidences:
    def test_flip_on_a_grid_point(self):
        # "a" starts a frame exactly at 0.5.  fifo ran the sample
        # first (idle), lifo ran the frame start first (busy).
        def setup(sim, medium, nics):
            later(sim, 0.5, lambda: medium.transmit(nics["a"], frame(60)))

        polled = {policy: coincidence(policy, setup)["polled"][-1][1]
                  for policy in POLICIES}
        assert polled == {"fifo": False, "lifo": True, "seeded": True}
        for policy in POLICIES:
            assert coincidence(policy, setup)["lazy"] == [
                [False, False, False, False]]

    def test_read_inside_an_event_on_a_grid_point(self):
        # A reader scheduled before the sample at 0.5 (as the
        # gatekeeper's update is): fifo left the sample out, lifo
        # counted it.
        def setup(sim, medium, nics):
            busy_over(sim, medium, nics, 0.5)

        polled = {policy: coincidence(policy, setup, reads=(0.5,))[
            "polled"][0] for policy in POLICIES}
        assert polled == {"fifo": [False], "lifo": [False, True],
                          "seeded": [False, True]}
        for policy in POLICIES:
            assert coincidence(policy, setup, reads=(0.5,))["lazy"] == [
                [False], [False, True, False, False]]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_read_after_run_until_on_a_grid_point(self, policy):
        # run_until(0.5) ran the sample at 0.5 under every policy.
        def setup(sim, medium, nics):
            busy_over(sim, medium, nics, 0.5)

        seen = coincidence(policy, setup, end=0.5)
        assert seen["polled"] == seen["lazy"] == [[False, True]]

    def test_detach_on_a_grid_point(self):
        # The watched NIC is detached at 0.5 while "a" is on the air:
        # fifo sampled it busy, lifo already detached (idle).  It is
        # re-attached at 0.75 and senses the channel again.
        def setup(sim, medium, nics):
            busy_over(sim, medium, nics, 0.5)
            later(sim, 0.5, lambda: medium.detach(nics["m"]))
            later(sim, 0.75, lambda: medium.attach(nics["m"]))
            busy_over(sim, medium, nics, 1.0)

        polled = {policy: coincidence(policy, setup)["polled"][-1]
                  for policy in POLICIES}
        assert polled == {"fifo": [False, True, False, True],
                          "lifo": [False, False, False, True],
                          "seeded": [False, False, False, True]}
        for policy in POLICIES:
            assert coincidence(policy, setup)["lazy"] == [
                [False, True, False, True]]

    def test_long_frame_ending_on_a_grid_point(self):
        # A frame longer than the period ends exactly on a grid point:
        # its end event was scheduled at its start, before the sample,
        # so fifo ran the end first (idle) and lifo the sample (busy).
        # The lazy monitor keeps its rule -- the state before the flip
        # -- which here is lifo's answer.  The fleet samples every
        # 10 ms and sends no frame that long.
        period = 2.0 ** -10
        size = 1400
        duration = _PHY.airtime(frame(size).wire_size)
        assert duration > period
        points = grid(0.0, None, period, 40)
        end = next(p for p in points[4:]
                   if (p - duration) + duration == p)
        seen = {}
        for policy in POLICIES:
            sim, medium, nics = build(policy)
            lazy = ChannelBusyMonitor(sim, nics["m"], period)
            polled = PolledChannelBusyMonitor(sim, nics["m"], period)
            sim.schedule_at(end - duration, functools.partial(
                medium.transmit, nics["a"], frame(size)))
            sim.run_until(end)
            lazy.cbr(1.0)
            seen[policy] = (polled._samples[-1], lazy._samples[-1])
        assert seen == {"fifo": (False, True), "lifo": (True, True),
                        "seeded": (True, True)}


class TestGatekeeperRead:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_state_update_on_a_grid_point_leaves_the_sample_out(
            self, policy):
        # up_window 1.0 and period 0.25: every state update falls on a
        # grid point, and the channel is busy only at those points.
        sim, medium, nics = build(policy)
        gate = DccGatekeeper(sim, nics["m"], DccParameters(
            sample_period=PERIOD))
        reads = []
        monitor = gate.monitor

        class Recorder:
            def cbr(self, window):
                reads.append((sim.now, window, monitor.cbr(window)))
                return reads[-1][2]

        gate.monitor = Recorder()
        for at in (1.0, 2.0):
            busy_over(sim, medium, nics, at)
        sim.run_until(2.0)
        # At 1.0 the read holds 0.25, 0.5 and 0.75 (all idle); at 2.0
        # it adds 1.0 (busy) and 1.25 .. 1.75.
        assert reads == [(1.0, 1.0, 0.0), (1.0, 5.0, 0.0),
                         (2.0, 1.0, 0.25), (2.0, 5.0, 1 / 7)]


# ----------------------------------------------------------------------
# Guards
# ----------------------------------------------------------------------


def loaded_channel(gate: bool, senders: int = 2,
                   ) -> Tuple[Simulator, WirelessMedium, NetworkInterface,
                              Optional[DccGatekeeper]]:
    """The watched NIC "m" among *senders* stations that send a
    1400-byte frame every 2.5 ms."""
    sim = Simulator()
    medium = WirelessMedium(sim, 1,
                            LinkBudget(path_loss=LogDistancePathLoss()))
    nic = NetworkInterface(sim, medium, "m", lambda: (0.0, 0.0),
                           rng=np.random.default_rng(1))
    watcher = DccGatekeeper(sim, nic) if gate else None
    for index in range(senders):
        other = NetworkInterface(sim, medium, f"o{index}",
                                 lambda index=index: (3.0 + index, 0.0),
                                 rng=np.random.default_rng(2 + index))

        def spam(other=other):
            other.send(frame(1400))
            sim.schedule(0.0025, spam)

        sim.schedule(0.001 * (index + 1), spam)
    return sim, medium, nic, watcher


class TestGuards:
    def test_monitor_schedules_no_event(self):
        runs = {}
        for monitored in (False, True):
            sim, medium, nic, _ = loaded_channel(gate=False)
            queue = sim._queue
            pending, pushed = len(queue), queue._count
            if monitored:
                monitor = ChannelBusyMonitor(sim, nic)
                assert (len(queue), queue._count) == (pending, pushed)
            sim.run_until(0.5)
            runs[monitored] = (len(queue), queue._count)
        assert runs[True] == runs[False]
        assert monitor.cbr(1.0) > 0.5

    def test_gate_adds_only_its_state_updates(self):
        runs = {}
        for gate in (False, True):
            sim, medium, nic, _ = loaded_channel(gate)
            sim.run_until(3.0)
            runs[gate] = (sim._queue._count, len(sim._queue),
                          medium.frames_sent)
        # The gate pushes its first update at construction and one
        # more from each of the updates at 1, 2 and 3 s.
        assert runs[True] == (runs[False][0] + 4, runs[False][1] + 1,
                              runs[False][2])

    def test_flip_log_stays_bounded(self):
        sim, medium, nic, gate = loaded_channel(gate=True)
        flips = [0]
        for state in ("busy", "idle"):
            callback = getattr(nic.mac, f"on_medium_{state}")

            def counted(callback=callback):
                flips[0] += 1
                callback()

            setattr(nic.mac, f"on_medium_{state}", counted)
        log = gate.monitor._flips
        bound = gate.monitor._samples.maxlen
        lengths = []
        for until in (3.0, 6.0):
            sim.run_until(until)
            lengths.append(len(log))
        assert flips[0] > bound
        assert all(length <= bound for length in lengths)
        # Each read consumes the log up to its last grid point, so
        # only the flips since the last state update remain.
        assert all(length <= flips[0] / 5 for length in lengths)

    def test_unread_log_drains_at_the_next_read(self):
        sim, medium, nic, _ = loaded_channel(gate=False)
        monitor = ChannelBusyMonitor(sim, nic)
        sim.run_until(1.0)
        assert len(monitor._flips) > 100
        monitor.cbr(1.0)
        assert len(monitor._flips) <= 2

    def test_unmonitored_station_logs_nothing(self):
        testbed = ScaleTestbed(EmergencyBrakeScenario(
            seed=1, start_distance=4.0))
        testbed.run()
        medium = testbed.medium
        assert medium._flip_logs == {}
        assert all(station.flips is None
                   for station in medium._stations.values())

    def test_one_flip_log_per_nic(self):
        sim, medium, nics = build("fifo")
        ChannelBusyMonitor(sim, nics["m"])
        with pytest.raises(ValueError):
            ChannelBusyMonitor(sim, nics["m"])

    @pytest.mark.parametrize("period, offset", [
        (0.0, None), (-1e-3, None), (1e-3, 0.0), (1e-3, float("nan"))])
    def test_grid_must_start_after_construction(self, period, offset):
        sim, medium, nics = build("fifo")
        with pytest.raises(ValueError):
            ChannelBusyMonitor(sim, nics["m"], period, start_offset=offset)
