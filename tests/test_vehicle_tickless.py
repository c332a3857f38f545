"""Differential tests: the tickless vehicle and the sleeping action-point
watcher against the ticked oracle in :mod:`tests.reference.dynamics`.

* The integrator takes its steps when a reader pulls them, and must
  produce the same floats as the self-rescheduling tick, whatever the
  read schedule -- including no read at all until after ``run_until``.
* ``VehicleDynamics.reach(h)`` must bound the distance the vehicle
  actually covers in the next ``h`` seconds, under any command.
* ``ScaleTestbed._watch_action_point`` sleeps past the grid points the
  vehicle cannot reach, and must record the same ``(sim_time, speed,
  odometer)`` bits as the 1 ms poll, or nothing when the poll records
  nothing.
"""

import math
import types
from typing import List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.measurement import StepTimeline, Steps
from repro.core.scenario import EmergencyBrakeScenario
from repro.core.testbed import ScaleTestbed
from repro.sim import Simulator
from repro.vehicle.dynamics import VehicleDynamics, VehicleParams, VehicleState
from tests.reference.dynamics import TickedVehicleDynamics, poll_action_point

DT = 2e-3
RUN_UNTIL = 3.0


def grid_point(k: int, period: float = DT) -> float:
    """The k-th point of a grid built by repeated ``+= period``."""
    t = 0.0
    for _ in range(k):
        t += period
    return t


#: Command times: anywhere, or exactly on an integration grid point
#: (where a command ties with the step due at the same time).
times = st.one_of(
    st.floats(0.0, RUN_UNTIL),
    st.integers(1, int(RUN_UNTIL / DT) - 1).map(grid_point))

commands = st.one_of(
    st.tuples(st.just("throttle"), st.floats(0.0, 1.0)),
    st.tuples(st.just("steer"), st.floats(-0.6, 0.6)),
    st.tuples(st.just("cut"), st.booleans()))

scripts = st.lists(st.tuples(times, commands), max_size=8)

params = st.builds(
    VehicleParams,
    mass=st.floats(0.5, 10.0),
    max_motor_force=st.floats(0.0, 60.0),
    max_speed=st.floats(0.5, 16.0),
    speed_gain=st.floats(0.5, 8.0),
    drag_coefficient=st.floats(0.0, 0.5),
    rolling_resistance=st.floats(0.0, 2.0),
    brake_deceleration=st.floats(0.5, 10.0),
    steering_rate=st.floats(0.5, 8.0),
    max_steering=st.floats(0.05, 0.6))


def apply(dynamics, command: Tuple[str, object]) -> None:
    kind, value = command
    if kind == "throttle":
        dynamics.set_throttle(value)
    elif kind == "steer":
        dynamics.set_steering(value)
    else:
        dynamics.cut_power(brake=value)


def schedule_script(sim: Simulator, dynamics, script) -> None:
    for when, command in script:
        sim.schedule_at(when, lambda c=command: apply(dynamics, c))


def snapshot(dynamics) -> List[str]:
    """Every integrated float of *dynamics*, as exact hex strings."""
    s = dynamics.state
    return [v.hex() for v in (s.x, s.y, s.heading, s.speed, s.steering,
                              dynamics.odometer)]


# ---------------------------------------------------------------------------
# The integrator
# ---------------------------------------------------------------------------


class TestTicklessIntegrator:
    @settings(max_examples=60, deadline=None)
    @given(params=params, speed=st.floats(0.0, 4.0),
           heading=st.floats(-math.pi, math.pi), script=scripts,
           reads=st.lists(times, max_size=12))
    def test_matches_ticked_under_any_read_schedule(
            self, params, speed, heading, script, reads):
        sim = Simulator()
        start = dict(x=1.5, y=-0.25, heading=heading, speed=speed)
        tickless = VehicleDynamics(sim, params=params,
                                   state=VehicleState(**start))
        ticked = TickedVehicleDynamics(sim, params=params,
                                       state=VehicleState(**start))
        for dynamics in (tickless, ticked):
            schedule_script(sim, dynamics, script)
        seen = []
        for when in reads:
            sim.schedule_at(when, lambda: seen.append(
                (snapshot(tickless), snapshot(ticked))))
        sim.run_until(RUN_UNTIL)
        for mine, theirs in seen:
            assert mine == theirs
        assert snapshot(tickless) == snapshot(ticked)

    def test_odometer_pulls_without_any_other_reader(self):
        # Nothing reads the tickless vehicle before run_until returns:
        # a read that skipped catch-up would see odometer 0.
        sim = Simulator()
        tickless = VehicleDynamics(sim)
        ticked = TickedVehicleDynamics(sim)
        tickless.set_throttle(0.5)
        ticked.set_throttle(0.5)
        sim.run_until(1.0)
        assert tickless.odometer > 0.0
        assert tickless.odometer.hex() == ticked.odometer.hex()

    def test_params_change_keeps_steps_already_due(self):
        # A parameter change (the weak-brakes fault) must not reach back
        # over steps due before it that no reader has pulled yet.
        sim = Simulator()
        tickless = VehicleDynamics(sim)
        ticked = TickedVehicleDynamics(sim)
        weak = VehicleParams(brake_deceleration=1.0)
        for dynamics in (tickless, ticked):
            dynamics.set_throttle(0.3)
            sim.schedule_at(0.4001, dynamics.cut_power)

            def weaken(d=dynamics):
                d.params = weak
            sim.schedule_at(0.5001, weaken)
        sim.run_until(1.5)
        assert snapshot(tickless) == snapshot(ticked)

    def test_no_event_of_its_own(self):
        sim = Simulator()
        VehicleDynamics(sim).set_throttle(1.0)
        assert sim.peek() == math.inf


# ---------------------------------------------------------------------------
# The reach bound
# ---------------------------------------------------------------------------


class TestReach:
    @settings(max_examples=150, deadline=None)
    @given(params=params, speed=st.floats(0.0, 10.0),
           heading=st.floats(-math.pi, math.pi),
           x=st.floats(-50.0, 50.0), script=scripts,
           start=times, horizon=st.one_of(
               st.floats(0.0, 1.5),
               st.integers(0, 750).map(lambda k: k * DT),
               st.integers(0, 1500).map(lambda k: grid_point(k, 1e-3))))
    def test_never_exceeded(self, params, speed, heading, x, script,
                            start, horizon):
        sim = Simulator()
        dynamics = VehicleDynamics(
            sim, params=params,
            state=VehicleState(x=x, y=0.5, heading=heading, speed=speed))
        schedule_script(sim, dynamics, script)
        end = start + horizon
        seen = {}

        def begin():
            s = dynamics.state
            seen["reach"] = dynamics.reach(end - sim.now)
            seen["from"] = (s.x, s.y, dynamics.odometer)

        def finish():
            s = dynamics.state
            seen["to"] = (s.x, s.y, dynamics.odometer)

        sim.schedule_at(start, begin)
        sim.schedule_at(end, finish)
        sim.run_until(end)
        (x0, y0, odo0), (x1, y1, odo1) = seen["from"], seen["to"]
        assert odo1 - odo0 <= seen["reach"]
        assert math.hypot(x1 - x0, y1 - y0) <= seen["reach"]
        # The camera-distance check the watcher relies on.
        assert math.hypot(x0, y0) - math.hypot(x1, y1) <= seen["reach"]

    def test_full_throttle_from_rest_stays_inside(self):
        sim = Simulator()
        dynamics = VehicleDynamics(sim)
        bound = dynamics.reach(1.0)
        dynamics.set_throttle(1.0)
        sim.run_until(1.0)
        assert 0.0 < dynamics.odometer <= bound


# ---------------------------------------------------------------------------
# The action-point watcher
# ---------------------------------------------------------------------------


class _Vehicle:
    def __init__(self, dynamics):
        self.dynamics = dynamics

    @property
    def position(self):
        return self.dynamics.state.position()

    @property
    def speed(self):
        return self.dynamics.state.speed


class _Bed:
    """The slice of :class:`ScaleTestbed` the watcher reads."""

    WATCH_PERIOD = ScaleTestbed.WATCH_PERIOD
    MAX_SLEEP = ScaleTestbed.MAX_SLEEP
    distance_to_camera = ScaleTestbed.distance_to_camera
    _trace = ScaleTestbed._trace
    tracer = None

    def __init__(self, sim, dynamics, action_distance):
        self.sim = sim
        self.vehicle = _Vehicle(dynamics)
        self.scenario = types.SimpleNamespace(
            action_distance=action_distance)
        self.timeline = StepTimeline()
        self._action_point_odometer: Optional[float] = None
        sim.schedule(self.WATCH_PERIOD, self._watch_action_point)


class _SleepingBed(_Bed):
    _watch_action_point = ScaleTestbed._watch_action_point


class _PollingBed(_Bed):
    _watch_action_point = poll_action_point


def watch(bed_cls, dynamics_cls, params, start, lateral, action_distance,
          script) -> Tuple[Optional[List[str]], int]:
    """The recorded ``(sim_time, speed, odometer)`` and the kernel's
    event count."""
    sim = Simulator()
    dynamics = dynamics_cls(sim, params=params, state=VehicleState(
        x=start, y=-lateral, heading=math.pi))
    bed = bed_cls(sim, dynamics, action_distance)
    schedule_script(sim, dynamics, script)
    events = 0
    while sim.peek() <= RUN_UNTIL:
        sim.step()
        events += 1
    step = bed.timeline.get(Steps.ACTION_POINT)
    if step is None:
        return None, events
    return [v.hex() for v in (step.sim_time, step.detail["speed"],
                              bed._action_point_odometer)], events


class TestSleepingWatcher:
    @settings(max_examples=80, deadline=None)
    @given(params=params, start=st.floats(0.5, 8.0),
           share=st.floats(0.0, 1.1), lateral=st.floats(-0.5, 0.5),
           throttle=st.floats(0.0, 1.0), script=scripts)
    def test_records_what_the_poll_records(self, params, start, share,
                                           lateral, throttle, script):
        # The action distance as a share of the start distance: > 1
        # records at the first wake, < 1 only after the watcher slept.
        action = start * share
        script = [(0.0, ("throttle", throttle))] + script
        sleeping, _ = watch(_SleepingBed, VehicleDynamics, params, start,
                            lateral, action, script)
        polling, _ = watch(_PollingBed, TickedVehicleDynamics, params,
                           start, lateral, action, script)
        assert sleeping == polling

    def test_sleeps_instead_of_polling(self):
        args = (VehicleParams(), 4.0, 0.1, 2.0,
                [(0.0, ("throttle", 0.19))])
        sleeping, wakes = watch(_SleepingBed, VehicleDynamics, *args)
        polling, polls = watch(_PollingBed, TickedVehicleDynamics, *args)
        assert sleeping is not None and sleeping == polling
        assert wakes * 20 < polls

    def test_testbed_records_in_few_wakes(self, monkeypatch):
        wakes = []
        original = ScaleTestbed._watch_action_point

        def counted(self):
            wakes.append(self.sim.now)
            original(self)

        monkeypatch.setattr(ScaleTestbed, "_watch_action_point", counted)
        testbed = ScaleTestbed(EmergencyBrakeScenario(seed=3,
                                                      start_distance=4.0))
        testbed.run()
        action = testbed.timeline.get(Steps.ACTION_POINT)
        assert action is not None and action.sim_time == wakes[-1]
        assert len(wakes) < 50
