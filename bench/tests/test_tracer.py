"""Self-time accounting, layer lookup and patch restoration."""

import functools
import os

import pytest

import repro
import tracer as tracer_mod
from repro.net.medium import WirelessMedium
from repro.sim.kernel import Simulator
from tracer import Tracer, patched, unrestored

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_duration_minus_wrapped_children():
    clock = FakeClock()
    tracer = Tracer(PACKAGE_DIR, clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        timed_leaf()
        clock.advance(0.5)
        timed_leaf()

    def outer():
        clock.advance(3.0)
        timed_middle()
        clock.advance(4.0)

    timed_leaf = tracer.frame("net.leaf", leaf)
    timed_middle = tracer.frame("geonet.middle", middle)
    tracer.frame("core.outer", outer)()

    assert tracer.self_s() == {"core.outer": 7.0, "geonet.middle": 1.5,
                               "net.leaf": 4.0}
    assert tracer.calls() == {"core.outer": 1, "geonet.middle": 1,
                              "net.leaf": 2}
    assert sum(tracer.self_s().values()) == 12.5
    assert tracer.depth == 0


def test_a_raising_call_still_closes_its_frame():
    clock = FakeClock()
    tracer = Tracer(PACKAGE_DIR, clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.frame("net.boom", boom)()
    assert tracer.depth == 0
    assert tracer.self_s() == {"net.boom": 1.0}


def test_materialize_charges_generator_work_inside_the_frame():
    clock = FakeClock()
    tracer = Tracer(PACKAGE_DIR, clock=clock)

    def findings():
        clock.advance(1.0)
        yield "a"
        clock.advance(1.0)
        yield "b"

    wrapped = tracer.timed("analysis.det", materialize=True)(findings)
    assert tracer.frame("analysis.unit", lambda: list(wrapped()))() \
        == ["a", "b"]
    assert tracer.self_s() == {"analysis.det": 2.0, "analysis.unit": 0.0}


def test_layer_of_function_bound_method_lambda_and_partial():
    tracer = Tracer(PACKAGE_DIR)
    sim = Simulator()
    in_vision = eval(compile("lambda: None",  # noqa: S307 - fixed text
                             os.path.join(PACKAGE_DIR, "vision", "x.py"),
                             "eval"))

    assert tracer.layer_of(WirelessMedium.transmit) == "net"
    assert tracer.layer_of(sim.run_until) == "sim"
    assert tracer.layer_of(in_vision) == "vision"
    assert tracer.layer_of(functools.partial(sim.schedule, 1.0)) == "sim"
    assert tracer.layer_of(functools.wraps(WirelessMedium.transmit)(
        lambda: None)) == "net"
    assert tracer.layer_of(lambda: None) is None
    assert tracer.layer_of(len) is None


def test_charging_wraps_the_registered_callback_with_its_layer():
    clock = FakeClock()
    tracer = Tracer(PACKAGE_DIR, clock=clock)
    sim = Simulator()
    registered = []

    def register(_owner, callback):
        registered.append(callback)

    charge = tracer.charging(1, "event", fallback="sim")(register)
    charge(None, sim.stop)
    charge(None, lambda: clock.advance(1.0))
    for callback in registered:
        callback()
    assert tracer.self_s() == {"sim.event": 1.0}
    assert tracer.calls() == {"sim.event": 2}


class Owner:
    @staticmethod
    def static(value):
        return value + 1

    @classmethod
    def klass(cls, value):
        return (cls.__name__, value)

    def plain(self):
        return "plain"


class Child(Owner):
    pass


def test_patched_restores_every_kind_of_attribute():
    tracer = Tracer(PACKAGE_DIR)
    originals = {name: vars(Owner)[name]
                 for name in ("static", "klass", "plain")}
    table = [(Owner, "static", tracer.timed("core.static")),
             (Owner, "klass", tracer.timed("core.klass")),
             (Child, "plain", tracer.timed("core.plain")),
             (tracer_mod, "code_of", tracer.timed("core.code_of"))]
    with patched(table) as saved:
        assert Owner.static(1) == 2
        assert Child.klass(2) == ("Child", 2)
        assert Child().plain() == "plain"
        assert "plain" in vars(Child)
    assert unrestored(saved) == []
    assert "plain" not in vars(Child)
    assert {name: vars(Owner)[name] for name in originals} == originals
    assert tracer.calls() == {"core.code_of": 0, "core.klass": 1,
                              "core.plain": 1, "core.static": 1}


def test_unrestored_names_a_replaced_original():
    tracer = Tracer(PACKAGE_DIR)
    with patched([(Owner, "plain", tracer.timed("core.plain"))]) as saved:
        pass
    original = Owner.plain
    Owner.plain = lambda self: "changed"
    try:
        assert unrestored(saved) == ["Owner.plain"]
    finally:
        Owner.plain = original
