"""Tests for the Local Dynamic Map."""

import dataclasses

import pytest

from repro.facilities import Ldm, LdmObject, ObjectKind
from repro.geonet import CircularArea, LocalFrame
from repro.sim import Simulator

FRAME = LocalFrame()


def make_object(key="obj", kind=ObjectKind.VEHICLE, x=0.0, y=0.0,
                timestamp=0.0, valid_for=10.0, **extra):
    return LdmObject(
        key=key, kind=kind, position=FRAME.to_geo(x, y),
        timestamp=timestamp, valid_until=timestamp + valid_for, **extra)


class TestStore:
    def test_put_and_get(self):
        sim = Simulator()
        ldm = Ldm(sim, run_purge_process=False)
        ldm.put(make_object("a"))
        assert ldm.get("a") is not None
        assert len(ldm) == 1

    def test_update_replaces(self):
        sim = Simulator()
        ldm = Ldm(sim, run_purge_process=False)
        ldm.put(make_object("a", speed=1.0))
        ldm.put(make_object("a", speed=2.0))
        assert len(ldm) == 1
        assert ldm.get("a").speed == 2.0
        assert ldm.inserts == 1
        assert ldm.updates == 1

    def test_put_leaves_object_untouched(self):
        sim = Simulator()
        ldm = Ldm(sim, run_purge_process=False)
        obj = make_object("a", speed=1.5, data=("cam", 7))
        before = dataclasses.astuple(obj)
        assert ldm.put(obj) is obj
        ldm.put(obj)
        assert dataclasses.astuple(obj) == before
        assert ldm.get("a") is obj

    def test_one_object_in_two_stores(self):
        sim = Simulator()
        first = Ldm(sim, run_purge_process=False)
        second = Ldm(sim, run_purge_process=False)
        shared = make_object("shared")
        first.put(shared)
        second.put(shared)
        assert first.get("shared") is second.get("shared") is shared
        first.remove("shared")
        assert first.get("shared") is None
        assert second.get("shared") is shared

    def test_object_is_frozen(self):
        obj = make_object("a")
        for field in dataclasses.fields(LdmObject):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field.name, getattr(obj, field.name))

    def test_remove(self):
        sim = Simulator()
        ldm = Ldm(sim, run_purge_process=False)
        ldm.put(make_object("a"))
        assert ldm.remove("a")
        assert not ldm.remove("a")
        assert ldm.get("a") is None

    def test_expired_entry_hidden(self):
        sim = Simulator()
        ldm = Ldm(sim, run_purge_process=False)
        ldm.put(make_object("a", valid_for=1.0))
        sim.run_until(2.0)
        assert ldm.get("a") is None
        assert len(ldm) == 0

    def test_purge_process_removes_expired(self):
        sim = Simulator()
        ldm = Ldm(sim)  # purge process on
        ldm.put(make_object("a", valid_for=0.5))
        sim.run_until(2.5)
        assert ldm.expired == 1


class TestQuery:
    def build(self):
        sim = Simulator()
        ldm = Ldm(sim, run_purge_process=False)
        ldm.put(make_object("veh1", ObjectKind.VEHICLE, x=0.0))
        ldm.put(make_object("veh2", ObjectKind.VEHICLE, x=100.0))
        ldm.put(make_object("event", ObjectKind.EVENT, x=1.0))
        return sim, ldm

    def test_query_all(self):
        _sim, ldm = self.build()
        assert len(ldm.query()) == 3

    def test_query_by_kind(self):
        _sim, ldm = self.build()
        vehicles = ldm.query(kinds=[ObjectKind.VEHICLE])
        assert {v.key for v in vehicles} == {"veh1", "veh2"}

    def test_query_by_area(self):
        _sim, ldm = self.build()
        area = CircularArea(FRAME.to_geo(0, 0), 10.0)
        nearby = ldm.query(area=area)
        assert {v.key for v in nearby} == {"veh1", "event"}

    def test_query_by_kind_and_area(self):
        _sim, ldm = self.build()
        area = CircularArea(FRAME.to_geo(0, 0), 10.0)
        out = ldm.query(kinds=[ObjectKind.VEHICLE], area=area)
        assert [v.key for v in out] == ["veh1"]

    def test_query_by_age(self):
        sim, ldm = self.build()
        sim.run_until(5.0)
        ldm.put(make_object("fresh", ObjectKind.VEHICLE, timestamp=5.0,
                            x=2.0))
        recent = ldm.query(not_older_than=1.0)
        assert [v.key for v in recent] == ["fresh"]

    def test_iteration_skips_expired(self):
        sim = Simulator()
        ldm = Ldm(sim, run_purge_process=False)
        ldm.put(make_object("short", valid_for=1.0))
        ldm.put(make_object("long", valid_for=100.0))
        sim.run_until(2.0)
        assert [o.key for o in ldm] == ["long"]


class TestSubscriptions:
    def test_subscriber_notified(self):
        sim = Simulator()
        ldm = Ldm(sim, run_purge_process=False)
        got = []
        ldm.subscribe(lambda obj: got.append(obj.key))
        ldm.put(make_object("a"))
        assert got == ["a"]

    def test_kind_filter(self):
        sim = Simulator()
        ldm = Ldm(sim, run_purge_process=False)
        got = []
        ldm.subscribe(lambda obj: got.append(obj.key),
                      kinds=[ObjectKind.EVENT])
        ldm.put(make_object("veh", ObjectKind.VEHICLE))
        ldm.put(make_object("evt", ObjectKind.EVENT))
        assert got == ["evt"]

    def test_area_filter(self):
        sim = Simulator()
        ldm = Ldm(sim, run_purge_process=False)
        got = []
        ldm.subscribe(lambda obj: got.append(obj.key),
                      area=CircularArea(FRAME.to_geo(0, 0), 5.0))
        ldm.put(make_object("near", x=1.0))
        ldm.put(make_object("far", x=50.0))
        assert got == ["near"]

    def test_unsubscribe(self):
        sim = Simulator()
        ldm = Ldm(sim, run_purge_process=False)
        got = []
        unsubscribe = ldm.subscribe(lambda obj: got.append(obj.key))
        ldm.put(make_object("a"))
        unsubscribe()
        ldm.put(make_object("b"))
        assert got == ["a"]

    def test_unsubscribe_twice_is_noop(self):
        sim = Simulator()
        ldm = Ldm(sim, run_purge_process=False)
        unsubscribe = ldm.subscribe(lambda obj: None)
        unsubscribe()
        unsubscribe()

    def test_unsubscribe_removes_only_its_own_subscription(self):
        # The same callback subscribed twice: calling the first
        # unsubscribe function again must not remove the second.
        sim = Simulator()
        ldm = Ldm(sim, run_purge_process=False)
        got = []

        def callback(obj):
            got.append(obj.key)

        first = ldm.subscribe(callback)
        ldm.subscribe(callback)
        first()
        first()
        ldm.put(make_object("a"))
        assert got == ["a"]

    def test_unsubscribe_during_notification_skips_no_one(self):
        sim = Simulator()
        ldm = Ldm(sim, run_purge_process=False)
        got = []

        def once(obj):
            got.append(("once", obj.key))
            unsubscribe_once()

        unsubscribe_once = ldm.subscribe(once)
        ldm.subscribe(lambda obj: got.append(("always", obj.key)))
        ldm.put(make_object("a"))
        ldm.put(make_object("b"))
        assert got == [("once", "a"), ("always", "a"), ("always", "b")]
