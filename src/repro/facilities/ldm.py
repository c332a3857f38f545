"""The Local Dynamic Map (EN 302 895).

The LDM is the station's live picture of its surroundings: every
object it senses directly or learns about through CAMs/DENMs is stored
with a position, a timestamp and a validity horizon.  Consumers query
by object kind, area and freshness, or subscribe for updates --
exactly how the paper's Hazard Advertisement Service "assesses a
potential collision from consulting the LDM".

OpenC2X persists its LDM in sqlite; here the store is in-memory with
the same observable behaviour (insert/update/query/expire).

Objects are frozen and :meth:`Ldm.put` stores its object as it is, so
one object can sit in many stores: every receiver of a broadcast CAM
puts the same one (see :mod:`repro.facilities.ca_service`).

A fleet station puts tens of thousands of received CAMs per run and
usually has no subscriber, so :meth:`Ldm.put` skips notification
outright when nothing subscribes.  Otherwise it
notifies from a snapshot of the subscription list: every subscriber
registered when the put began sees it, even if a callback unsubscribes
during the notification.  Subscriptions compare by identity, so an
unsubscribe function only ever removes its own subscription.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.geonet.position import GeoPosition
from repro.geonet.router import CircularArea
from repro.sim.kernel import Simulator


class ObjectKind(enum.Enum):
    """What kind of world object an LDM entry describes."""

    VEHICLE = "vehicle"
    ROAD_USER = "road_user"
    EVENT = "event"
    TRAFFIC_SIGN = "traffic_sign"
    SENSOR_DETECTION = "sensor_detection"


@dataclasses.dataclass(frozen=True, slots=True)
class LdmObject:
    """One entry of the Local Dynamic Map.

    ``data`` holds the source artefact (a decoded :class:`Cam`, a
    :class:`Denm`, or a sensor detection record); ``key`` identifies
    the world object so updates replace rather than accumulate.
    Frozen, so stores and receivers may share it.
    """

    key: str
    kind: ObjectKind
    position: GeoPosition
    timestamp: float
    valid_until: float
    data: Any = None
    source: str = "sensor"           # "cam" | "denm" | "sensor"
    station_id: Optional[int] = None
    speed: float = 0.0
    heading: float = 0.0

    def is_valid_at(self, now: float) -> bool:
        """Whether the entry is still within its validity horizon."""
        return now <= self.valid_until


Subscriber = Callable[[LdmObject], None]


@dataclasses.dataclass(eq=False)
class _Subscription:
    kinds: Optional[frozenset]
    area: Optional[CircularArea]
    callback: Subscriber


class Ldm:
    """The in-memory Local Dynamic Map store."""

    #: Period of the background expiry sweep (s).
    PURGE_PERIOD = 1.0

    def __init__(self, sim: Simulator, run_purge_process: bool = True):
        self.sim = sim
        self._objects: Dict[str, LdmObject] = {}
        self._subscriptions: List[_Subscription] = []
        self.inserts = 0
        self.updates = 0
        self.expired = 0
        if run_purge_process:
            self.sim.schedule(self.PURGE_PERIOD, self._purge_tick)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def put(self, obj: LdmObject) -> LdmObject:
        """Insert or update *obj* (keyed by ``obj.key``), notifying
        matching subscribers."""
        objects = self._objects
        key = obj.key
        if key in objects:
            self.updates += 1
        else:
            self.inserts += 1
        objects[key] = obj
        if self._subscriptions:
            for sub in list(self._subscriptions):
                if self._matches(sub, obj):
                    sub.callback(obj)
        return obj

    def remove(self, key: str) -> bool:
        """Delete the entry *key*; True if it existed."""
        return self._objects.pop(key, None) is not None

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[LdmObject]:
        """The live entry for *key*, or None (expired entries hidden)."""
        obj = self._objects.get(key)
        if obj is None or not obj.is_valid_at(self.sim.now):
            return None
        return obj

    def query(
        self,
        kinds: Optional[List[ObjectKind]] = None,
        area: Optional[CircularArea] = None,
        not_older_than: Optional[float] = None,
    ) -> List[LdmObject]:
        """All live entries matching the filters.

        Args:
            kinds: restrict to these object kinds.
            area: restrict to entries positioned inside the area.
            not_older_than: maximum age in seconds.
        """
        now = self.sim.now
        kind_set = frozenset(kinds) if kinds is not None else None
        out = []
        for obj in self._objects.values():
            if not obj.is_valid_at(now):
                continue
            if kind_set is not None and obj.kind not in kind_set:
                continue
            if area is not None and not area.contains(obj.position):
                continue
            if (not_older_than is not None
                    and now - obj.timestamp > not_older_than):
                continue
            out.append(obj)
        return out

    def subscribe(
        self,
        callback: Subscriber,
        kinds: Optional[List[ObjectKind]] = None,
        area: Optional[CircularArea] = None,
    ) -> Callable[[], None]:
        """Call *callback* for every future matching put.

        Returns an unsubscribe function.
        """
        sub = _Subscription(
            kinds=frozenset(kinds) if kinds is not None else None,
            area=area,
            callback=callback,
        )
        self._subscriptions.append(sub)

        def unsubscribe() -> None:
            if sub in self._subscriptions:
                self._subscriptions.remove(sub)

        return unsubscribe

    def __len__(self) -> int:
        now = self.sim.now
        return sum(1 for obj in self._objects.values()
                   if obj.is_valid_at(now))

    def __iter__(self) -> Iterator[LdmObject]:
        now = self.sim.now
        return (obj for obj in list(self._objects.values())
                if obj.is_valid_at(now))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _matches(sub: _Subscription, obj: LdmObject) -> bool:
        if sub.kinds is not None and obj.kind not in sub.kinds:
            return False
        if sub.area is not None and not sub.area.contains(obj.position):
            return False
        return True

    def _purge_tick(self) -> None:
        now = self.sim.now
        stale = [key for key, obj in self._objects.items()
                 if not obj.is_valid_at(now)]
        for key in stale:
            del self._objects[key]
        self.expired += len(stale)
        self.sim.schedule(
            # detlint: ignore[SCH001] -- benign: an object inserted at
            # t is still valid at t, so purge order at shared
            # sim-times cannot change which entries are stale
            self.PURGE_PERIOD, self._purge_tick)
