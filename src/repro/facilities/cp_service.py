"""Collective Perception service.

Transmit side (typically the road-side station): a provider callable
supplies the current perceived objects (from the edge tracker or raw
detections); the service broadcasts them as CPMs at a fixed rate.
Receive side: perceived objects are georeferenced against the
originator's position and stored in the LDM as ROAD_USER entries, so
any application that consults the LDM -- a collision monitor, a
planner -- sees road users beyond its own sensors.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

from repro.facilities.ldm import Ldm, LdmObject, ObjectKind
from repro.geonet.position import GeoPosition, LocalFrame
from repro.geonet.router import GeoNetRouter
from repro.messages.cam import generation_delta_time
from repro.messages.common import ReferencePosition
from repro.messages.cpm import Cpm, PerceivedObject
from repro.net.frame import AccessCategory
from repro.sim.kernel import Simulator

#: BTP port for CPM (TS 103 248 assigns 2009).
CPM_PORT = 2009

ObjectsProvider = Callable[[], Sequence[PerceivedObject]]
CpmCallback = Callable[[Cpm], None]


@dataclasses.dataclass(frozen=True)
class CpConfig:
    """Service parameters."""

    #: CPM transmission rate (Hz); the standard adapts 1-10 Hz.
    rate: float = 5.0
    #: Validity horizon of perceived objects in a receiver's LDM (s).
    ldm_lifetime: float = 1.0
    #: Skip transmissions with no perceived objects.
    suppress_empty: bool = True


class CpService:
    """One station's Collective Perception service."""

    def __init__(
        self,
        sim: Simulator,
        router: GeoNetRouter,
        ldm: Ldm,
        station_id: int,
        station_type: int,
        position: Callable[[], GeoPosition],
        its_time: Callable[[], int],
        local_frame: Optional[LocalFrame] = None,
        provider: Optional[ObjectsProvider] = None,
        config: Optional[CpConfig] = None,
    ):
        self.sim = sim
        self.router = router
        self.ldm = ldm
        self.station_id = station_id
        self.station_type = station_type
        self.position = position
        self.its_time = its_time
        self.local_frame = local_frame or LocalFrame()
        self.provider = provider
        self.config = config or CpConfig()
        self._callbacks: List[CpmCallback] = []
        self.cpms_sent = 0
        self.cpms_received = 0
        self.objects_shared = 0
        self.objects_learned = 0
        router.btp.register(CPM_PORT, self._on_payload)
        if provider is not None:
            sim.schedule(1.0 / self.config.rate, self._tick)

    # ------------------------------------------------------------------
    # Transmit side
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self.transmit_now()
        self.sim.schedule(1.0 / self.config.rate, self._tick)

    def transmit_now(self) -> bool:
        """Broadcast the provider's current objects; False if skipped."""
        assert self.provider is not None
        objects = tuple(self.provider())
        if not objects and self.config.suppress_empty:
            return False
        geo = self.position()
        cpm = Cpm(
            station_id=self.station_id,
            station_type=self.station_type,
            generation_delta_time=generation_delta_time(self.its_time()),
            reference_position=ReferencePosition(geo.latitude,
                                                 geo.longitude),
            perceived_objects=objects,
        )
        self.router.send_shb(cpm.encode(), CPM_PORT,
                             traffic_class=AccessCategory.AC_VI)
        self.cpms_sent += 1
        self.objects_shared += len(objects)
        return True

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------

    def on_cpm(self, callback: CpmCallback) -> None:
        """Register an application callback for received CPMs."""
        self._callbacks.append(callback)

    def _on_payload(self, payload: bytes) -> None:
        cpm = Cpm.decode(payload)
        self.cpms_received += 1
        origin_x, origin_y = self.local_frame.to_local(GeoPosition(
            cpm.reference_position.latitude,
            cpm.reference_position.longitude))
        for obj in cpm.perceived_objects:
            self.objects_learned += 1
            world = self.local_frame.to_geo(origin_x + obj.x_offset,
                                            origin_y + obj.y_offset)
            self.ldm.put(LdmObject(
                key=f"cpm:{cpm.station_id}:{obj.object_id}",
                kind=ObjectKind.ROAD_USER,
                position=world,
                timestamp=self.sim.now,
                valid_until=self.sim.now + self.config.ldm_lifetime,
                data=obj,
                source="cpm",
                station_id=cpm.station_id,
                speed=obj.speed,
            ))
        for callback in self._callbacks:
            callback(cpm)
