"""An assembled ITS station: clock + NIC + router + facilities.

:class:`ItsStation` is the building block the OpenC2X layer wraps into
OBUs and RSUs: it owns a device clock (NTP-disciplined), an 802.11p
interface on the shared medium, a GeoNetworking router, the CA and DEN
basic services and an LDM.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple


from repro.facilities.ca_service import CaBasicService, CaConfig, StationState
from repro.facilities.den_service import DenBasicService, DenConfig
from repro.facilities.ldm import Ldm
from repro.geonet.position import FramePosition, GeoPosition
from repro.geonet.router import GeoNetRouter
from repro.messages.common import its_timestamp
from repro.net.medium import WirelessMedium
from repro.net.nic import NetworkInterface
from repro.net.phy import PhyConfig
from repro.sim.clock import DeviceClock, NtpModel
from repro.sim.kernel import Simulator
from repro.sim.randomness import RandomStreams

#: Unix time corresponding to simulated t=0 (2023-03-01T00:00:00Z,
#: around the paper's experiments).
SIM_EPOCH_UNIX = 1677628800.0


class ItsStation:
    """One complete ETSI ITS station.

    Args:
        sim: simulation kernel.
        medium: the shared 802.11p channel.
        streams: named random streams (scoped per station).
        name: unique station name (GN address / NIC name).
        station_id: numeric ITS station identifier.
        station_type: DE_StationType value.
        position: callable returning the current :class:`GeoPosition`;
            mobile stations pass a closure over their vehicle state.
            A :class:`FramePosition` on ``local_frame`` also gives the
            NIC its antenna metres without a geodetic round trip.
        dynamics: callable returning (speed m/s, heading degrees).
        state_provider: full state snapshot for the CA service; when
            None, one is synthesised from ``position`` + ``dynamics``.
        ntp: clock discipline model (defaults to LAN NTP residuals).
        enable_cam: start the CA generation rules.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: WirelessMedium,
        streams: RandomStreams,
        name: str,
        station_id: int,
        station_type: int,
        position: Callable[[], GeoPosition],
        dynamics: Optional[Callable[[], Tuple[float, float]]] = None,
        state_provider: Optional[Callable[[], StationState]] = None,
        phy: Optional[PhyConfig] = None,
        ntp: Optional[NtpModel] = None,
        ca_config: Optional[CaConfig] = None,
        den_config: Optional[DenConfig] = None,
        enable_cam: bool = True,
        is_rsu: bool = False,
        local_frame=None,
        security=None,
    ):
        self.sim = sim
        self.name = name
        self.station_id = station_id
        self.station_type = station_type
        self.position = position
        self.dynamics = dynamics or (lambda: (0.0, 0.0))
        self.local_frame = local_frame
        scoped = streams.spawn(f"station.{name}")
        self.clock = DeviceClock(
            sim, scoped.get("clock"), ntp or NtpModel.lan_default(),
            name=f"{name}.clock")
        antenna = (position.antenna
                   if isinstance(position, FramePosition)
                   and position.frame == local_frame
                   else self._antenna_position)
        self.nic = NetworkInterface(
            sim, medium, name,
            position=antenna,
            phy=phy, rng=scoped.get("mac"))
        self.security = security
        self.router = GeoNetRouter(
            sim, self.nic, position=position, dynamics=self.dynamics,
            rng=scoped.get("geonet"), security=security)
        self.ldm = Ldm(sim)
        provider = state_provider or self._default_state
        self.ca = CaBasicService(
            sim, self.router, self.ldm, station_id, station_type,
            state_provider=provider, its_time=self.its_time,
            config=ca_config, enabled=enable_cam, is_rsu=is_rsu)
        self.den = DenBasicService(
            sim, self.router, self.ldm, station_id, station_type,
            its_time=self.its_time, config=den_config)

    def _antenna_position(self) -> Tuple[float, float]:
        geo = self.position()
        if self.local_frame is not None:
            return self.local_frame.to_local(geo)
        # Fall back to an equirectangular projection around the
        # position itself; adequate because the medium only needs
        # relative distances.
        return (geo.longitude * 111_320.0, geo.latitude * 110_540.0)

    def _default_state(self) -> StationState:
        speed, heading = self.dynamics()
        return StationState(position=self.position(), heading=heading,
                            speed=speed)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def unix_time(self) -> float:
        """This station's wall-clock reading as Unix seconds."""
        return SIM_EPOCH_UNIX + self.clock.now()

    def its_time(self) -> int:
        """This station's TimestampIts (ms since the ITS epoch)."""
        return its_timestamp(self.unix_time())
