"""The shared broadcast wireless medium.

All attached NICs hear every transmission at a power given by the
:class:`~repro.net.propagation.LinkBudget`.  The medium

* tracks concurrent transmissions and computes per-receiver SINR with
  cumulative interference,
* provides energy-detection carrier sensing to the MACs (with per-NIC
  busy/idle transition callbacks),
* enforces half-duplex operation (a transmitting NIC cannot decode an
  overlapping frame).

Each attachment is one :class:`_Station` record: the NIC, its position
callable, its receive-side PHY constants (a NIC's PHY is frozen) and
its carrier-sense state.  A frame keeps the records it reached, so a
station detached and re-attached mid-frame takes no part in it.

Reception is per frame: when a frame completes, the half-duplex set
(stations on the air during it) and the hash prefix of its order-free
draws are computed once, then every receiver costs one set lookup and
one hash copy -- none when its packet-error rate is exactly 0.0, which
no draw falls below.  Skipping a keyed draw moves no other draw; the
shared-rng draw is never skipped, as every later one depends on how
many came before.

Propagation delay over laboratory distances (metres -> nanoseconds) is
negligible compared to the microsecond MAC timing and is not modelled.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.net.frame import Frame
from repro.net.phy import Mcs
from repro.net.propagation import LinkBudget, dbm_to_mw, mw_to_dbm
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.nic import NetworkInterface


class ChannelImpairment:
    """Fault-injection seam of the medium (see :mod:`repro.faults`).

    An impairment sees every transmission and reception attempt and
    may suppress transmissions (a powered-off radio), drop receptions
    (a localised blackout / loss burst) or add interference energy (a
    jammer).  The default implementation is transparent, and a medium
    without an impairment behaves bit-identically to one carrying
    this no-op -- the seam costs nothing on the happy path.
    """

    def tx_blocked(self, sender_name: str, now: float) -> bool:
        """Whether *sender_name*'s transmission is suppressed at *now*."""
        return False

    def drop_rx(self, receiver_name: str, now: float) -> bool:
        """Whether the reception at *receiver_name* is lost at *now*."""
        return False

    def extra_interference_mw(self, receiver_name: str,
                              now: float) -> float:
        """Additional interference energy (mW) at *receiver_name*."""
        return 0.0


class OrderFreeReception:
    """Order-independent per-reception uniform draws.

    The legacy medium draws every packet-error check from one shared
    generator, so the value a reception sees depends on how many other
    receptions ran before it -- harmless for one station pair, but at
    fleet scale same-timestamp completions make the draw order a
    function of the kernel's tie-break policy.  This draw is keyed by
    ``(seed, sender, the sender's own transmission index, receiver)``
    instead: a station serialises its own transmissions, so the key --
    and therefore the draw -- is identical under fifo, lifo and seeded
    tie-breaking.  Opt-in via ``WirelessMedium(reception_draw=...)``;
    the default medium keeps the shared-rng draw that existing golden
    traces pin.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def prefix(self, sender: str, sequence: int) -> "hashlib._Hash":
        """The hashed key of one transmission, before the receiver."""
        return hashlib.sha256(
            f"{self.seed}:rx:{sender}:{sequence}:".encode("utf-8"))

    @staticmethod
    def draw(prefix: "hashlib._Hash", receiver: bytes) -> float:
        """The U[0, 1) value of one receiver for the keyed transmission.

        *receiver* is the receiver's name in UTF-8.
        """
        key = prefix.copy()
        key.update(receiver)
        return int.from_bytes(key.digest()[:8], "little") / 2.0 ** 64

    def uniform(self, sender: str, sequence: int, receiver: str) -> float:
        """A U[0, 1) value unique to one (transmission, receiver) pair."""
        return self.draw(self.prefix(sender, sequence),
                         receiver.encode("utf-8"))


@dataclasses.dataclass
class ReceptionInfo:
    """Delivered alongside a decoded frame."""

    rx_power_dbm: float
    sinr_db: float
    started_at: float
    ended_at: float


class _Station:
    """One attachment of a NIC: its constants and carrier-sense state."""

    __slots__ = ("nic", "mac", "position", "name", "key", "noise_mw",
                 "rx_sensitivity_dbm", "cs_threshold_dbm", "mcs",
                 "attached", "busy", "audible", "sending")

    def __init__(self, nic: "NetworkInterface"):
        phy = nic.phy
        self.nic = nic
        self.mac = nic.mac
        self.position = nic.position
        self.name = nic.name
        #: The UTF-8 name, the receiver part of an order-free draw key.
        self.key = nic.name.encode("utf-8")
        self.noise_mw = dbm_to_mw(phy.noise_power_dbm)
        self.rx_sensitivity_dbm = phy.rx_sensitivity_dbm
        self.cs_threshold_dbm = phy.cs_threshold_dbm
        self.mcs: Mcs = phy.mcs
        self.attached = False
        self.busy = False
        #: In-flight transmissions audible at / sent by this station.
        self.audible = 0
        self.sending = 0


@dataclasses.dataclass
class _Transmission:
    sender: "NetworkInterface"
    #: The sender's record (a fresh, unattached one for a detached NIC).
    station: _Station
    frame: Frame
    start: float
    end: float
    #: The sender's own 0-based transmission index (tie-break invariant).
    sender_seq: int
    #: (receiver, rx power in dBm, the same in mW) for every other
    #: attached station, drawn at start of frame.
    links: List[Tuple[_Station, float, float]]
    #: interference energy (mW * overlap fraction) per receiver.
    interference_mw: Dict[_Station, float]
    #: Receivers whose energy detection will see this frame, by name.
    audible: Dict[str, _Station]
    #: The sender and the audible receivers in attach order: the
    #: stations whose busy state this transmission can change.
    stations: List[_Station]
    #: Whether the audible counts currently include this transmission.
    sensed: bool = False
    completed: bool = False


class WirelessMedium:
    """The single shared channel all OBUs/RSUs operate on (ITS-G5 CCH)."""

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        budget: Optional[LinkBudget] = None,
        reception_draw: Optional[OrderFreeReception] = None,
        cs_latency: float = 0.0,
    ):
        if cs_latency < 0.0:
            raise ValueError(f"cs_latency must be >= 0, got {cs_latency}")
        self.sim = sim
        self.rng = rng
        self.budget = budget or LinkBudget()
        #: When set, packet-error draws come from this order-free hash
        #: instead of the shared rng (fleet scenarios; see class doc).
        self.reception_draw = reception_draw
        #: Energy-detection latency (s).  0 keeps the legacy synchronous
        #: carrier sense.  A positive value (fleet: one CCA slot worth,
        #: ~4 us) defers the moment other stations sense a new frame, so
        #: stations whose MAC timers expire at the *same instant* all
        #: see an idle channel and collide -- regardless of the order
        #: the kernel pops their tied events in.
        self.cs_latency = cs_latency
        #: The attached stations by name, in attach order.
        self._stations: Dict[str, _Station] = {}
        self._active: List[_Transmission] = []
        # (start, end, sender) of every transmit call, suppressed ones
        # included: a radio that is down still spends the airtime and
        # cannot decode meanwhile.  Pruned at each completion to what
        # can still overlap an in-flight or future frame.
        self._airtime: List[Tuple[float, float, "NetworkInterface"]] = []
        # Per-sender transmission counters for OrderFreeReception keys.
        self._tx_seq: Dict[str, int] = {}
        #: Fault-injection seam; None on the (unimpaired) happy path.
        self.impairment: Optional[ChannelImpairment] = None
        # Statistics
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_lost_noise = 0
        self.frames_lost_collision = 0
        self.frames_below_sensitivity = 0
        self.frames_suppressed = 0
        self.frames_lost_fault = 0

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self, nic: "NetworkInterface") -> None:
        """Register *nic* on the channel."""
        if nic.name in self._stations:
            raise ValueError(f"NIC name {nic.name!r} already attached")
        station = _Station(nic)
        station.attached = True
        self._stations[nic.name] = station

    def detach(self, nic: "NetworkInterface") -> None:
        """Remove *nic* from the channel."""
        station = self._stations.pop(nic.name, None)
        if station is not None:
            station.attached = False

    # ------------------------------------------------------------------
    # Carrier sense
    # ------------------------------------------------------------------

    def is_busy_for(self, nic: "NetworkInterface") -> bool:
        """Energy-detection carrier sense at *nic* (includes own TX).

        O(1): audibility against each frozen ``cs_threshold_dbm`` is
        decided once at transmission start and tracked incrementally.
        A NIC that is not attached senses nothing.
        """
        station = self._stations.get(nic.name)
        return station is not None and (station.sending > 0
                                        or station.audible > 0)

    @staticmethod
    def _update_busy_states(tx: _Transmission) -> None:
        # Only tx's sender and audible receivers had a count change.
        # They are visited in attach order, and busy/idle callbacks
        # never transmit synchronously (the MAC schedules its timers),
        # so the callbacks fire in the order a sweep over every
        # attached NIC produces.
        for station in tx.stations:
            if not station.attached:
                continue
            busy = station.sending > 0 or station.audible > 0
            if busy != station.busy:
                station.busy = busy
                if busy:
                    station.mac.on_medium_busy()
                else:
                    station.mac.on_medium_idle()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def transmit(self, sender: "NetworkInterface", frame: Frame) -> float:
        """Start transmitting *frame* from *sender*; returns the airtime."""
        duration = sender.phy.airtime(frame.wire_size)
        now = self.sim.now
        self._airtime.append((now, now + duration, sender))
        if self.impairment is not None and self.impairment.tx_blocked(
                sender.name, now):
            # The radio is down: the stack believes it transmitted
            # (airtime is still charged) but nothing goes on the air.
            self.frames_suppressed += 1
            return duration
        name = sender.name
        seq = self._tx_seq.get(name, 0)
        self._tx_seq[name] = seq + 1
        own = self._stations.get(name)
        if own is None or own.nic is not sender:
            own = _Station(sender)
        links: List[Tuple[_Station, float, float]] = []
        audible: Dict[str, _Station] = {}
        stations: List[_Station] = []
        received_power_dbm = self.budget.received_power_dbm
        rng = self.rng
        tx_power_dbm = sender.phy.tx_power_dbm
        tx_pos = sender.position()
        for station in self._stations.values():
            if station is own:
                stations.append(station)
                continue
            power = received_power_dbm(rng, tx_power_dbm,
                                       (name, station.name), tx_pos,
                                       station.position())
            links.append((station, power, dbm_to_mw(power)))
            if power >= station.cs_threshold_dbm:
                audible[station.name] = station
                stations.append(station)
        tx = _Transmission(
            sender=sender, station=own, frame=frame, start=now,
            end=now + duration, sender_seq=seq, links=links,
            interference_mw=dict.fromkeys([link[0] for link in links], 0.0),
            audible=audible, stations=stations)
        # Mutual interference with every overlapping transmission.
        for other in self._active:
            self._add_interference(other, tx)
            self._add_interference(tx, other)
        self._active.append(tx)
        self.frames_sent += 1
        own.sending += 1
        obs = self.sim.obs
        if obs is not None:
            obs.count("phy.frames_sent", device=name)
            obs.record_span("phy.tx", now, now + duration, device=name)
            obs.observe("phy.airtime_ms", duration * 1000.0)
            obs.observe("net.airtime_ms", duration * 1000.0, device=name)
        if self.cs_latency > 0.0:
            # Other stations sense the frame only after the energy
            # detector has had cs_latency to react; until then their
            # MACs still see an idle channel.
            self._update_busy_states(tx)
            self.sim.schedule(self.cs_latency, lambda: self._sense(tx))
        else:
            self._apply_sense(tx)
            self._update_busy_states(tx)
        self.sim.schedule(duration, lambda: self._complete(tx))
        return duration

    @staticmethod
    def _apply_sense(tx: _Transmission) -> None:
        tx.sensed = True
        for station in tx.audible.values():
            station.audible += 1

    def _sense(self, tx: _Transmission) -> None:
        """Deferred energy detection (cs_latency > 0)."""
        if tx.completed:
            return
        self._apply_sense(tx)
        self._update_busy_states(tx)

    @staticmethod
    def _add_interference(victim: _Transmission,
                          interferer: _Transmission) -> None:
        overlap = (min(victim.end, interferer.end)
                   - max(victim.start, interferer.start))
        if overlap <= 0:
            return
        fraction = overlap / (victim.end - victim.start)
        # The interferer's own sender is skipped: a receiver that was
        # itself transmitting is modelled separately as half-duplex loss.
        own = interferer.station
        interference = victim.interference_mw
        for station, _dbm, mw in interferer.links:
            if station is not own and station in interference:
                interference[station] += mw * fraction

    def _deaf_during(self, tx: _Transmission) -> Set["NetworkInterface"]:
        """Stations on the air at any point of *tx* (half-duplex).

        Then prunes the airtime log: an entry that ended by the start
        of the earliest in-flight frame, or by now, overlaps no frame
        that is still to complete.
        """
        deaf = {sender for start, end, sender in self._airtime
                if min(end, tx.end) > max(start, tx.start)}
        horizon = min([self.sim.now] + [a.start for a in self._active])
        self._airtime = [entry for entry in self._airtime
                         if entry[1] > horizon]
        return deaf

    def _complete(self, tx: _Transmission) -> None:
        self._active.remove(tx)
        tx.completed = True
        tx.station.sending -= 1
        if tx.sensed:
            for station in tx.audible.values():
                station.audible -= 1
        deaf = self._deaf_during(tx)
        reception_draw = self.reception_draw
        prefix = (None if reception_draw is None
                  else reception_draw.prefix(tx.sender.name, tx.sender_seq))
        frame = tx.frame
        wire_size = frame.wire_size
        interference = tx.interference_mw
        impairment = self.impairment
        obs = self.sim.obs
        for station, rx_power_dbm, rx_mw in tx.links:
            if not station.attached:
                continue
            nic = station.nic
            if rx_power_dbm < station.rx_sensitivity_dbm:
                self.frames_below_sensitivity += 1
                continue
            if impairment is not None and impairment.drop_rx(
                    station.name, self.sim.now):
                self.frames_lost_fault += 1
                nic.on_frame_lost(frame, reason="fault")
                continue
            if nic in deaf:
                self.frames_lost_collision += 1
                nic.on_frame_lost(frame, reason="half-duplex")
                continue
            noise_mw = station.noise_mw
            interference_mw = interference[station]
            if impairment is not None:
                interference_mw += impairment.extra_interference_mw(
                    station.name, self.sim.now)
            sinr_linear = rx_mw / (noise_mw + interference_mw)
            per = station.mcs.packet_error_rate(sinr_linear, wire_size)
            if prefix is None:
                lost = float(self.rng.random()) < per
            else:
                # No draw can fall below a PER of 0.0 (see module doc).
                lost = per != 0.0 and OrderFreeReception.draw(
                    prefix, station.key) < per
            if lost:
                if interference_mw > noise_mw:
                    self.frames_lost_collision += 1
                    nic.on_frame_lost(frame, reason="collision")
                else:
                    self.frames_lost_noise += 1
                    nic.on_frame_lost(frame, reason="noise")
                continue
            self.frames_delivered += 1
            if obs is not None:
                obs.count("phy.frames_delivered", device=station.name)
            nic.deliver(frame, ReceptionInfo(
                rx_power_dbm, mw_to_dbm(sinr_linear), tx.start, tx.end))
        self._update_busy_states(tx)

    @property
    def active_count(self) -> int:
        """Number of transmissions currently on the air."""
        return len(self._active)

    def stats(self) -> Dict[str, int]:
        """Counters for delivered/lost frames."""
        return {
            "sent": self.frames_sent,
            "delivered": self.frames_delivered,
            "lost_noise": self.frames_lost_noise,
            "lost_collision": self.frames_lost_collision,
            "below_sensitivity": self.frames_below_sensitivity,
            "suppressed": self.frames_suppressed,
            "lost_fault": self.frames_lost_fault,
        }
