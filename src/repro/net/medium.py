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
its carrier-sense state.  Every attachment takes the next *slot*,
never reused.  A frame keeps the records it reached, so a station
detached and re-attached mid-frame takes no part in it, and keeps the
interference at its receivers as one float64 array by slot, so adding
an overlapping frame's energy is one array add.

Reception takes one of two paths, fixed at construction:

* **keyed + vector** (a ``reception_draw`` is set; the fleet): a
  frame's link math is one numpy pass over the attached stations.
  :meth:`WirelessMedium.transmit` reads every antenna position once
  into arrays and computes distance -> path loss -> received power;
  the frame's completion computes SINR -> BER -> PER and one
  :class:`OrderFreeReception` draw per receiver as arrays.  A keyed
  medium refuses a link budget with shadowing or fading, whose
  per-link values come from the shared rng in link order.
* **shared rng + scalar** (the default; the brake, two-station
  blind-corner and platoon scenarios): received power link by link
  in attach order, and at completion one PER and one shared-rng draw
  per reception that reaches the check.  The number of draws is part
  of the golden traces, so this path keeps that loop as it was.

Either way, when a frame completes the half-duplex set (stations on
the air during it) is computed once, and Python stays per receiver
only for the attached, sensitivity, impairment and half-duplex checks,
the loss reasons and the delivery.

Propagation delay over laboratory distances (metres -> nanoseconds) is
negligible compared to the microsecond MAC timing and is not modelled.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.net.frame import Frame
from repro.net.phy import Mcs, packet_error_rates
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
        """Additional interference energy (mW) at *receiver_name*.

        A pure function of its arguments: the keyed medium asks it for
        every station a completing frame reached, before any check.
        """
        return 0.0


#: splitmix64 (Steele, Lea and Flood, OOPSLA 2014): the golden-ratio
#: increment and the two multipliers of its output mix.
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """The splitmix64 output mix of one 64-bit integer."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


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

    The draw is a keyed splitmix64.  Every station has a fixed 64-bit
    key, the first eight bytes (little-endian) of the SHA-256 of its
    name, taken once at attach.  A transmission's key mixes the seed,
    the sender's key and its index (:meth:`frame_key`); a receiver's
    value mixes that with the receiver's key, and its top 53 bits give
    ``u = (z >> 11) * 2**-53``.  :meth:`uniforms` does this for every
    receiver of a frame in ``uint64`` arrays; :meth:`uniform` is the
    scalar entry point and returns the same bits.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._seed_key = _mix64(self.seed & _MASK64)

    @staticmethod
    def station_key(name: str) -> int:
        """The fixed 64-bit key of the station called *name*."""
        return int.from_bytes(
            hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")

    def frame_key(self, sender_key: int, sequence: int) -> int:
        """The key of the sender's transmission number *sequence*."""
        return _mix64(((self._seed_key ^ sender_key)
                       + (sequence + 1) * _GAMMA) & _MASK64)

    @staticmethod
    def uniforms(frame_key: int, receiver_keys: np.ndarray) -> np.ndarray:
        """The U[0, 1) value of every receiver (``uint64`` keys)."""
        z = receiver_keys ^ np.uint64(frame_key)
        z ^= z >> 30
        z *= np.uint64(_MIX1)
        z ^= z >> 27
        z *= np.uint64(_MIX2)
        z ^= z >> 31
        z >>= 11
        return z.astype(np.float64) * 2.0 ** -53

    def uniform(self, sender: str, sequence: int, receiver: str) -> float:
        """A U[0, 1) value unique to one (transmission, receiver) pair."""
        z = _mix64(self.frame_key(self.station_key(sender), sequence)
                   ^ self.station_key(receiver))
        return (z >> 11) * 2.0 ** -53


@dataclasses.dataclass(slots=True)
class ReceptionInfo:
    """Delivered alongside a decoded frame."""

    rx_power_dbm: float
    sinr_db: float
    started_at: float
    ended_at: float


class _Station:
    """One attachment of a NIC: its constants and carrier-sense state."""

    __slots__ = ("nic", "mac", "position", "name", "slot", "key",
                 "noise_mw", "rx_sensitivity_dbm", "cs_threshold_dbm", "mcs",
                 "attached", "busy", "audible", "sending")

    def __init__(self, nic: "NetworkInterface", slot: int, key: int):
        phy = nic.phy
        self.nic = nic
        self.mac = nic.mac
        self.position = nic.position
        self.name = nic.name
        #: The attachment's index in per-slot arrays (-1: not attached).
        self.slot = slot
        #: The order-free draw key of the station (0 without one).
        self.key = key
        self.noise_mw = dbm_to_mw(phy.noise_power_dbm)
        self.rx_sensitivity_dbm = phy.rx_sensitivity_dbm
        self.cs_threshold_dbm = phy.cs_threshold_dbm
        self.mcs: Mcs = phy.mcs
        self.attached = False
        self.busy = False
        #: In-flight transmissions audible at / sent by this station.
        self.audible = 0
        self.sending = 0


class _Layout:
    """The attached stations, in attach order, as the keyed pass reads
    them: slots, noise, MCS constants and draw keys as arrays.

    Rebuilt at every attach and detach; a frame keeps the layout it
    started with.
    """

    __slots__ = ("stations", "slots", "noise_mw", "coding_gain", "divisor",
                 "factor", "cs_threshold_dbm", "keys")

    def __init__(self, stations: List[_Station]):
        self.stations = stations
        self.slots = np.array([s.slot for s in stations], dtype=np.intp)
        self.noise_mw = np.array([s.noise_mw for s in stations])
        constants = np.array([s.mcs.ber_constants for s in stations],
                             dtype=np.float64).reshape(-1, 3)
        self.coding_gain, self.divisor, self.factor = constants.T
        self.cs_threshold_dbm = np.array(
            [s.cs_threshold_dbm for s in stations])
        self.keys = np.array([s.key for s in stations], dtype=np.uint64)


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
    #: The stations the frame reached, in attach order, and the rx
    #: power in dBm at each.  Keyed: the attach-time layout, the sender
    #: included (it is skipped at completion).  Shared-rng: every other
    #: attached station.
    receivers: List[_Station]
    rx_dbm: List[float]
    #: The received power in mW at each receiver, by slot (0.0 at the
    #: sender and at every slot the frame did not reach).
    mw: np.ndarray
    #: Interference energy (mW * overlap fraction) at each slot.
    interference: np.ndarray
    #: Receivers whose energy detection will see this frame, by name.
    audible: Dict[str, _Station]
    #: The sender and the audible receivers in attach order: the
    #: stations whose busy state this transmission can change.
    stations: List[_Station]
    #: Keyed: the layout the frame started with and its draw key.
    layout: Optional[_Layout] = None
    frame_key: int = 0
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
        budget = budget or LinkBudget()
        if reception_draw is not None and (budget.shadowing is not None
                                           or budget.fading is not None):
            raise ValueError(
                "an order-free reception draw needs a link budget without "
                "shadowing or fading (they draw from the shared rng)")
        self.sim = sim
        self.rng = rng
        self.budget = budget
        #: When set, packet-error draws come from this keyed draw
        #: instead of the shared rng, and each frame's link math is one
        #: numpy pass (fleet scenarios; see the module doc).
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
        #: Slots handed out so far (one per attach, never reused).
        self._slots = 0
        #: The keyed pass's view of the attached stations (None: stale).
        self._layout: Optional[_Layout] = None
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

    def _record(self, nic: "NetworkInterface", slot: int) -> _Station:
        draw = self.reception_draw
        return _Station(nic, slot,
                        0 if draw is None else draw.station_key(nic.name))

    def attach(self, nic: "NetworkInterface") -> None:
        """Register *nic* on the channel."""
        if nic.name in self._stations:
            raise ValueError(f"NIC name {nic.name!r} already attached")
        station = self._record(nic, self._slots)
        self._slots += 1
        station.attached = True
        self._stations[nic.name] = station
        self._layout = None

    def detach(self, nic: "NetworkInterface") -> None:
        """Remove *nic* from the channel."""
        station = self._stations.pop(nic.name, None)
        if station is not None:
            station.attached = False
            self._layout = None

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
    def _update_busy_states(stations: List[_Station]) -> None:
        # Called with every station whose count changed: tx's sender
        # and audible receivers (only the sender while a frame waits
        # out cs_latency).  They are visited in attach order, and
        # busy/idle callbacks never transmit synchronously (the MAC
        # schedules its timers), so the callbacks fire in the order a
        # sweep over every attached NIC produces.
        for station in stations:
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
            own = self._record(sender, -1)
        draw = self.reception_draw
        if draw is None:
            tx = self._scalar_links(sender, own, frame, now, duration, seq)
        else:
            tx = self._vector_links(sender, own, frame, now, duration, seq)
            tx.frame_key = draw.frame_key(own.key, seq)
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
            self._update_busy_states([own])
            self.sim.schedule(self.cs_latency, lambda: self._sense(tx))
        else:
            self._apply_sense(tx)
            self._update_busy_states(tx.stations)
        self.sim.schedule(duration, lambda: self._complete(tx))
        return duration

    def _scalar_links(self, sender: "NetworkInterface", own: _Station,
                      frame: Frame, now: float, duration: float,
                      seq: int) -> _Transmission:
        """Received power link by link, in attach order: shadowing and
        fading draw from the shared rng per link."""
        receivers: List[_Station] = []
        rx_dbm: List[float] = []
        audible: Dict[str, _Station] = {}
        stations: List[_Station] = []
        mw = np.zeros(self._slots)
        received_power_dbm = self.budget.received_power_dbm
        rng = self.rng
        name = sender.name
        tx_power_dbm = sender.phy.tx_power_dbm
        tx_pos = sender.position()
        for station in self._stations.values():
            if station is own:
                stations.append(station)
                continue
            power = received_power_dbm(rng, tx_power_dbm,
                                       (name, station.name), tx_pos,
                                       station.position())
            receivers.append(station)
            rx_dbm.append(power)
            mw[station.slot] = dbm_to_mw(power)
            if power >= station.cs_threshold_dbm:
                audible[station.name] = station
                stations.append(station)
        return _Transmission(
            sender=sender, station=own, frame=frame, start=now,
            end=now + duration, sender_seq=seq, receivers=receivers,
            rx_dbm=rx_dbm, mw=mw, interference=np.zeros(self._slots),
            audible=audible, stations=stations)

    def _vector_links(self, sender: "NetworkInterface", own: _Station,
                      frame: Frame, now: float, duration: float,
                      seq: int) -> _Transmission:
        """Received power at every attached station in one numpy pass;
        the sender's own entry is computed and then left out."""
        layout = self._layout
        if layout is None:
            layout = self._layout = _Layout(list(self._stations.values()))
        receivers = layout.stations
        xy = np.fromiter(itertools.chain.from_iterable(
            [station.position() for station in receivers]),
            np.float64, 2 * len(receivers))
        dbm = self.budget.received_powers_dbm(
            sender.phy.tx_power_dbm, sender.position(), xy[0::2], xy[1::2])
        rx_mw = 10.0 ** (dbm / 10.0)
        mw = np.zeros(self._slots)
        mw[layout.slots] = rx_mw
        if own.slot >= 0:
            mw[own.slot] = 0.0
        audible: Dict[str, _Station] = {}
        stations: List[_Station] = []
        for station, heard in zip(receivers,
                                  (dbm >= layout.cs_threshold_dbm).tolist()):
            if station is own:
                stations.append(station)
            elif heard:
                audible[station.name] = station
                stations.append(station)
        return _Transmission(
            sender=sender, station=own, frame=frame, start=now,
            end=now + duration, sender_seq=seq, receivers=receivers,
            rx_dbm=dbm.tolist(), mw=mw, interference=np.zeros(self._slots),
            audible=audible, stations=stations, layout=layout)

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
        self._update_busy_states(tx.stations)

    @staticmethod
    def _add_interference(victim: _Transmission,
                          interferer: _Transmission) -> None:
        overlap = (min(victim.end, interferer.end)
                   - max(victim.start, interferer.start))
        if overlap <= 0:
            return
        fraction = overlap / (victim.end - victim.start)
        # interferer.mw is 0.0 at its own sender (a receiver that was
        # itself transmitting is modelled as half-duplex loss) and at
        # every slot it did not reach; slots past the shorter array
        # were attached after one of the two frames started.
        n = min(len(victim.interference), len(interferer.mw))
        victim.interference[:n] += interferer.mw[:n] * fraction

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
        own = tx.station
        own.sending -= 1
        if tx.sensed:
            for station in tx.audible.values():
                station.audible -= 1
        deaf = self._deaf_during(tx)
        frame = tx.frame
        wire_size = frame.wire_size
        impairment = self.impairment
        now = self.sim.now
        obs = self.sim.obs
        layout = tx.layout
        if layout is None:
            # Shared rng: the PER and its draw per receiver, below.
            interference = tx.interference.tolist()
            no_outcome: Iterator[Any] = itertools.repeat(None)
            outcomes = zip(no_outcome, no_outcome, no_outcome)
        else:
            # Keyed: SINR -> BER -> PER -> draw for every receiver at once.
            rx_interference = tx.interference[layout.slots]
            if impairment is not None:
                rx_interference = rx_interference + np.array(
                    [impairment.extra_interference_mw(station.name, now)
                     for station in layout.stations])
            # The sender's own entry is 0 mW: SINR 0, skipped below.
            sinr = tx.mw[layout.slots] / (layout.noise_mw + rx_interference)
            pers = packet_error_rates(sinr, layout.coding_gain,
                                      layout.divisor, layout.factor,
                                      wire_size)
            draws = OrderFreeReception.uniforms(tx.frame_key, layout.keys)
            sinr_dbs = 10.0 * np.log10(
                sinr, out=np.full(len(sinr), -np.inf), where=sinr > 0.0)
            outcomes = zip(rx_interference.tolist(), sinr_dbs.tolist(),
                           (draws < pers).tolist())
        start, end = tx.start, tx.end
        for station, rx_power_dbm, (interference_mw, sinr_db, lost) in zip(
                tx.receivers, tx.rx_dbm, outcomes):
            if station is own or not station.attached:
                continue
            nic = station.nic
            if rx_power_dbm < station.rx_sensitivity_dbm:
                self.frames_below_sensitivity += 1
                continue
            if impairment is not None and impairment.drop_rx(
                    station.name, now):
                self.frames_lost_fault += 1
                nic.on_frame_lost(frame, reason="fault")
                continue
            if nic in deaf:
                self.frames_lost_collision += 1
                nic.on_frame_lost(frame, reason="half-duplex")
                continue
            noise_mw = station.noise_mw
            if lost is None:
                interference_mw = interference[station.slot]
                if impairment is not None:
                    interference_mw += impairment.extra_interference_mw(
                        station.name, now)
                sinr_linear = dbm_to_mw(rx_power_dbm) / (
                    noise_mw + interference_mw)
                lost = float(self.rng.random()) < (
                    station.mcs.packet_error_rate(sinr_linear, wire_size))
                sinr_db = mw_to_dbm(sinr_linear)
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
            nic.deliver(frame, ReceptionInfo(rx_power_dbm, sinr_db, start,
                                             end))
        self._update_busy_states(tx.stations)

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
