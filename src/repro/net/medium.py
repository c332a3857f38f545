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

Reception is keyed and vectorised.  A frame's link math is one numpy
pass over the attached stations: :meth:`WirelessMedium.transmit`
reads every antenna position as arrays and computes distance -> path
loss -> shadowing -> fading -> received power; the frame's completion
computes SINR -> BER -> PER and one :class:`OrderFreeReception` draw
per receiver as arrays.  Every random value -- packet-error draw,
fading, shadowing -- is a keyed splitmix64 of the medium's seed, never
a draw from a shared generator, so no value depends on how many were
drawn before it: a reception's values are the same whatever order the
stations attached in and whatever the kernel's tie-break policy.  The
positions are sorted by law once per layout
(:func:`repro.geonet.position.antenna_reader`): the fleet's
straight-line background vehicles are one numpy pass per frame, and
only the other stations' position callables are called per frame.

When a frame completes, the half-duplex set (stations on the air
during it) is computed once, and Python stays per receiver only for
the attached, sensitivity, impairment and half-duplex checks, the
loss reasons and the delivery.  A decoded frame is delivered alone
(``nic.deliver(frame)``): SINR is an input of the PER and leaves the
medium no other way.

Propagation delay over laboratory distances (metres -> nanoseconds) is
negligible compared to the microsecond MAC timing and is not modelled.
"""

from __future__ import annotations

import dataclasses
import hashlib
import operator
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.net.frame import Frame
from repro.net.phy import Mcs, packet_error_rates
from repro.net.propagation import LinkBudget, dbm_to_mw
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

        A pure function of its arguments: the medium asks it for
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


#: Fixed salts that separate the fading and shadowing streams from the
#: packet-error draw: the first two SHA-512 initial hash words (the
#: fractional bits of sqrt(2) and sqrt(3)).
_FADING_SALT = 0x6A09E667F3BCC908
_SHADOWING_SALT = 0xBB67AE8584CAA73B


def _mix64_array(key: int, keys: np.ndarray) -> np.ndarray:
    """The splitmix64 output mix of *key* XOR every entry of *keys*."""
    z = keys ^ np.uint64(key)
    z ^= z >> 30
    z *= np.uint64(_MIX1)
    z ^= z >> 27
    z *= np.uint64(_MIX2)
    z ^= z >> 31
    return z


class OrderFreeReception:
    """Order-independent keyed uniform draws, the medium's only randomness.

    A packet-error draw is keyed by ``(seed, sender, the sender's own
    transmission index, receiver)``: a station serialises its own
    transmissions, so the key -- and therefore the draw -- does not
    depend on how many other receptions ran before it, on the order
    the stations attached in or on the kernel's tie-break policy.

    The draw is a keyed splitmix64.  Every station has a fixed 64-bit
    key, the first eight bytes (little-endian) of the SHA-256 of its
    name, taken once at attach.  A transmission's key mixes the seed,
    the sender's key and its index (:meth:`frame_key`); a receiver's
    value mixes that with the receiver's key, and its top 53 bits give
    ``u = (z >> 11) * 2**-53``.  :meth:`uniforms` does this for every
    receiver of a frame in ``uint64`` arrays; :meth:`uniform` is the
    scalar entry point and returns the same bits.

    Fading and shadowing take their values through an inverse CDF, so
    their uniforms lie in the open interval (0, 1):
    ``u = ((z >> 12) + 0.5) * 2**-52``, exact in binary64, from
    ``2**-53`` to ``1 - 2**-53``.  :meth:`fading_uniforms` keys them
    like the packet-error draw, on a salted frame key;
    :meth:`link_uniform` keys one by ``(seed, transmitter, receiver,
    epoch)``.
    """

    def __init__(self, seed: int):
        #: An integer (a generator or a float raises TypeError).
        self.seed = operator.index(seed)
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
        z = _mix64_array(frame_key, receiver_keys)
        z >>= 11
        return z.astype(np.float64) * 2.0 ** -53

    @staticmethod
    def fading_uniforms(frame_key: int,
                        receiver_keys: np.ndarray) -> np.ndarray:
        """Every receiver's U(0, 1) fading value (``uint64`` keys).

        Keyed on the salted frame key, so it is independent of the
        receiver's packet-error draw.
        """
        z = _mix64_array(_mix64(frame_key ^ _FADING_SALT), receiver_keys)
        z >>= 12
        return (z.astype(np.float64) + 0.5) * 2.0 ** -52

    def uniform(self, sender: str, sequence: int, receiver: str) -> float:
        """A U[0, 1) value unique to one (transmission, receiver) pair."""
        z = _mix64(self.frame_key(self.station_key(sender), sequence)
                   ^ self.station_key(receiver))
        return (z >> 11) * 2.0 ** -53

    def link_uniform(self, tx_key: int, rx_key: int, epoch: int) -> float:
        """The U(0, 1) value of the link's shadowing epoch *epoch*."""
        link = _mix64(((self._seed_key ^ tx_key ^ _SHADOWING_SALT)
                       + (epoch + 1) * _GAMMA) & _MASK64)
        return ((_mix64(link ^ rx_key) >> 12) + 0.5) * 2.0 ** -52


class _Station:
    """One attachment of a NIC: its constants and carrier-sense state."""

    __slots__ = ("nic", "mac", "position", "name", "slot", "key",
                 "noise_mw", "rx_sensitivity_dbm", "cs_threshold_dbm", "mcs",
                 "attached", "busy", "audible", "sending", "flips")

    def __init__(self, nic: "NetworkInterface", slot: int, key: int):
        phy = nic.phy
        self.nic = nic
        self.mac = nic.mac
        self.position = nic.position
        self.name = nic.name
        #: The attachment's index in per-slot arrays (-1: not attached).
        self.slot = slot
        #: The station's key in the medium's keyed draws.
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
        #: The NIC's flip log (:meth:`WirelessMedium.flip_log`), or None.
        self.flips: Optional[List[float]] = None


class _Layout:
    """The attached stations, in attach order, as the link pass reads
    them: slots, noise, MCS constants and draw keys as arrays, and
    :attr:`antennas`, which reads every antenna position.

    Rebuilt at every attach and detach; a frame keeps the layout it
    started with.
    """

    __slots__ = ("stations", "antennas", "slots", "noise_mw", "coding_gain",
                 "divisor", "factor", "cs_threshold_dbm", "keys")

    def __init__(self, stations: List[_Station]):
        # geonet sits above net and imports it: imported here.
        from repro.geonet.position import antenna_reader

        self.stations = stations
        self.antennas = antenna_reader([s.position for s in stations])
        self.slots = np.array([s.slot for s in stations], dtype=np.intp)
        self.noise_mw = np.array([s.noise_mw for s in stations])
        constants = np.array([s.mcs.ber_constants for s in stations],
                             dtype=np.float64).reshape(-1, 3)
        self.coding_gain, self.divisor, self.factor = constants.T
        self.cs_threshold_dbm = np.array(
            [s.cs_threshold_dbm for s in stations])
        self.keys = np.array([s.key for s in stations], dtype=np.uint64)


# Identity equality: ``_active.remove`` must not compare the arrays of
# two transmissions that are alike field by field.
@dataclasses.dataclass(eq=False)
class _Transmission:
    #: The sender's record (a fresh, unattached one for a detached NIC).
    station: _Station
    frame: Frame
    start: float
    end: float
    #: The attached stations when the frame started, the sender
    #: included (it is skipped at completion); :attr:`rx_dbm` is the
    #: received power in dBm at each, in the same order.
    layout: _Layout
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
    #: The frame's key in the medium's keyed draws.
    frame_key: int
    #: Whether the audible counts currently include this transmission.
    sensed: bool = False
    completed: bool = False
    #: Called last in the completion event (the sender MAC's hook).
    done: Optional[Callable[[], None]] = None


class WirelessMedium:
    """The single shared channel all OBUs/RSUs operate on (ITS-G5 CCH)."""

    def __init__(
        self,
        sim: Simulator,
        seed: int,
        budget: Optional[LinkBudget] = None,
        cs_latency: float = 0.0,
    ):
        if cs_latency < 0.0:
            raise ValueError(f"cs_latency must be >= 0, got {cs_latency}")
        self.sim = sim
        self.budget = budget or LinkBudget()
        #: Every random value of the medium: packet-error draws,
        #: fading and shadowing, keyed by *seed* (see the module doc).
        self.draw = OrderFreeReception(seed)
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
        #: The link pass's view of the attached stations (None: stale).
        self._layout: Optional[_Layout] = None
        self._active: List[_Transmission] = []
        # (start, end, sender) of every transmit call, suppressed ones
        # included: a radio that is down still spends the airtime and
        # cannot decode meanwhile.  Pruned at each completion to what
        # can still overlap an in-flight or future frame.
        self._airtime: List[Tuple[float, float, "NetworkInterface"]] = []
        # Per-sender transmission counters for the frame keys.
        self._tx_seq: Dict[str, int] = {}
        # Carrier-sense flip logs by NIC name (see flip_log).
        self._flip_logs: Dict[str, List[float]] = {}
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
        station = _Station(nic, self._slots, self.draw.station_key(nic.name))
        self._slots += 1
        station.attached = True
        station.flips = self._flip_logs.get(nic.name)
        self._stations[nic.name] = station
        self._layout = None

    def detach(self, nic: "NetworkInterface") -> None:
        """Remove *nic* from the channel (it senses idle from now on)."""
        station = self._stations.pop(nic.name, None)
        if station is not None:
            station.attached = False
            if station.busy and station.flips is not None:
                station.flips.append(self.sim.now)
            station.flips = None
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

    def flip_log(self, nic: "NetworkInterface") -> List[float]:
        """A log of the times *nic*'s carrier sense flips, from now on.

        The medium appends ``sim.now`` to the returned list whenever
        :meth:`is_busy_for` changes for the NIC's name: busy and idle
        alternate, so the times alone give the state.  Detaching a
        busy NIC appends a flip (a detached NIC senses idle), and the
        log follows the name across detach and re-attach.  The reader
        owns the list and may delete entries it has consumed.  One log
        per name: a NIC that has one raises ValueError.
        """
        if nic.name in self._flip_logs:
            raise ValueError(f"NIC name {nic.name!r} already has a flip log")
        log: List[float] = []
        self._flip_logs[nic.name] = log
        station = self._stations.get(nic.name)
        if station is not None:
            station.flips = log
        return log

    def _update_busy_states(self, stations: List[_Station]) -> None:
        # Called with every station whose count changed: tx's sender
        # and audible receivers (only the sender while a frame waits
        # out cs_latency).  They are visited in attach order, and
        # busy/idle callbacks never transmit synchronously (the MAC
        # schedules its timers), so the callbacks fire in the order a
        # sweep over every attached NIC produces.  A flip goes to the
        # station's flip log, if it has one, as one list append.
        now = self.sim.now
        for station in stations:
            if not station.attached:
                continue
            busy = station.sending > 0 or station.audible > 0
            if busy != station.busy:
                station.busy = busy
                flips = station.flips
                if flips is not None:
                    flips.append(now)
                if busy:
                    station.mac.on_medium_busy()
                else:
                    station.mac.on_medium_idle()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def transmit(self, sender: "NetworkInterface", frame: Frame,
                 done: Optional[Callable[[], None]] = None) -> float:
        """Start transmitting *frame* from *sender*; returns the airtime.

        *done*, if given, runs once the frame has left the air: last in
        the frame's completion event, after every reception and
        carrier-sense update, or ``airtime`` after a suppressed frame
        started.  The MAC passes its end-of-transmission hook here, so
        it can never run while its own frame is still on the air.
        """
        duration = sender.phy.airtime(frame.wire_size)
        now = self.sim.now
        self._airtime.append((now, now + duration, sender))
        if self.impairment is not None and self.impairment.tx_blocked(
                sender.name, now):
            # The radio is down: the stack believes it transmitted
            # (airtime is still charged) but nothing goes on the air.
            self.frames_suppressed += 1
            if done is not None:
                self.sim.schedule(duration, done)
            return duration
        name = sender.name
        own = self._stations.get(name)
        if own is None or own.nic is not sender:
            own = _Station(sender, -1, self.draw.station_key(name))
        seq = self._tx_seq.get(name, 0)
        self._tx_seq[name] = seq + 1
        tx = self._vector_links(own, frame, now, duration,
                                self.draw.frame_key(own.key, seq))
        tx.done = done
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

    def _vector_links(self, own: _Station, frame: Frame, now: float,
                      duration: float, frame_key: int) -> _Transmission:
        """Received power from *own*'s NIC at every attached station in
        one numpy pass; the sender's own entry is computed and then
        left out."""
        layout = self._current_layout()
        sender = own.nic
        budget = self.budget
        xs, ys = layout.antennas()
        tx_pos = sender.position()
        dbm = budget.received_powers_dbm(
            sender.phy.tx_power_dbm, tx_pos, xs, ys)
        shadowing = budget.shadowing
        if shadowing is not None:
            # Per link: each link keeps its own decorrelation state.
            dbm -= np.array([
                shadowing.shadowing_db(self.draw, (own.key, station.key),
                                       tx_pos, rx_pos)
                for station, rx_pos in zip(layout.stations,
                                           zip(xs.tolist(), ys.tolist()))])
        if budget.fading is not None:
            dbm += 10.0 * np.log10(budget.fading.power_gains(
                self.draw.fading_uniforms(frame_key, layout.keys)))
        rx_mw = 10.0 ** (dbm / 10.0)
        mw = np.zeros(self._slots)
        mw[layout.slots] = rx_mw
        if own.slot >= 0:
            mw[own.slot] = 0.0
        audible: Dict[str, _Station] = {}
        stations: List[_Station] = []
        for station, heard in zip(layout.stations,
                                  (dbm >= layout.cs_threshold_dbm).tolist()):
            if station is own:
                stations.append(station)
            elif heard:
                audible[station.name] = station
                stations.append(station)
        return _Transmission(
            station=own, frame=frame, start=now, end=now + duration,
            layout=layout, rx_dbm=dbm.tolist(), mw=mw,
            interference=np.zeros(self._slots), audible=audible,
            stations=stations, frame_key=frame_key)

    def _current_layout(self) -> _Layout:
        """The link pass's view of the attached stations."""
        layout = self._layout
        if layout is None:
            layout = self._layout = _Layout(list(self._stations.values()))
        return layout

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
        # SINR -> BER -> PER -> draw for every receiver at once.
        layout = tx.layout
        rx_interference = tx.interference[layout.slots]
        if impairment is not None:
            rx_interference = rx_interference + np.array(
                [impairment.extra_interference_mw(station.name, now)
                 for station in layout.stations])
        # The sender's own entry is 0 mW: SINR 0, skipped below.
        sinr = tx.mw[layout.slots] / (layout.noise_mw + rx_interference)
        pers = packet_error_rates(sinr, layout.coding_gain, layout.divisor,
                                  layout.factor, wire_size)
        draws = OrderFreeReception.uniforms(tx.frame_key, layout.keys)
        for station, rx_power_dbm, interference_mw, lost in zip(
                layout.stations, tx.rx_dbm, rx_interference.tolist(),
                (draws < pers).tolist()):
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
            if lost:
                if interference_mw > station.noise_mw:
                    self.frames_lost_collision += 1
                    nic.on_frame_lost(frame, reason="collision")
                else:
                    self.frames_lost_noise += 1
                    nic.on_frame_lost(frame, reason="noise")
                continue
            self.frames_delivered += 1
            if obs is not None:
                obs.count("phy.frames_delivered", device=station.name)
            nic.deliver(frame)
        self._update_busy_states(tx.stations)
        if tx.done is not None:
            tx.done()

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
