"""Reference oracle for the per-frame reception path of the medium.

A verbatim copy of :class:`repro.net.medium.WirelessMedium` and
:class:`repro.net.medium.OrderFreeReception` as they were before
reception became per frame: every reception scans the active
transmissions and the receiver's own 32-entry transmission log for
half-duplex overlap, hashes its full order-free key, and recomputes
the receiver's noise power and MCS.  The only departure is where the
own-transmission log lives: the NIC no longer keeps one, so this
medium keeps it per NIC, appended on every ``transmit`` exactly as
``NetworkInterface.start_transmission`` used to.

Used only by the differential test ``tests/test_medium_reference.py``.
Do not optimise this file: its value is being the old,
obviously-correct code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.net.frame import Frame
from repro.net.medium import ChannelImpairment, ReceptionInfo
from repro.net.propagation import LinkBudget, dbm_to_mw, mw_to_dbm
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.nic import NetworkInterface

#: Entries of a NIC's own-transmission log (as the NIC kept it).
OWN_TX_LOG = 32


class ReferenceReception:
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

    def uniform(self, sender: str, sequence: int, receiver: str) -> float:
        """A U[0, 1) value unique to one (transmission, receiver) pair."""
        digest = hashlib.sha256(
            f"{self.seed}:rx:{sender}:{sequence}:{receiver}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "little") / 2.0 ** 64


@dataclasses.dataclass
class _Transmission:
    tx_id: int
    sender: "NetworkInterface"
    frame: Frame
    start: float
    end: float
    #: rx power (dBm) at every other NIC, drawn at start of frame.
    rx_powers: Dict[str, float]
    #: interference energy (mW * overlap fraction) per receiver.
    interference_mw: Dict[str, float] = dataclasses.field(
        default_factory=dict)
    #: The sender's own 0-based transmission index (tie-break invariant,
    #: unlike the global tx_id).
    sender_seq: int = 0
    #: Receivers whose energy detection will see this frame.
    audible: List[str] = dataclasses.field(default_factory=list)
    #: Whether the audible counts currently include this transmission.
    sensed: bool = False
    completed: bool = False


class ReferenceMedium:
    """The single shared channel all OBUs/RSUs operate on (ITS-G5 CCH)."""

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        budget: Optional[LinkBudget] = None,
        reception_draw: Optional[ReferenceReception] = None,
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
        self._nics: Dict[str, "NetworkInterface"] = {}
        self._active: List[_Transmission] = []
        self._tx_ids = itertools.count(1)
        self._busy_state: Dict[str, bool] = {}
        # Incremental carrier-sense bookkeeping: number of in-flight
        # transmissions audible at / originated by each NIC.  Keeping
        # these counts makes is_busy_for O(1) and the busy-state sweep
        # O(N) instead of O(N * active).
        self._audible_count: Dict[str, int] = {}
        self._sending_count: Dict[str, int] = {}
        # Per-sender transmission counters for OrderFreeReception keys.
        self._tx_seq: Dict[str, int] = {}
        # Each NIC's own-transmission log, as the NIC used to keep it.
        self._own_tx_intervals: Dict[str, List[Tuple[float, float]]] = {}
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
        if nic.name in self._nics:
            raise ValueError(f"NIC name {nic.name!r} already attached")
        self._nics[nic.name] = nic
        self._busy_state[nic.name] = False
        self._audible_count[nic.name] = 0
        self._sending_count[nic.name] = 0

    def detach(self, nic: "NetworkInterface") -> None:
        """Remove *nic* from the channel."""
        self._nics.pop(nic.name, None)
        self._busy_state.pop(nic.name, None)
        self._audible_count.pop(nic.name, None)
        self._sending_count.pop(nic.name, None)

    # ------------------------------------------------------------------
    # Carrier sense
    # ------------------------------------------------------------------

    def is_busy_for(self, nic: "NetworkInterface") -> bool:
        """Energy-detection carrier sense at *nic* (includes own TX).

        O(1): audibility against each frozen ``cs_threshold_dbm`` is
        decided once at transmission start and tracked incrementally.
        """
        return (self._sending_count.get(nic.name, 0) > 0
                or self._audible_count.get(nic.name, 0) > 0)

    def _update_busy_states(self) -> None:
        # Iterates the attach-order dict so busy/idle callbacks fire in
        # the same order the legacy O(N * active) sweep produced.
        for name, nic in self._nics.items():
            busy = (self._sending_count[name] > 0
                    or self._audible_count[name] > 0)
            if busy != self._busy_state[name]:
                self._busy_state[name] = busy
                if busy:
                    nic.mac.on_medium_busy()
                else:
                    nic.mac.on_medium_idle()

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def transmit(self, sender: "NetworkInterface", frame: Frame) -> float:
        """``NetworkInterface.start_transmission`` as it was: transmit,
        then log the NIC's own airtime (suppressed frames included)."""
        duration = self._transmit(sender, frame)
        now = self.sim.now
        log = self._own_tx_intervals.setdefault(sender.name, [])
        log.append((now, now + duration))
        if len(log) > OWN_TX_LOG:
            del log[:-OWN_TX_LOG]
        return duration

    def _overlapped_own_tx(self, nic: "NetworkInterface", start: float,
                           end: float) -> bool:
        """``NetworkInterface.overlapped_own_tx`` as it was."""
        return any(min(t_end, end) > max(t_start, start)
                   for t_start, t_end in self._own_tx_intervals.get(
                       nic.name, []))

    def _transmit(self, sender: "NetworkInterface", frame: Frame) -> float:
        """Start transmitting *frame* from *sender*; returns the airtime."""
        duration = sender.phy.airtime(frame.wire_size)
        now = self.sim.now
        if self.impairment is not None and self.impairment.tx_blocked(
                sender.name, now):
            # The radio is down: the stack believes it transmitted
            # (airtime is still charged) but nothing goes on the air.
            self.frames_suppressed += 1
            return duration
        seq = self._tx_seq.get(sender.name, 0)
        self._tx_seq[sender.name] = seq + 1
        tx = _Transmission(
            tx_id=next(self._tx_ids),
            sender=sender,
            frame=frame,
            start=now,
            end=now + duration,
            rx_powers={},
            sender_seq=seq,
        )
        tx_pos = sender.position()
        for name, nic in self._nics.items():
            if nic is sender:
                continue
            power = self.budget.received_power_dbm(
                self.rng,
                tx_power_dbm=sender.phy.tx_power_dbm,
                link=(sender.name, name),
                tx_pos=tx_pos,
                rx_pos=nic.position(),
            )
            tx.rx_powers[name] = power
            tx.interference_mw.setdefault(name, 0.0)
            if power >= nic.phy.cs_threshold_dbm:
                tx.audible.append(name)
        # Mutual interference with every overlapping transmission.
        for other in self._active:
            self._add_interference(other, tx)
            self._add_interference(tx, other)
        self._active.append(tx)
        self.frames_sent += 1
        self._sending_count[sender.name] = (
            self._sending_count.get(sender.name, 0) + 1)
        obs = self.sim.obs
        if obs is not None:
            obs.count("phy.frames_sent", device=sender.name)
            obs.record_span("phy.tx", now, now + duration,
                            device=sender.name)
            obs.observe("phy.airtime_ms", duration * 1000.0)
            obs.observe("net.airtime_ms", duration * 1000.0,
                        device=sender.name)
        if self.cs_latency > 0.0:
            # Other stations sense the frame only after the energy
            # detector has had cs_latency to react; until then their
            # MACs still see an idle channel.
            self._update_busy_states()
            self.sim.schedule(self.cs_latency, lambda: self._sense(tx))
        else:
            self._apply_sense(tx)
            self._update_busy_states()
        self.sim.schedule(duration, lambda: self._complete(tx))
        return duration

    def _apply_sense(self, tx: _Transmission) -> None:
        tx.sensed = True
        for name in tx.audible:
            if name in self._audible_count:
                self._audible_count[name] += 1

    def _sense(self, tx: _Transmission) -> None:
        """Deferred energy detection (cs_latency > 0)."""
        if tx.completed:
            return
        self._apply_sense(tx)
        self._update_busy_states()

    def _add_interference(self, victim: _Transmission,
                          interferer: _Transmission) -> None:
        overlap = (min(victim.end, interferer.end)
                   - max(victim.start, interferer.start))
        if overlap <= 0:
            return
        fraction = overlap / (victim.end - victim.start)
        for name in victim.rx_powers:
            power = interferer.rx_powers.get(name)
            if interferer.sender.name == name:
                # Receiver was itself transmitting: modelled separately
                # as half-duplex loss.
                continue
            if power is not None:
                victim.interference_mw[name] = (
                    victim.interference_mw.get(name, 0.0)
                    + dbm_to_mw(power) * fraction)

    def _complete(self, tx: _Transmission) -> None:
        self._active.remove(tx)
        tx.completed = True
        if tx.sender.name in self._sending_count:
            self._sending_count[tx.sender.name] -= 1
        if tx.sensed:
            for name in tx.audible:
                if name in self._audible_count:
                    self._audible_count[name] -= 1
        for name, rx_power in tx.rx_powers.items():
            nic = self._nics.get(name)
            if nic is None:
                continue
            self._attempt_reception(tx, nic, rx_power)
        self._update_busy_states()

    def _attempt_reception(self, tx: _Transmission,
                           nic: "NetworkInterface",
                           rx_power_dbm: float) -> None:
        if rx_power_dbm < nic.phy.rx_sensitivity_dbm:
            self.frames_below_sensitivity += 1
            return
        if self.impairment is not None and self.impairment.drop_rx(
                nic.name, self.sim.now):
            self.frames_lost_fault += 1
            nic.on_frame_lost(tx.frame, reason="fault")
            return
        if self._was_transmitting_during(nic, tx):
            self.frames_lost_collision += 1
            nic.on_frame_lost(tx.frame, reason="half-duplex")
            return
        noise_mw = dbm_to_mw(nic.phy.noise_power_dbm)
        interference_mw = tx.interference_mw.get(nic.name, 0.0)
        if self.impairment is not None:
            interference_mw += self.impairment.extra_interference_mw(
                nic.name, self.sim.now)
        sinr_linear = dbm_to_mw(rx_power_dbm) / (noise_mw + interference_mw)
        per = nic.phy.mcs.packet_error_rate(sinr_linear, tx.frame.wire_size)
        if self.reception_draw is not None:
            draw = self.reception_draw.uniform(
                tx.sender.name, tx.sender_seq, nic.name)
        else:
            draw = float(self.rng.random())
        if draw < per:
            if interference_mw > noise_mw:
                self.frames_lost_collision += 1
                nic.on_frame_lost(tx.frame, reason="collision")
            else:
                self.frames_lost_noise += 1
                nic.on_frame_lost(tx.frame, reason="noise")
            return
        self.frames_delivered += 1
        obs = self.sim.obs
        if obs is not None:
            obs.count("phy.frames_delivered", device=nic.name)
        info = ReceptionInfo(
            rx_power_dbm=rx_power_dbm,
            sinr_db=mw_to_dbm(sinr_linear),
            started_at=tx.start,
            ended_at=tx.end,
        )
        nic.deliver(tx.frame, info)

    def _was_transmitting_during(self, nic: "NetworkInterface",
                                 tx: _Transmission) -> bool:
        for other in itertools.chain(self._active, (tx,)):
            if other is tx:
                continue
            if other.sender is nic and (
                    min(other.end, tx.end) > max(other.start, tx.start)):
                return True
        # Transmissions that already completed but overlapped tx are
        # captured in nic's own busy log.
        return self._overlapped_own_tx(nic, tx.start, tx.end)

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
