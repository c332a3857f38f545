"""Differential test: the per-frame reception path of the medium against
its per-reception predecessor in :mod:`tests.reference.medium`.

Two copies of one random channel -- same stations, phys, positions,
link budget (shadowing and fading included), sends, impairment and
seed -- run side by side, one on :class:`~repro.net.medium.WirelessMedium`
and one on the reference, whose received power and PER come from
:mod:`tests.reference.link` and whose keyed draws, shadowing and
fading come from :mod:`tests.reference.keyed`, one reception at a
time.  They must agree on everything observable: the medium's
counters, every delivery with the sim time it happened at, every loss
with its reason, every busy/idle callback, and the state of every MAC
generator afterwards.  The medium's numpy link pass may differ from
the reference's :mod:`math` in the last bits of a received power (see
``tests/test_keyed_reference.py``), so a run where a draw lies within
1e-12 of its PER, or a power within 1e-9 dB of a sensitivity or
carrier-sense threshold, is not compared.
"""

from typing import Any, Dict, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import AccessCategory, Frame, NetworkInterface, PhyConfig
from repro.net.medium import ChannelImpairment, WirelessMedium
from repro.net.propagation import (
    LinkBudget,
    LogDistancePathLoss,
    NakagamiFading,
    ShadowingModel,
)
from repro.sim import Simulator
from tests.reference.keyed import ReferenceKeyedReception
from tests.reference.link import (
    ReferenceLinkBudget,
    ReferenceLogDistance,
    ReferenceMcs,
)
from tests.reference.medium import ReferenceMedium

Window = Tuple[str, float, float]

#: Sends land on a 50 us grid, so many share an instant.
TICK = 50e-6

#: A decision closer than this to its threshold may flip on an ulp.
NEAR = 1e-12


class WindowImpairment(ChannelImpairment):
    """Blocks TX, drops RX and adds interference in fixed windows."""

    def __init__(self, blocked: List[Window], dropped: List[Window],
                 jammed: List[Window], jam_mw: float):
        self.blocked = blocked
        self.dropped = dropped
        self.jammed = jammed
        self.jam_mw = jam_mw

    @staticmethod
    def _inside(windows: List[Window], name: str, now: float) -> bool:
        return any(who == name and t0 <= now < t1
                   for who, t0, t1 in windows)

    def tx_blocked(self, sender_name: str, now: float) -> bool:
        return self._inside(self.blocked, sender_name, now)

    def drop_rx(self, receiver_name: str, now: float) -> bool:
        return self._inside(self.dropped, receiver_name, now)

    def extra_interference_mw(self, receiver_name: str,
                              now: float) -> float:
        if self._inside(self.jammed, receiver_name, now):
            return self.jam_mw
        return 0.0


def _windows(draw: Any, names: List[str]) -> List[Window]:
    windows = draw(st.lists(
        st.tuples(st.sampled_from(names), st.integers(0, 200),
                  st.integers(1, 80)),
        max_size=4))
    return [(name, start * TICK, (start + length) * TICK)
            for name, start, length in windows]


@st.composite
def channels(draw: Any) -> Dict[str, Any]:
    """One random channel: stations, link budget, sends, impairment.

    Some stations move fast enough, over a decorrelation distance
    short enough, that their links' shadowing is redrawn mid-run.
    """
    n = draw(st.integers(2, 12))
    names = [f"s{i}" for i in range(n)]
    # A compact channel has receivers whose PER is exactly 0.0 or
    # below 2**-64; a wide one has lossy ones.
    extent = draw(st.sampled_from([30.0, 120.0, 400.0]))
    stations = [{
        "name": name,
        "position": (draw(st.floats(0.0, extent)),
                     draw(st.floats(0.0, extent))),
        "speed": draw(st.sampled_from([0.0, 0.0, 15.0])),
        "tx_power_dbm": draw(st.sampled_from([0.0, 18.0])),
        # 40 dBm: carrier sense never fires, so the station transmits
        # over frames on the air (half-duplex and collision losses).
        "cs_threshold_dbm": draw(st.sampled_from([-85.0, -85.0, 40.0])),
        "data_rate_bps": draw(st.sampled_from([3e6, 6e6, 12e6, 27e6])),
        "relays": draw(st.booleans()),
    } for name in names]
    sends = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, 200),
                  st.integers(1, 1500), st.sampled_from(list(AccessCategory))),
        min_size=1, max_size=40))
    impaired = draw(st.booleans())
    return {
        "seed": draw(st.integers(0, 2 ** 32 - 1)),
        "stations": stations,
        "sends": [(names[i], tick * TICK, size, category)
                  for i, tick, size, category in sends],
        "exponent": draw(st.sampled_from([2.2, 2.8, 3.5])),
        "shadowing_db": draw(st.sampled_from([0.0, 4.0])),
        "decorrelation_distance": draw(st.sampled_from([0.05, 10.0])),
        "fading": draw(st.booleans()),
        "cs_latency": draw(st.sampled_from([0.0, 4e-6])),
        "impairment": None if not impaired else {
            "blocked": _windows(draw, names),
            "dropped": _windows(draw, names),
            "jammed": _windows(draw, names),
            "jam_mw": draw(st.sampled_from([1e-12, 1e-9, 1e-6])),
        },
    }


def _per_class(per: float) -> str:
    """Which reception branch a packet-error rate takes."""
    if per == 0.0:
        return "zero"
    return "tiny" if per < 2.0 ** -64 else "lossy"


def seeded_channel(seed: int) -> Dict[str, Any]:
    """A dense, impaired channel drawn from *seed* (no Hypothesis)."""
    rng = np.random.default_rng(seed)
    names = [f"s{i}" for i in range(8)]

    def windows() -> List[Window]:
        return [(str(rng.choice(names)), start * TICK, (start + 40) * TICK)
                for start in rng.integers(0, 200, size=2)]

    return {
        "seed": seed,
        "stations": [{
            "name": name,
            "position": (float(rng.uniform(0.0, 120.0)),
                         float(rng.uniform(0.0, 120.0))),
            "speed": float(rng.choice([0.0, 15.0])),
            "tx_power_dbm": float(rng.choice([0.0, 18.0])),
            "cs_threshold_dbm": float(rng.choice([-85.0, 40.0])),
            "data_rate_bps": float(rng.choice([3e6, 6e6, 12e6, 27e6])),
            "relays": bool(rng.integers(0, 2)),
        } for name in names],
        "sends": [(str(rng.choice(names)), int(tick) * TICK,
                   int(rng.integers(1, 1500)),
                   AccessCategory(int(rng.integers(0, 4))))
                  for tick in rng.integers(0, 200, size=30)],
        "exponent": 3.5,
        "shadowing_db": 4.0 if seed % 3 else 0.0,
        "decorrelation_distance": 0.05,
        "fading": bool(seed % 2),
        "cs_latency": float(rng.choice([0.0, 4e-6])),
        "impairment": {"blocked": windows(), "dropped": windows(),
                       "jammed": windows(), "jam_mw": 1e-9},
    }


def run_channel(spec: Dict[str, Any], reference: bool,
                reference_draw: Any = ReferenceKeyedReception,
                attach_order: Optional[Sequence[int]] = None,
                tie_break: str = "fifo") -> Dict[str, Any]:
    """Run *spec* on one medium; everything observable, in order.

    The reference medium draws from *reference_draw*.  The stations
    attach in *attach_order* (indices into the spec's stations; spec
    order by default), each keeping its own MAC seed.
    """
    seed = spec["seed"]
    sim = Simulator(tie_break, np.random.default_rng(seed)
                    if tie_break == "seeded" else None)
    shadowing = (ShadowingModel(
        sigma_db=spec["shadowing_db"],
        decorrelation_distance=spec["decorrelation_distance"])
        if spec["shadowing_db"] else None)
    fading = NakagamiFading(m=1.0) if spec["fading"] else None
    medium: Any
    if reference:
        medium = ReferenceMedium(
            sim, reference_draw(seed), ReferenceLinkBudget(
                path_loss=ReferenceLogDistance(exponent=spec["exponent"]),
                shadowing=shadowing, fading=fading),
            cs_latency=spec["cs_latency"])
    else:
        medium = WirelessMedium(
            sim, seed, LinkBudget(
                path_loss=LogDistancePathLoss(exponent=spec["exponent"]),
                shadowing=shadowing, fading=fading),
            cs_latency=spec["cs_latency"])
    if spec["impairment"] is not None:
        medium.impairment = WindowImpairment(**spec["impairment"])
    carrier: List[Tuple[float, str, str]] = []
    delivered: Dict[str, List[Any]] = {}
    lost: Dict[str, List[Any]] = {}
    nics: Dict[str, NetworkInterface] = {}
    if attach_order is None:
        attach_order = range(len(spec["stations"]))
    for index in attach_order:
        station = spec["stations"][index]
        name = station["name"]
        phy = PhyConfig(tx_power_dbm=station["tx_power_dbm"],
                        cs_threshold_dbm=station["cs_threshold_dbm"],
                        data_rate_bps=station["data_rate_bps"])
        x, y = station["position"]
        nic = NetworkInterface(
            sim, medium, name,
            lambda x=x, y=y, v=station["speed"]: (x + v * sim.now, y),
            phy=phy, rng=np.random.default_rng(seed + 1 + index))
        nics[name] = nic
        mac = nic.mac
        for state in ("busy", "idle"):
            callback = getattr(mac, f"on_medium_{state}")

            def record(name=name, state=state, callback=callback):
                carrier.append((sim.now, name, state))
                callback()

            setattr(mac, f"on_medium_{state}", record)
        delivered[name] = []
        lost[name] = []

        def on_receive(frame, nic=nic, relays=station["relays"]):
            delivered[nic.name].append((frame.payload, sim.now))
            # Relay the first two originals heard, from inside the
            # reception loop: a send while the medium delivers.
            if relays and frame.payload[1] != "relay" and (
                    len(delivered[nic.name]) <= 2):
                nic.send(Frame(payload=(nic.name, "relay", frame.payload),
                               size=frame.size, source=nic.name,
                               category=AccessCategory.AC_VO))

        nic.on_receive(on_receive)
        nic.on_loss(lambda frame, reason, name=name:
                    lost[name].append((frame.payload, reason)))
    for index, (name, at, size, category) in enumerate(spec["sends"]):
        sim.schedule(at, lambda nic=nics[name], index=index, size=size,
                     category=category: nic.send(Frame(
                         payload=(nic.name, index), size=size,
                         source=nic.name, category=category)))
    sim.run()
    return {
        "stats": medium.stats(),
        "now": sim.now,
        "delivered": delivered,
        "lost": lost,
        "carrier": carrier,
        "mac_rngs": {name: nic.mac.rng.bit_generator.state
                     for name, nic in nics.items()},
    }


def run_reference_recording(spec: Dict[str, Any]) -> Tuple[Dict[str, Any],
                                                           int, set]:
    """The reference run, its count of near-threshold cases -- a draw
    within 1e-12 of its PER, or a power within 1e-9 dB of a
    sensitivity or carrier-sense threshold -- and the classes of the
    PERs it computed."""
    pers: List[float] = []
    draws: List[float] = []
    powers: List[float] = []
    original_per = ReferenceMcs.packet_error_rate
    original_uniform = ReferenceKeyedReception.uniform
    original_power = ReferenceLinkBudget.received_power_dbm

    def per(mcs, sinr_linear, size_bytes):
        pers.append(original_per(mcs, sinr_linear, size_bytes))
        return pers[-1]

    def uniform(self, sender, sequence, receiver):
        draws.append(original_uniform(self, sender, sequence, receiver))
        return draws[-1]

    def power(self, *args, **kwargs):
        powers.append(original_power(self, *args, **kwargs))
        return powers[-1]

    with mock.patch.object(ReferenceMcs, "packet_error_rate", per), \
            mock.patch.object(ReferenceKeyedReception, "uniform", uniform), \
            mock.patch.object(ReferenceLinkBudget, "received_power_dbm",
                              power):
        out = run_channel(spec, reference=True)
    assert len(pers) == len(draws)
    thresholds = {PhyConfig().rx_sensitivity_dbm} | {
        station["cs_threshold_dbm"] for station in spec["stations"]}
    near = sum(abs(u - p) < NEAR for u, p in zip(draws, pers))
    near += sum(abs(p - t) < 1e-9 for p in powers for t in thresholds)
    return out, near, {_per_class(p) for p in pers}


class TestReceptionMatchesReference:
    @given(spec=channels())
    @settings(max_examples=150, deadline=None)
    def test_random_channels(self, spec):
        old, near, _classes = run_reference_recording(spec)
        if near:
            return
        assert run_channel(spec, reference=False) == old

    def test_every_outcome_is_exercised(self):
        # The random channels reach every branch of reception: a fixed
        # sample of them loses frames to every cause and delivers some,
        # and has receivers whose PER is exactly 0.0, in (0, 2**-64)
        # and larger.
        totals: Dict[str, int] = {}
        reasons = set()
        per_classes = set()
        near_runs = 0
        for seed in range(30):
            spec = seeded_channel(seed)
            out = run_channel(spec, reference=False)
            old, near, classes = run_reference_recording(spec)
            if near:
                near_runs += 1
                continue
            assert out == old
            per_classes |= classes
            for key, value in out["stats"].items():
                totals[key] = totals.get(key, 0) + value
            reasons.update(reason for losses in out["lost"].values()
                           for _payload, reason in losses)
        assert near_runs <= 1
        assert all(value > 0 for value in totals.values()), totals
        assert reasons == {"fault", "half-duplex", "collision", "noise"}
        assert per_classes == {"zero", "tiny", "lossy"}
