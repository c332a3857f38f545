"""A6 -- ablation: Decentralized Congestion Control under channel load.

ITS-G5 mandates DCC (TS 102 687).  Eight stations each offer ~100 Hz
of 800-byte broadcasts -- far beyond the 6 Mbit/s channel -- while an
RSU periodically sends safety DENMs.  Without DCC the channel runs
saturated; with the reactive gatekeeper each station throttles to its
state's rate, the channel busy ratio drops, and the DENM's access
delay improves.
"""

import numpy as np

from repro.net import (
    AccessCategory,
    Frame,
    NetworkInterface,
    WirelessMedium,
)
from repro.net.dcc import ChannelBusyMonitor, DccGatekeeper, DccState
from repro.net.propagation import LinkBudget, LogDistancePathLoss
from repro.sim import Simulator

from benchmarks.conftest import fmt

STATIONS = 8
OFFERED_PERIOD = 0.01       # 100 Hz per station
FRAME_BYTES = 800
DENMS = 100
DURATION = 12.0


def run_configuration(use_dcc, seed=1):
    sim = Simulator()
    medium = WirelessMedium(sim, seed,
                            LinkBudget(path_loss=LogDistancePathLoss()))
    jitter = np.random.default_rng(seed + 100)

    rsu = NetworkInterface(sim, medium, "rsu", lambda: (0.0, 0.0),
                           rng=np.random.default_rng(seed + 1))
    obu = NetworkInterface(sim, medium, "obu", lambda: (10.0, 0.0),
                           rng=np.random.default_rng(seed + 2))
    monitor = ChannelBusyMonitor(sim, obu)
    cbr_samples = []

    def sample_cbr():
        cbr_samples.append(monitor.cbr(0.5))
        sim.schedule(0.5, sample_cbr)

    sim.schedule(1.0, sample_cbr)

    delays = []
    sent_at = {}

    def on_rx(frame):
        if frame.payload == b"denm":
            delays.append(sim.now - sent_at[id(frame)])

    obu.on_receive(on_rx)

    gates = []

    def make_offer(nic, gate):
        def offer():
            frame = Frame(payload=b"bg", size=FRAME_BYTES,
                          source=nic.name,
                          category=AccessCategory.AC_VI)
            if gate is not None:
                gate.send(frame)
            else:
                nic.send(frame)
            sim.schedule(float(jitter.uniform(0.8, 1.2))
                         * OFFERED_PERIOD, offer)

        return offer

    for index in range(STATIONS):
        nic = NetworkInterface(
            sim, medium, f"bg{index}",
            lambda index=index: (4.0 + index % 4, 3.0 + index // 4),
            rng=np.random.default_rng(seed + 10 + index))
        gate = DccGatekeeper(sim, nic) if use_dcc else None
        gates.append(gate)
        sim.schedule(float(jitter.uniform(0.0, OFFERED_PERIOD)),
                     make_offer(nic, gate))

    count = [0]

    def fire():
        frame = Frame(payload=b"denm", size=100, source="rsu",
                      category=AccessCategory.AC_VO)
        sent_at[id(frame)] = sim.now
        rsu.send(frame)
        count[0] += 1
        if count[0] < DENMS:
            sim.schedule(float(jitter.uniform(0.08, 0.12)), fire)

    sim.schedule(1.0, fire)
    sim.run_until(DURATION)

    transmitted = medium.frames_sent
    peak_states = []
    for gate in gates:
        if gate is None:
            continue
        reached = [state for _t, state in gate.state_changes]
        peak_states.append(max(reached) if reached else gate.state)
    return {
        "cbr": float(np.mean(cbr_samples)) if cbr_samples else 0.0,
        "denm_delay_ms": float(np.mean(delays) * 1000.0) if delays
        else float("nan"),
        "denm_delivery": len(delays) / DENMS,
        "frames_on_air": transmitted,
        "dcc_peak_states": peak_states,
    }


def test_ablation_dcc(benchmark, report):
    results = benchmark.pedantic(
        lambda: (run_configuration(False), run_configuration(True)),
        rounds=1, iterations=1)
    without, with_dcc = results

    report.line("Ablation A6 -- reactive DCC under overload "
                f"({STATIONS} stations x 100 Hz x {FRAME_BYTES} B)")
    report.line()
    rows = [
        ("mean channel busy ratio", fmt(without["cbr"], 2),
         fmt(with_dcc["cbr"], 2)),
        ("DENM access delay (ms)", fmt(without["denm_delay_ms"], 2),
         fmt(with_dcc["denm_delay_ms"], 2)),
        ("DENM delivery", fmt(without["denm_delivery"], 2),
         fmt(with_dcc["denm_delivery"], 2)),
        ("frames on air", without["frames_on_air"],
         with_dcc["frames_on_air"]),
    ]
    report.table(("metric", "no DCC", "DCC"), rows)
    if with_dcc["dcc_peak_states"]:
        report.line()
        report.line("peak DCC states reached: "
                    + ", ".join(s.name
                                for s in with_dcc["dcc_peak_states"]))
        report.line("(the reactive controller oscillates: throttle -> "
                    "quiet channel -> relax -> load returns)")
    report.save("ablation_dcc")

    # --- Shape assertions --------------------------------------------
    # Overload without DCC saturates the channel.
    assert without["cbr"] > 0.8
    # DCC pulls the mean busy ratio down decisively.
    assert with_dcc["cbr"] < without["cbr"] - 0.2
    # Every station escalated beyond RELAXED at some point.
    assert all(state > DccState.RELAXED
               for state in with_dcc["dcc_peak_states"])
    # The safety DENM gets through either way (AC_VO priority), but
    # its channel-access delay improves with DCC.
    assert with_dcc["denm_delay_ms"] < without["denm_delay_ms"]
    assert with_dcc["denm_delivery"] == 1.0
