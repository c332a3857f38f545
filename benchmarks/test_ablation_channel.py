"""A3 -- ablation: channel load and distance vs the radio hop.

The paper measures a ~1.6 ms RSU->OBU interval on a quiet lab channel
at metres of range and notes "further work is required to properly
model attenuation, either by interference or shadowing".  This
ablation stresses exactly that: background stations loading the
channel with broadcast traffic (DENM access delay grows), and link
distance under log-distance + shadowing + Nakagami fading (delivery
ratio falls).  A far-link delivery ratio hangs on each link's
shadowing sample, so the distance sweep averages a ring of receivers,
one independent shadowing value each, rather than reading one link.
"""

import math

import numpy as np

from repro.net import AccessCategory, Frame, NetworkInterface, WirelessMedium
from repro.net.propagation import (
    LinkBudget,
    LogDistancePathLoss,
    NakagamiFading,
    ShadowingModel,
)
from repro.sim import Simulator

from benchmarks.conftest import fmt

LOADS = (0, 4, 8, 16, 32)      # background stations
DISTANCES = (5.0, 50.0, 150.0, 300.0, 450.0)
DENMS = 200
RING = 128                      # receivers per distance, one link each


def measure_load(background_stations, seed=1):
    """DENM access delay + delivery under background broadcast load."""
    sim = Simulator()
    medium = WirelessMedium(
        sim, seed,
        LinkBudget(path_loss=LogDistancePathLoss()))
    rsu = NetworkInterface(sim, medium, "rsu", lambda: (0.0, 0.0),
                           rng=np.random.default_rng(seed + 1))
    obu = NetworkInterface(sim, medium, "obu", lambda: (10.0, 0.0),
                           rng=np.random.default_rng(seed + 2))
    delays = []
    sent_at = {}

    def on_rx(frame):
        if frame.payload == b"denm":
            delays.append(sim.now - sent_at[id(frame)])

    obu.on_receive(on_rx)
    jitter_rng = np.random.default_rng(seed + 500)

    # Background stations: ~100 Hz of 300-byte broadcast each, with
    # per-period jitter so transmissions are not phase-locked.
    def make_spam(nic):
        def spam():
            nic.send(Frame(payload=b"bg", size=300, source=nic.name,
                           category=AccessCategory.AC_BE))
            sim.schedule(float(jitter_rng.uniform(0.006, 0.014)), spam)

        return spam

    for index in range(background_stations):
        nic = NetworkInterface(
            sim, medium, f"bg{index}",
            lambda index=index: (5.0 + index % 8, 3.0 + index // 8),
            rng=np.random.default_rng(seed + 10 + index))
        sim.schedule(float(jitter_rng.uniform(0.0, 0.01)),
                     make_spam(nic))

    count = [0]

    def fire():
        frame = Frame(payload=b"denm", size=100, source="rsu",
                      category=AccessCategory.AC_VO)
        sent_at[id(frame)] = sim.now
        rsu.send(frame)
        count[0] += 1
        if count[0] < DENMS:
            sim.schedule(float(jitter_rng.uniform(0.015, 0.025)), fire)

    sim.schedule(0.1, fire)
    sim.run_until(0.1 + DENMS * 0.02 + 1.0)
    delivered = len(delays)
    return (float(np.mean(delays) * 1000.0) if delays else float("nan"),
            delivered / DENMS)


def measure_distance(distance, seed=1):
    """Mean delivery ratio over a ring of fading links at ``distance``."""
    sim = Simulator()
    budget = LinkBudget(
        path_loss=LogDistancePathLoss(exponent=2.5),
        shadowing=ShadowingModel(sigma_db=3.0),
        fading=NakagamiFading(m=3.0),
    )
    medium = WirelessMedium(sim, seed, budget)
    rsu = NetworkInterface(sim, medium, "rsu", lambda: (0.0, 0.0),
                           rng=np.random.default_rng(seed + 1))
    received = [0] * RING
    for index in range(RING):
        bearing = 2.0 * math.pi * index / RING
        position = (distance * math.cos(bearing),
                    distance * math.sin(bearing))
        obu = NetworkInterface(sim, medium, f"obu{index}",
                               lambda position=position: position,
                               rng=np.random.default_rng(seed + 2 + index))

        def on_rx(_frame, index=index):
            received[index] += 1

        obu.on_receive(on_rx)

    count = [0]

    def fire():
        rsu.send(Frame(payload=b"denm", size=100, source="rsu",
                       category=AccessCategory.AC_VO))
        count[0] += 1
        if count[0] < DENMS:
            sim.schedule(0.01, fire)

    sim.schedule(0.0, fire)
    sim.run_until(DENMS * 0.01 + 1.0)
    return sum(received) / (RING * DENMS)


def run_sweeps():
    load_rows = [(n, *measure_load(n)) for n in LOADS]
    distance_rows = [(d, measure_distance(d)) for d in DISTANCES]
    return load_rows, distance_rows


def test_ablation_channel_load_and_distance(benchmark, report):
    load_rows, distance_rows = benchmark.pedantic(run_sweeps, rounds=1,
                                                  iterations=1)

    report.line("Ablation A3 -- channel load and distance vs radio hop")
    report.line()
    report.line("Background load (10 m link):")
    report.table(("bg stations", "DENM delay (ms)", "delivery"),
                 [(n, fmt(delay, 2), fmt(ratio, 3))
                  for n, delay, ratio in load_rows])
    report.line()
    report.line(f"Distance (shadowing sigma=3 dB, Nakagami m=3; mean over "
                f"{RING} links):")
    report.table(("distance (m)", "delivery"),
                 [(fmt(d, 0), fmt(ratio, 3))
                  for d, ratio in distance_rows])
    report.save("ablation_channel")

    # --- Shape assertions --------------------------------------------
    # Quiet channel: sub-millisecond access, full delivery.
    assert load_rows[0][1] < 1.0
    assert load_rows[0][2] == 1.0
    # Load grows the DENM's access delay (monotone up to saturation
    # noise: AC_VO preemption bounds the wait at one residual frame).
    delays = [delay for _n, delay, _r in load_rows]
    assert all(b >= a - 0.02 for a, b in zip(delays, delays[1:]))
    assert load_rows[-1][1] > 1.8 * load_rows[0][1]
    # Delivery ratio decays with distance; far links are clearly lossy.
    # Over the ring the 450 m mean is ~0.68 with a seed-to-seed spread
    # of ~0.026, so 0.8 sits more than four spreads above it.
    ratios = [ratio for _d, ratio in distance_rows]
    assert ratios[0] > 0.99
    assert ratios[-1] < 0.8
    assert all(a >= b - 0.05 for a, b in zip(ratios, ratios[1:]))
