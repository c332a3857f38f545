"""Resilience tests: lossy channels, DENM repetition recovery,
partial-system failures."""

import dataclasses


from repro.core.measurement import Steps
from repro.core.scenario import EmergencyBrakeScenario
from repro.core.testbed import ScaleTestbed
from repro.faults import FaultPlan, NodeOutage, evaluate, install_faults

from repro.facilities import ItsStation
from repro.geonet import CircularArea, LocalFrame
from repro.messages import Denm, ReferencePosition, StationType
from repro.net import PhyConfig, WirelessMedium
from repro.net.propagation import (
    LinkBudget,
    LogDistancePathLoss,
    NakagamiFading,
    ShadowingModel,
)
from repro.sim import NtpModel, RandomStreams, Simulator

FRAME = LocalFrame()


def build_lossy_pair(distance, seed=1, fading_m=1.0):
    """Two stations over a deep-fading link."""
    sim = Simulator()
    streams = RandomStreams(seed)
    budget = LinkBudget(
        path_loss=LogDistancePathLoss(exponent=2.8),
        shadowing=ShadowingModel(sigma_db=4.0),
        fading=NakagamiFading(m=fading_m),
    )
    medium = WirelessMedium(sim, streams.seed, budget)
    sender = ItsStation(
        sim, medium, streams, "rsu", 900, StationType.ROAD_SIDE_UNIT,
        position=lambda: FRAME.to_geo(0.0, 0.0), is_rsu=True,
        ntp=NtpModel.ideal(), enable_cam=False, local_frame=FRAME)
    receiver = ItsStation(
        sim, medium, streams, "obu", 101, StationType.PASSENGER_CAR,
        position=lambda: FRAME.to_geo(distance, 0.0),
        ntp=NtpModel.ideal(), enable_cam=False, local_frame=FRAME)
    return sim, medium, sender, receiver


def make_denm(sender, x=0.0):
    geo = FRAME.to_geo(x, 0.0)
    return Denm.collision_risk(
        sender.den.allocate_action_id(),
        detection_time=sender.its_time(),
        event_position=ReferencePosition(geo.latitude, geo.longitude),
        station_type=StationType.ROAD_SIDE_UNIT)


def find_lossy_distance():
    """A distance where single transmissions are clearly lossy."""
    # Fixed by the deterministic propagation parameters; 260 m under
    # exponent 2.8 + fading gives ~30-70% loss.
    return 260.0


class TestLossyLink:
    def test_single_shot_denms_get_lost(self):
        distance = find_lossy_distance()
        sim, medium, sender, receiver = build_lossy_pair(distance)
        got = []
        receiver.den.on_denm(lambda denm, cls: got.append(cls))
        area = CircularArea(FRAME.to_geo(distance, 0.0), 50.0)
        for k in range(40):
            sim.schedule(0.05 * k, lambda: sender.den.trigger(
                make_denm(sender, x=distance), area=area))
        sim.run_until(5.0)
        # Some got through, some were lost: a genuinely lossy link.
        assert 0 < len(got) < 40

    def test_repetition_recovers_lost_denm(self):
        distance = find_lossy_distance()
        trials = 12

        def run_once(seed, repetition):
            sim, medium, sender, receiver = build_lossy_pair(
                distance, seed=seed)
            got = []
            receiver.den.on_denm(lambda denm, cls: got.append(cls))
            area = CircularArea(FRAME.to_geo(distance, 0.0), 50.0)
            kwargs = ({"repetition_interval": 0.1,
                       "repetition_duration": 2.0}
                      if repetition else {})
            sim.schedule(0.1, lambda: sender.den.trigger(
                make_denm(sender, x=distance), area=area, **kwargs))
            sim.run_until(4.0)
            return bool(got)

        single = sum(run_once(seed + 100, repetition=False)
                     for seed in range(trials))
        repeated = sum(run_once(seed + 100, repetition=True)
                       for seed in range(trials))
        # Repetition beats fading (per-frame randomness); only links
        # stuck in a static shadowing fade can still fail.
        assert repeated > single
        assert repeated >= trials - 2

    def test_duplicate_suppression_under_repetition(self):
        # Repetitions that do arrive are classified, not re-delivered
        # as new.
        sim, medium, sender, receiver = build_lossy_pair(5.0)  # clean
        got = []
        receiver.den.on_denm(lambda denm, cls: got.append(cls))
        area = CircularArea(FRAME.to_geo(5.0, 0.0), 50.0)
        sim.schedule(0.1, lambda: sender.den.trigger(
            make_denm(sender, x=5.0), area=area,
            repetition_interval=0.1, repetition_duration=1.0))
        sim.run_until(3.0)
        assert got.count("new") == 1
        assert got.count("repetition") >= 8


class TestRepetitionRecoversRsuOutage:
    """End-to-end: an injected RSU radio outage swallows the first
    DENM; ETSI DEN repetition delivers a later copy once the radio
    restarts, and the vehicle still stops."""

    #: The radio is down over the whole first-DENM window (the chain
    #: sends around t=2.4-3.1 s from 4 m out) and restarts at t=4 s.
    OUTAGE = FaultPlan("rsu_radio_outage", (
        NodeOutage(start=2.0, duration=2.0, target="rsu_radio"),))

    @staticmethod
    def run_scenario(repetition, plan=None):
        scenario = EmergencyBrakeScenario(
            start_distance=4.0, timeout=15.0,
            denm_repetition_interval=0.1 if repetition else None,
            denm_repetition_duration=3.0 if repetition else 0.0)
        testbed = ScaleTestbed(scenario, run_id=1)
        if plan is not None:
            install_faults(testbed, plan)
        return testbed, testbed.run()

    def test_without_repetition_the_warning_is_lost(self):
        testbed, measurement = self.run_scenario(
            repetition=False, plan=self.OUTAGE)
        verdict = evaluate(measurement)
        assert testbed.medium.stats()["suppressed"] > 0
        assert not verdict.denm_delivered
        assert verdict.verdict == "NO_STOP"

    def test_repetition_recovers_after_restart(self):
        testbed, measurement = self.run_scenario(
            repetition=True, plan=self.OUTAGE)
        verdict = evaluate(measurement)
        # The first copies were suppressed by the outage ...
        assert testbed.medium.stats()["suppressed"] > 0
        # ... but a repetition got through after the radio restarted,
        # and the vehicle stopped (late: the warning was delayed).
        assert verdict.denm_delivered
        assert verdict.halted
        received = measurement.timeline.get(Steps.OBU_RECEIVED)
        outage_end = self.OUTAGE.faults[0].end
        assert received.sim_time >= outage_end

    def test_repetition_changes_nothing_without_faults(self):
        testbed, measurement = self.run_scenario(repetition=True)
        verdict = evaluate(measurement)
        assert verdict.verdict == "SAFE_STOP"
        # Repetitions arrive but are classified as duplicates: one
        # stop, one step-4 record, no re-triggering.
        assert measurement.timeline.has(Steps.HALTED)


class TestPartialFailures:
    def test_low_power_radio_shrinks_range(self):
        results = {}
        for power in (18.0, -10.0):
            sim = Simulator()
            streams = RandomStreams(5)
            medium = WirelessMedium(
                sim, streams.seed,
                LinkBudget(path_loss=LogDistancePathLoss(exponent=2.8)))
            phy = PhyConfig(tx_power_dbm=power)
            sender = ItsStation(
                sim, medium, streams, "a", 1, 15,
                position=lambda: FRAME.to_geo(0.0, 0.0), phy=phy,
                enable_cam=False, local_frame=FRAME)
            receiver = ItsStation(
                sim, medium, streams, "b", 2, 5,
                position=lambda: FRAME.to_geo(120.0, 0.0), phy=phy,
                enable_cam=False, local_frame=FRAME)
            got = []
            receiver.den.on_denm(lambda denm, cls: got.append(cls))
            area = CircularArea(FRAME.to_geo(120.0, 0.0), 50.0)
            for k in range(10):
                sim.schedule(0.05 * k, lambda: sender.den.trigger(
                    make_denm(sender, x=120.0), area=area))
            sim.run_until(2.0)
            results[power] = len(got)
        assert results[18.0] > 0
        assert results[-10.0] == 0

    def test_expired_denm_leaves_ldm(self):
        sim, medium, sender, receiver = build_lossy_pair(5.0)
        denm = dataclasses.replace(make_denm(sender, x=5.0),
                                   validity_duration=1)
        area = CircularArea(FRAME.to_geo(5.0, 0.0), 50.0)
        sim.schedule(0.1, lambda: sender.den.trigger(denm, area=area))
        sim.run_until(0.5)
        key = (f"denm:{denm.action_id.station_id}"
               f":{denm.action_id.sequence_number}")
        assert receiver.ldm.get(key) is not None
        sim.run_until(3.0)
        assert receiver.ldm.get(key) is None
