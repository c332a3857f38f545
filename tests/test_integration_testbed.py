"""Integration tests: the full emergency-braking testbed, the
blind-corner use-case and the platoon extension."""


import pytest

from repro.core import (
    CampaignResult,
    EmergencyBrakeScenario,
    ScaleTestbed,
    Steps,
    run_campaign,
)
from repro.core.blind_corner import (
    BlindCornerScenario,
    BlindCornerTestbed,
    compare_configurations,
)
from repro.core.platoon import PlatoonScenario, run_platoon


@pytest.fixture(scope="module")
def campaign():
    """A shared 5-run campaign (the paper's population size)."""
    return run_campaign(runs=5, base_seed=11)


class TestEmergencyBrakeRun:
    def test_single_run_completes_chain(self):
        measurement = ScaleTestbed(EmergencyBrakeScenario(seed=99)).run()
        assert measurement.completed
        assert measurement.timeline.complete

    def test_step_order_in_ground_truth(self):
        testbed = ScaleTestbed(EmergencyBrakeScenario(seed=99))
        testbed.run()
        times = [testbed.timeline.get(step).sim_time
                 for step in Steps.ORDER]
        assert times == sorted(times)

    def test_detection_happens_at_or_after_action_point(self):
        testbed = ScaleTestbed(EmergencyBrakeScenario(seed=99))
        testbed.run()
        ap = testbed.timeline.get(Steps.ACTION_POINT)
        detection = testbed.timeline.get(Steps.DETECTION)
        assert detection.sim_time >= ap.sim_time
        # Detected within a few processed frames of the crossing.
        assert detection.sim_time - ap.sim_time < 0.8

    def test_vehicle_actually_stops(self):
        testbed = ScaleTestbed(EmergencyBrakeScenario(seed=99))
        testbed.run()
        assert testbed.vehicle.dynamics.is_stopped
        assert testbed.vehicle.planner.emergency_engaged


class TestTable2Shape(object):
    """The shape constraints the paper's Table II must satisfy."""

    def test_all_runs_complete(self, campaign):
        assert len(campaign.completed_runs) == 5

    def test_total_under_100ms(self, campaign):
        totals = campaign.total_delays_ms()
        assert (totals < 100.0).all()
        # And in the same band as the paper's 44-71 ms.
        assert 20.0 < totals.mean() < 80.0

    def test_radio_hop_is_minimal_fraction(self, campaign):
        table = campaign.table2(use_clock=False)
        radio = table["send_to_receive"]["avg"]
        total = table["total"]["avg"]
        assert radio < 5.0            # single-digit ms
        assert radio / total < 0.10   # "a minimal part of the total"

    def test_detection_and_vehicle_sides_dominate(self, campaign):
        table = campaign.table2(use_clock=False)
        assert table["detection_to_send"]["avg"] > 10.0
        assert table["receive_to_actuation"]["avg"] > 5.0

    def test_clock_measurements_close_to_truth(self, campaign):
        clocked = campaign.table2(use_clock=True)["total"]["avg"]
        truth = campaign.table2(use_clock=False)["total"]["avg"]
        # NTP residuals are sub-millisecond.
        assert abs(clocked - truth) < 3.0


class TestTable3Shape:
    def test_braking_within_vehicle_length(self, campaign):
        distances = campaign.braking_distances()
        assert (distances > 0.05).all()
        assert (distances < 0.53).all()

    def test_braking_variance_small(self, campaign):
        distances = campaign.braking_distances()
        assert distances.var() < 0.01

    def test_final_position_short_of_camera(self, campaign):
        for run in campaign.completed_runs:
            assert run.final_distance_to_camera > 0.1


class TestDeterminism:
    def test_same_seed_same_results(self):
        a = ScaleTestbed(EmergencyBrakeScenario(seed=5)).run()
        b = ScaleTestbed(EmergencyBrakeScenario(seed=5)).run()
        assert a.intervals_ms() == b.intervals_ms()
        assert a.braking_distance == b.braking_distance

    def test_different_seed_different_results(self):
        a = ScaleTestbed(EmergencyBrakeScenario(seed=5)).run()
        b = ScaleTestbed(EmergencyBrakeScenario(seed=6)).run()
        assert a.intervals_ms() != b.intervals_ms()

    def test_brake_campaign_digest_pinned(self):
        # The brake-grid digest of seeds 1..10, pinned byte for byte:
        # a speed-up of any layer the run touches (vision, vehicle,
        # net, codec) must leave it unchanged.
        base = EmergencyBrakeScenario()
        result = CampaignResult(
            scenario=base,
            runs=[ScaleTestbed(base.with_seed(seed), run_id=seed).run()
                  for seed in range(1, 11)])
        assert result.digest() == (
            "9dcbb6032e3e5982fa98942422cbbc2efa3742729a9edb9a3f17f10834b8f578")


class TestFailureInjection:
    def test_without_handler_vehicle_never_stops(self):
        testbed = ScaleTestbed(EmergencyBrakeScenario(seed=7, timeout=12.0))
        testbed.handler.stop()
        measurement = testbed.run()
        assert not measurement.completed
        assert not testbed.timeline.has(Steps.ACTUATORS)
        # The DENM still reached the OBU; nobody polled it.
        assert testbed.obu.pending_denm_count >= 1

    def test_radio_blackout_breaks_chain(self):
        from repro.net.phy import PhyConfig

        scenario = EmergencyBrakeScenario(seed=7, timeout=12.0)
        testbed = ScaleTestbed(scenario)
        # Detach the OBU NIC: the DENM can never arrive.
        testbed.medium.detach(testbed.obu.station.nic)
        measurement = testbed.run()
        assert testbed.timeline.has(Steps.RSU_SENT)
        assert not testbed.timeline.has(Steps.OBU_RECEIVED)
        assert not measurement.completed

    def test_slow_poll_still_under_validity(self):
        scenario = EmergencyBrakeScenario(seed=7, obu_poll_interval=0.2)
        measurement = ScaleTestbed(scenario).run()
        assert measurement.completed
        assert measurement.intervals_ms()["receive_to_actuation"] > \
            ScaleTestbed(EmergencyBrakeScenario(
                seed=7)).run().intervals_ms()["receive_to_actuation"]


class TestBlindCorner:
    def test_network_aided_prevents_collision(self):
        aided, onboard = compare_configurations(seed=3)
        assert not aided.collision
        assert aided.denm_received
        assert aided.protagonist_stopped
        assert aided.stop_margin > 0.5

    def test_onboard_only_fails(self):
        _aided, onboard = compare_configurations(seed=3)
        assert onboard.collision
        assert not onboard.denm_received

    def test_onboard_lidar_does_fire_just_too_late(self):
        _aided, onboard = compare_configurations(seed=3)
        assert onboard.lidar_triggered

    def test_aided_beats_onboard_on_separation(self):
        aided, onboard = compare_configurations(seed=3)
        assert aided.min_separation > onboard.min_separation

    def test_no_crosser_no_stop(self):
        scenario = BlindCornerScenario(seed=3, crosser_start=100.0,
                                       timeout=8.0)
        result = BlindCornerTestbed(scenario).run()
        assert not result.collision
        assert not result.denm_received


class TestPlatoon:
    def test_its_g5_whole_platoon_stops(self):
        result = run_platoon(PlatoonScenario(leader_interface="its_g5"))
        assert result.all_stopped
        assert result.collisions == 0
        assert result.min_gap > 0.5
        delays = result.member_delays_ms()
        assert all(d is not None and d < 200.0 for d in delays)

    def test_5g_leader_whole_platoon_stops(self):
        result = run_platoon(PlatoonScenario(leader_interface="5g_leader"))
        assert result.all_stopped
        assert result.collisions == 0

    def test_5g_leader_fastest_member(self):
        result = run_platoon(PlatoonScenario(leader_interface="5g_leader"))
        delays = result.member_delays_ms()
        # The leader hears the 5G warning before the followers hear
        # the re-broadcast DENM.
        assert delays[0] == min(delays)

    def test_multi_hop_reaches_tail(self):
        # Tail member is out of the RSU's (short) radio range; GBC
        # forwarding must reach it.
        result = run_platoon(PlatoonScenario(
            leader_interface="its_g5", members=4))
        assert result.member_delays_ms()[-1] is not None

    def test_platoon_delay_is_slowest_member(self):
        result = run_platoon(PlatoonScenario(leader_interface="its_g5"))
        delays = result.member_delays_ms()
        assert result.platoon_delay_ms == max(delays)

    def test_unknown_interface_rejected(self):
        with pytest.raises(ValueError):
            run_platoon(PlatoonScenario(leader_interface="carrier-pigeon"))


class TestEventLifecycle:
    """DENM trigger -> stop -> all-clear cancellation -> resume."""

    def test_stop_and_go_with_cancellation(self):
        scenario = BlindCornerScenario(seed=1, all_clear=True,
                                       timeout=15.0)
        testbed = BlindCornerTestbed(scenario)
        result = testbed.run()
        assert not result.collision
        assert result.denm_received
        # The event was cancelled once the crosser left the region...
        assert testbed.edge.hazard.denms_cancelled == 1
        # ...and the protagonist resumed and crossed the intersection.
        assert testbed.protagonist.dynamics.state.x > 1.0
        assert testbed.protagonist.speed > 1.0

    def test_without_all_clear_vehicle_stays_stopped(self):
        scenario = BlindCornerScenario(seed=1, all_clear=False,
                                       timeout=15.0)
        testbed = BlindCornerTestbed(scenario)
        result = testbed.run()
        assert result.protagonist_stopped
        assert testbed.protagonist.dynamics.state.x < 0.0
        assert testbed.edge.hazard.denms_cancelled == 0

    def test_cancel_endpoint_validation(self):
        import numpy as np

        from repro.openc2x import HttpClient
        from tests.test_openc2x import build_units, trigger_body

        sim, obu, rsu, client = build_units()
        responses = []
        client.post(rsu.http, "/cancel_denm", {},
                    callback=responses.append)
        client.post(rsu.http, "/cancel_denm",
                    {"actionId": {"originatingStationID": 900,
                                  "sequenceNumber": 42}},
                    callback=responses.append)
        sim.run_until(1.0)
        assert responses[0].status == 400
        assert responses[1].status == 404

    def test_cancel_after_trigger_sends_termination(self):
        from tests.test_openc2x import build_units, trigger_body

        sim, obu, rsu, client = build_units()
        action_holder = []
        client.post(rsu.http, "/trigger_denm", trigger_body(),
                    callback=lambda r: action_holder.append(
                        r.body["actionId"]))
        sim.run_until(0.5)
        polled = []
        sim.schedule_at(0.6, lambda: client.post(
            obu.http, "/request_denm", {}, callback=polled.append))
        sim.schedule_at(1.0, lambda: client.post(
            rsu.http, "/cancel_denm", {"actionId": action_holder[0]},
            callback=polled.append))
        sim.schedule_at(1.5, lambda: client.post(
            obu.http, "/request_denm", {}, callback=polled.append))
        sim.run_until(2.0)
        first, cancel, second = polled
        assert first.body["denm"]["termination"] is None
        assert cancel.status == 200
        assert second.body["denm"]["termination"] == "isCancellation"


class TestPlatoonStringStability:
    """Follower control quality: disturbances must not amplify
    rearwards when the platoon brakes."""

    def test_gap_deviation_does_not_amplify(self):
        from repro.core.platoon import PlatoonScenario, PlatoonTestbed

        scenario = PlatoonScenario(members=5, leader_interface="its_g5",
                                   seed=4)
        testbed = PlatoonTestbed(scenario)
        deviations = [[] for _ in range(scenario.members - 1)]

        def sample():
            for index, (ahead, behind) in enumerate(zip(
                    testbed.members, testbed.members[1:])):
                gap = behind.x - ahead.x - 0.53
                deviations[index].append(abs(gap - scenario.desired_gap))
            testbed.sim.schedule(0.05, sample)

        testbed.sim.schedule(0.05, sample)
        result = testbed.run(warning_after=2.0)
        assert result.all_stopped
        peaks = [max(d) for d in deviations]
        # String stability: each pair's worst gap error is no larger
        # than ~the pair ahead (10% tolerance for discretisation).
        for front, rear in zip(peaks, peaks[1:]):
            assert rear <= front * 1.1 + 0.05
        # And nobody ever closes to an unsafe distance.
        assert result.min_gap > 1.0

    def test_followers_stop_in_order_without_overshoot(self):
        from repro.core.platoon import PlatoonScenario, PlatoonTestbed

        scenario = PlatoonScenario(members=4, seed=2)
        testbed = PlatoonTestbed(scenario)
        testbed.run(warning_after=2.0)
        positions = [member.outcome.stop_position
                     for member in testbed.members]
        # Stopped in convoy order, leader nearest the RSU (origin).
        assert positions == sorted(positions)
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        assert all(gap > 1.0 for gap in gaps)
