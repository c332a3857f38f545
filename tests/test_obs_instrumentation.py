"""Instrumentation must be observation, not intervention.

The tentpole guarantee of ``repro.obs``: attaching collectors changes
*nothing* about a run -- every RunMeasurement field, every step
timeline entry and every fault verdict stays bit-identical, whether
the campaign runs serially or across workers.  Alongside the
bit-identity oracle, these tests pin that the instrumented run
actually *observes* the stack: spans for every known stage, counters
for every layer.
"""

import pytest

from repro.core import (
    EmergencyBrakeScenario,
    ScaleTestbed,
    run_campaign_parallel,
)
from repro.core.campaign import BrakeJob, simulate
from repro.faults.catalogue import builtin_plans
from repro.faults.envelope import evaluate
from repro.obs import ObsAggregate, ObsContext

#: Short scenario so each test stays fast (same as the engine tests).
FAST = EmergencyBrakeScenario(start_distance=4.0, timeout=15.0)


def as_dicts(result):
    return [measurement.to_dict() for measurement in result.runs]


class TestBitIdentity:
    def test_single_run_identical_with_and_without_obs(self):
        plain = ScaleTestbed(FAST, run_id=1).run()
        observed = ScaleTestbed(FAST, run_id=1,
                                obs=ObsContext()).run()
        assert observed.to_dict() == plain.to_dict()

    def test_campaign_identical_instrumented_vs_not(self):
        plain = run_campaign_parallel(FAST, runs=3, base_seed=5,
                                      workers=1)
        aggregate = ObsAggregate()
        # workers=4 on purpose: instrumented campaigns shard across
        # the pool (per-worker contexts merge through the exact fold)
        # and must still match the uninstrumented parallel population
        # bit for bit.
        observed = run_campaign_parallel(FAST, runs=3, base_seed=5,
                                         workers=4, obs=aggregate)
        assert as_dicts(observed) == as_dicts(plain)
        assert observed.table2() == plain.table2()
        assert aggregate.runs == 3
        assert observed.obs is aggregate
        assert plain.obs is None

    def test_fault_verdicts_identical_under_instrumentation(self):
        plan = next(p for p in builtin_plans() if not p.is_empty)
        plain = run_campaign_parallel(FAST, runs=2, base_seed=3,
                                      workers=1, fault_plan=plan)
        observed = run_campaign_parallel(FAST, runs=2, base_seed=3,
                                         workers=1, fault_plan=plan,
                                         obs=ObsAggregate())
        assert as_dicts(observed) == as_dicts(plain)
        assert [evaluate(m) for m in observed.runs] == \
            [evaluate(m) for m in plain.runs]


class TestCoverage:
    """One instrumented run observes every layer of the stack."""

    def setup_method(self):
        self.ctx = ObsContext()
        self.measurement = ScaleTestbed(FAST, obs=self.ctx).run()

    def test_spans_cover_known_stages(self):
        stats = self.ctx.spans.stats()
        for name in ("phy.tx", "mac.access", "http.request",
                     "obu.poll", "pipeline.detect", "vehicle.brake",
                     "e2e.detection_to_send", "e2e.send_to_receive",
                     "e2e.receive_to_actuation", "e2e.total"):
            assert name in stats, f"missing span {name}"
            assert stats[name].count > 0

    def test_counters_cover_known_layers(self):
        def total(name):
            return sum(metric.value for (metric_name, _), metric
                       in self.ctx.metrics._metrics.items()
                       if metric_name == name)

        for name in ("kernel.events", "phy.frames_sent",
                     "phy.frames_delivered",
                     "http.requests_served", "ca.cams_sent",
                     "den.denms_sent", "den.denms_received",
                     "obu.polls", "obu.denms_handled",
                     "vehicle.emergency_stops",
                     "vehicle.commands_delivered",
                     "pipeline.frames_processed"):
            assert total(name) > 0, f"counter {name} never incremented"

    def test_histograms_observed(self):
        metrics = self.ctx.metrics.to_dict()
        for name in ("mac.access_delay_ms", "phy.airtime_ms",
                     "http.queue_service_ms", "obu.poll_rtt_ms",
                     "pipeline.inference_ms"):
            assert any(key.split("{")[0] == name for key in metrics), \
                f"histogram {name} never observed"

    def test_e2e_spans_match_timeline_intervals(self):
        intervals = self.measurement.intervals_ms(use_clock=False)
        stats = self.ctx.spans.stats()
        for span, row in (("e2e.detection_to_send",
                           "detection_to_send"),
                          ("e2e.total", "total")):
            assert stats[span].total * 1000.0 == \
                intervals[row]

    def test_prometheus_export_renders(self):
        text = self.ctx.to_prometheus_text()
        assert "repro_kernel_events" in text
        assert "repro_span_e2e_total_seconds_count 1" in text


class TestDccInstrumentation:
    """The DCC gate is not wired into the default testbed, so its
    counters are pinned directly against a standalone gatekeeper."""

    def test_gate_counts_passed_and_gated_frames(self):
        import numpy as np

        from repro.net import Frame, NetworkInterface, WirelessMedium
        from repro.net.dcc import DccGatekeeper
        from repro.net.propagation import (
            LinkBudget,
            LogDistancePathLoss,
        )
        from repro.sim import Simulator

        sim = Simulator()
        ctx = ObsContext().bind(sim)
        medium = WirelessMedium(
            sim, 1,
            LinkBudget(path_loss=LogDistancePathLoss()))
        nic = NetworkInterface(sim, medium, "main",
                               lambda: (0.0, 0.0),
                               rng=np.random.default_rng(2))
        gate = DccGatekeeper(sim, nic)
        for _ in range(3):  # first passes, the rest queue behind t_off
            gate.send(Frame(payload=b"x", size=60, source=""))
        sim.run_until(1.0)
        metrics = ctx.metrics
        assert metrics.counter("dcc.frames_passed",
                               device="main").value == 3.0
        assert metrics.counter("dcc.frames_gated",
                               device="main").value == 2.0
        assert metrics.gauge("dcc.state", device="main").value == 0.0


class TestAggregate:
    def test_cached_runs_counted(self, tmp_path):
        cache = str(tmp_path / "cache")
        run_campaign_parallel(FAST, runs=2, base_seed=9, workers=1,
                              cache_dir=cache)
        aggregate = ObsAggregate()
        result = run_campaign_parallel(FAST, runs=2, base_seed=9,
                                       workers=1, cache_dir=cache,
                                       obs=aggregate)
        assert aggregate.runs == 0
        assert aggregate.cached_runs == 2
        assert len(result.runs) == 2


class TestSimDigestPins:
    """``ObsAggregate.sim_digest()`` pinned as literals.

    The digest covers every counter, histogram and span statistic an
    observed campaign folds, so a pin moves if the kernel hook stops
    counting ``kernel.events``, a facilities service stops counting
    its messages, or any span changes.
    """

    def test_brake_campaign_pinned(self):
        aggregate = ObsAggregate()
        run_campaign_parallel(EmergencyBrakeScenario(), runs=3,
                              base_seed=1, workers=1, obs=aggregate)
        assert aggregate.sim_digest() == (
            "50033cb38668b193fc496b8b2e7e086384e054739c9dc87c35f377cb13255625")

    def test_fleet_campaign_pinned(self):
        from repro.core.fleet import FleetScenario, run_fleet_campaign

        aggregate = ObsAggregate()
        run_fleet_campaign(
            FleetScenario(workload="convoy", n_obus=8, n_rsus=2,
                          duration=3.0),
            runs=2, workers=1, obs=aggregate)
        assert aggregate.sim_digest() == (
            "eda8643c118bbecf5199b31e96f2913e89936040ff7a3d2220a0865fdbed1afc")

    def test_fleet_observed_workload_pinned(self):
        # The unit of bench/'s fleet_observed workload at seed 1: its
        # per-run observations go through to_dict/from_dict and fold.
        from repro.core.fleet import FleetScenario, run_fleet_campaign

        aggregate = ObsAggregate()
        result = run_fleet_campaign(
            FleetScenario(workload="convoy", n_obus=32, n_rsus=2,
                          duration=3.0),
            runs=2, base_seed=1, workers=1, obs=aggregate)
        assert result.digest() == (
            "0c348023b5c4e888e34b0ba2c39e35ffe2f35523b4d21f2ba06a21470145eb19")
        assert aggregate.sim_digest() == (
            "1126a190487b85632f3d86d19b82b199b6d6cde4d2966367577cd9c4de30663b")

    #: The OBU poll loop's timeout/backoff schedule under each policy.
    #: Measurements are tie-invariant, so the result digest is one
    #: literal; the obs digest also counts kernel events and MAC
    #: spans, which legitimately differ between policies.
    DEGRADED_RESULT = (
        "595c4bdb194312b256d33d6a90a8ea413a695d6a6d70c6b3dc4a325939b1df13")
    DEGRADED_OBS = {
        "fifo": "5b64c8b523d60f2e07d2a7768cdacfcfbf008de2c7a796f0af208074f9ecf9b3",
        "lifo": "fb1f92d02e4da666c9d634f3dc54678ebdebef0269685d140ce89876a9414645",
        "seeded": "768fdee905c5ac30972c4a849701e2b53701f208841ddb8ae2a132017d8b48e8",
    }

    @pytest.mark.parametrize("policy", ["fifo", "lifo", "seeded"])
    def test_obu_http_degraded_campaign_pinned(self, policy):
        from repro.faults.catalogue import plans_by_name

        aggregate = ObsAggregate()
        result = run_campaign_parallel(
            EmergencyBrakeScenario(tie_break=policy), runs=2, base_seed=1,
            workers=1, fault_plan=plans_by_name()["obu_http_degraded"],
            obs=aggregate)
        assert result.digest() == self.DEGRADED_RESULT
        assert aggregate.sim_digest() == self.DEGRADED_OBS[policy]

    def test_body_with_wall_profile_still_folds(self):
        # An observed body as earlier versions stored it in run caches
        # and queue artifacts: the context carries a "wall" profile and
        # the body a "wall_s".  Both are wall-clock data outside the
        # digest, so such a body folds to the same sim_digest.
        from repro.core.campaign import fold_obs

        body = {
            "wall_s": 0.5,
            "obs": {
                "metrics": {
                    'den.denms_sent{device="rsu"}':
                        {"kind": "counter", "value": 1.0},
                    "kernel.events": {"kind": "counter", "value": 2.0},
                    'mac.access_delay_ms{device="obu"}': {
                        "kind": "histogram", "bounds": [0.1, 1.0],
                        "bucket_counts": [0, 1, 0], "count": 1,
                        "sum": "1/4"},
                },
                "spans": {
                    "e2e.total": {"count": 1, "total_s": 0.25,
                                  "min_s": 0.25, "max_s": 0.25,
                                  "mean_s": 0.25},
                },
                "span_events": [
                    {"name": "e2e.total", "device": "obu",
                     "start": 0.5, "end": 0.75, "depth": 0},
                ],
                "wall": {
                    "kernel.step": {"count": 1, "total_s": 1e-05,
                                    "min_s": 1e-05, "max_s": 1e-05,
                                    "mean_s": 1e-05},
                },
            },
        }
        aggregate = ObsAggregate()
        fold_obs(aggregate, body)
        assert aggregate.runs == 1
        assert aggregate.run_wall_seconds == [0.5]
        assert aggregate.sim_digest() == (
            "7be8ccdc29d385312e43e26a070bc199f0d11dfe43362e5ac461331b2961cc2a")


class TestVisionStageNames:
    """The lane detector calls Canny and Hough through
    ``repro.vehicle.line_follow``'s module-level names, once per
    processed frame, so a wrapper installed there (bench/layers.py
    times the vision layer that way) sees every frame."""

    @pytest.mark.parametrize("observe", [False, True])
    @pytest.mark.parametrize("stage", ["canny", "probabilistic_hough"])
    def test_wrapper_sees_every_frame(self, monkeypatch, stage, observe):
        from repro.vehicle import line_follow

        plain = ScaleTestbed(FAST, run_id=1).run()
        calls = []
        original = getattr(line_follow, stage)

        def wrapped(*args, **kwargs):
            calls.append(stage)
            return original(*args, **kwargs)

        monkeypatch.setattr(line_follow, stage, wrapped)
        testbed = ScaleTestbed(FAST, run_id=1,
                               obs=ObsContext() if observe else None)
        measurement = testbed.run()
        assert len(calls) > 0
        assert len(calls) == testbed.vehicle.detector.frames_processed
        assert measurement.to_dict() == plain.to_dict()


def _small_job(family):
    if family == "brake":
        return BrakeJob(FAST.with_seed(2), run_id=1)
    from repro.core.fleet import FleetScenario
    from repro.core.fleet.campaign import FleetJob

    return FleetJob(FleetScenario(workload="convoy", n_obus=4, n_rsus=1,
                                  duration=3.0), run_id=1)


class TestSimulateBodies:
    """``campaign.simulate``: an observed body carries the run's
    context and one measured wall time; a plain body carries neither,
    and the simulated part of both is the same."""

    @pytest.mark.parametrize("family", ["brake", "fleet"])
    def test_observed_body_carries_context_and_wall_time(self, family):
        body = simulate(_small_job(family), observe=True)
        assert body["kind"] == family
        assert isinstance(body["wall_s"], float)
        assert body["wall_s"] > 0.0
        assert set(body["obs"]) == {"metrics", "spans", "span_events"}
        ctx = ObsContext.from_dict(body["obs"])
        assert ctx.metrics.counter("kernel.events").value > 0

    @pytest.mark.parametrize("family", ["brake", "fleet"])
    def test_plain_body_has_neither(self, family):
        body = simulate(_small_job(family), observe=False)
        assert body["kind"] == family
        assert "obs" not in body
        assert "wall_s" not in body

    @pytest.mark.parametrize("family", ["brake", "fleet"])
    def test_observed_body_matches_plain_apart_from_obs(self, family):
        observed = simulate(_small_job(family), observe=True)
        plain = simulate(_small_job(family), observe=False)
        del observed["obs"], observed["wall_s"]
        assert observed == plain
