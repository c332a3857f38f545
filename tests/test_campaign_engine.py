"""Tests for the parallel campaign execution engine.

Three invariants of :mod:`repro.core.campaign`:

* serial and parallel campaigns yield bit-identical populations;
* every run is deterministic in its seed (the property the
  equivalence rests on);
* the on-disk run cache is transparent -- hits return the identical
  measurement, any config change invalidates the key, corruption
  falls back to recomputation.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EmergencyBrakeScenario,
    ScaleTestbed,
    run_campaign,
    run_campaign_parallel,
    scenario_fingerprint,
)
from repro.core.artifacts import ArtifactStore
from repro.core.campaign import (
    CACHE_FORMAT,
    BrakeJob,
    cached_body,
    execute_jobs,
    seeded_jobs,
)
from repro.core.fleet import FleetScenario, run_fleet_campaign
from repro.core.fleet.campaign import FleetJob
from repro.core.fleet.result import fleet_runs_digest
from repro.sim.randomness import RandomStreams

#: A short scenario so each test run stays fast.
FAST = EmergencyBrakeScenario(start_distance=4.0, timeout=15.0)

#: A tiny fleet scenario for the same reason.
FLEET_FAST = FleetScenario(n_obus=2, duration=3.0)

#: Every family's campaign entry point, on its short scenario.
FAMILIES = {
    "brake": lambda **kwargs: run_campaign_parallel(FAST, **kwargs),
    "fleet": lambda **kwargs: run_fleet_campaign(FLEET_FAST, **kwargs),
}


def as_dicts(result):
    """The canonical bit-exact form of a campaign's population."""
    return [measurement.to_dict() for measurement in result.runs]


class TestSerialParallelEquivalence:
    """workers=N must be indistinguishable from workers=1."""

    def test_six_runs_bit_identical(self):
        serial = run_campaign_parallel(FAST, runs=6, base_seed=11,
                                       workers=1)
        parallel = run_campaign_parallel(FAST, runs=6, base_seed=11,
                                         workers=4)
        # Every RunMeasurement field -- step timelines included --
        # compares equal bit for bit.
        assert as_dicts(serial) == as_dicts(parallel)
        # And so does everything aggregated from them.
        assert serial.table2() == parallel.table2()
        assert list(serial.braking_distances()) == \
            list(parallel.braking_distances())
        assert list(serial.total_delays_ms()) == \
            list(parallel.total_delays_ms())

    def test_population_ordered_by_run_id(self):
        result = run_campaign_parallel(FAST, runs=5, base_seed=2,
                                       workers=3)
        assert [run.run_id for run in result.runs] == [1, 2, 3, 4, 5]

    def test_serial_wrapper_matches_engine(self):
        wrapper = run_campaign(FAST, runs=3, base_seed=7)
        engine = run_campaign_parallel(FAST, runs=3, base_seed=7,
                                       workers=1)
        assert as_dicts(wrapper) == as_dicts(engine)

    def test_progress_streams_every_run(self):
        events = []

        def progress(outcome, done, total):
            events.append((outcome.run_id, outcome.cached, done, total))

        run_campaign_parallel(FAST, runs=3, base_seed=5, workers=1,
                              progress=progress)
        assert len(events) == 3
        assert [done for _, _, done, _ in events] == [1, 2, 3]
        assert all(total == 3 for _, _, _, total in events)
        assert not any(cached for _, cached, _, _ in events)
        assert sorted(run_id for run_id, _, _, _ in events) == [1, 2, 3]

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_invalid_arguments_rejected(self, family):
        run = FAMILIES[family]
        with pytest.raises(ValueError, match="workers"):
            run(runs=2, workers=-1)
        with pytest.raises(ValueError, match="runs"):
            run(runs=-1)

    def test_workers_zero_means_auto(self):
        # 0 = one worker per core; a one-run campaign exercises the
        # resolution without paying for a real pool fan-out.
        result = run_campaign_parallel(FAST, runs=1, workers=0)
        assert len(result.runs) == 1
        assert result.runs[0].completed

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_workers_zero_sizes_pool_to_cores(self, family,
                                              monkeypatch):
        import concurrent.futures

        sizes = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        def spy_pool(max_workers=None, **kwargs):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            spy_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        result = FAMILIES[family](runs=2, workers=0)
        assert sizes == [2]
        assert [run.run_id for run in result.runs] == [1, 2]

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_zero_runs_is_empty_campaign(self, family):
        result = FAMILIES[family](runs=0, workers=2)
        assert result.runs == []


class TestDeterminismProperty:
    """Same seed => same world; different seed => different draws."""

    SCENARIO = EmergencyBrakeScenario(start_distance=3.5, timeout=12.0)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_same_seed_identical_run(self, seed):
        scenario = self.SCENARIO.with_seed(seed)
        first = ScaleTestbed(scenario, run_id=1).run()
        second = ScaleTestbed(scenario, run_id=1).run()
        assert first.timeline.to_dict() == second.timeline.to_dict()
        assert first.to_dict() == second.to_dict()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    def test_different_seeds_distinct_propagation_draws(self, a, b):
        if a == b:
            return
        draws_a = RandomStreams(a).get("medium").uniform(size=8)
        draws_b = RandomStreams(b).get("medium").uniform(size=8)
        assert list(draws_a) != list(draws_b)

    def test_serialisation_round_trips_exactly(self):
        from repro.core.measurement import RunMeasurement

        measurement = ScaleTestbed(self.SCENARIO.with_seed(9),
                                   run_id=4).run()
        clone = RunMeasurement.from_dict(
            json.loads(json.dumps(measurement.to_dict())))
        assert clone.to_dict() == measurement.to_dict()
        assert clone.intervals_ms() == measurement.intervals_ms()


class TestScenarioFingerprint:
    def test_stable_across_constructions(self):
        assert scenario_fingerprint(EmergencyBrakeScenario(seed=4)) == \
            scenario_fingerprint(EmergencyBrakeScenario(seed=4))

    def test_seed_changes_key(self):
        scenario = EmergencyBrakeScenario()
        assert scenario_fingerprint(scenario.with_seed(1)) != \
            scenario_fingerprint(scenario.with_seed(2))

    def test_any_scenario_field_changes_key(self):
        import dataclasses

        base = EmergencyBrakeScenario()
        variants = [
            dataclasses.replace(base, action_distance=1.60),
            dataclasses.replace(base, start_distance=5.0),
            dataclasses.replace(base, obu_poll_interval=0.02),
            dataclasses.replace(base, secured=True),
            dataclasses.replace(base, radio="5g"),
        ]
        keys = {scenario_fingerprint(s) for s in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_nested_config_changes_key(self):
        import dataclasses

        from repro.roadside.yolo import YoloConfig

        base = EmergencyBrakeScenario()
        tweaked = dataclasses.replace(
            base, yolo=YoloConfig(inference_mean=0.1))
        assert scenario_fingerprint(base) != scenario_fingerprint(tweaked)


class TestRunCache:
    """The executor's run cache: an ArtifactStore read through
    :func:`cached_body`."""

    def test_round_trip_identical(self, tmp_path):
        cache = ArtifactStore(str(tmp_path))
        measurement = ScaleTestbed(FAST.with_seed(3), run_id=1).run()
        cache.put("k", {"kind": "brake",
                        "measurement": measurement.to_dict()})
        job = BrakeJob(FAST.with_seed(3), run_id=1, key="k")
        loaded = job.result(cached_body(cache, job))
        assert loaded is not None
        assert loaded.to_dict() == measurement.to_dict()

    def test_miss_returns_none(self, tmp_path):
        assert cached_body(ArtifactStore(str(tmp_path)),
                           BrakeJob(FAST, run_id=1, key="nope")) is None

    def test_body_of_another_kind_is_a_miss(self, tmp_path):
        cache = ArtifactStore(str(tmp_path))
        job = BrakeJob(FAST.with_seed(3), run_id=1)
        cache.put(job.key, {"kind": "fleet", "run": {}})
        assert cached_body(cache, job) is None

    def test_campaign_cache_hit_skips_simulation(self, tmp_path):
        cold = run_campaign_parallel(FAST, runs=3, base_seed=3,
                                     workers=1, cache_dir=str(tmp_path))
        events = []
        warm = run_campaign_parallel(
            FAST, runs=3, base_seed=3, workers=1,
            cache_dir=str(tmp_path),
            progress=lambda o, d, t: events.append(o.cached))
        assert events == [True, True, True]
        assert as_dicts(warm) == as_dicts(cold)

    def test_cache_shared_between_worker_counts(self, tmp_path):
        cold = run_campaign_parallel(FAST, runs=3, base_seed=3,
                                     workers=2, cache_dir=str(tmp_path))
        events = []
        warm = run_campaign_parallel(
            FAST, runs=3, base_seed=3, workers=1,
            cache_dir=str(tmp_path),
            progress=lambda o, d, t: events.append(o.cached))
        assert events == [True, True, True]
        assert as_dicts(warm) == as_dicts(cold)

    def test_scenario_change_misses(self, tmp_path):
        import dataclasses

        run_campaign_parallel(FAST, runs=2, base_seed=3, workers=1,
                              cache_dir=str(tmp_path))
        moved = dataclasses.replace(FAST, action_distance=1.60)
        events = []
        run_campaign_parallel(moved, runs=2, base_seed=3, workers=1,
                              cache_dir=str(tmp_path),
                              progress=lambda o, d, t:
                              events.append(o.cached))
        assert events == [False, False]

    def test_different_base_seed_misses(self, tmp_path):
        run_campaign_parallel(FAST, runs=2, base_seed=3, workers=1,
                              cache_dir=str(tmp_path))
        events = []
        run_campaign_parallel(FAST, runs=2, base_seed=100, workers=1,
                              cache_dir=str(tmp_path),
                              progress=lambda o, d, t:
                              events.append(o.cached))
        assert events == [False, False]

    def test_corrupt_entry_recomputes(self, tmp_path):
        cold = run_campaign_parallel(FAST, runs=2, base_seed=3,
                                     workers=1, cache_dir=str(tmp_path))
        key = scenario_fingerprint(FAST.with_seed(3))
        cache = ArtifactStore(str(tmp_path))
        with open(cache.path(key), "w", encoding="utf-8") as handle:
            handle.write("{ not json !!")
        events = []
        again = run_campaign_parallel(
            FAST, runs=2, base_seed=3, workers=1,
            cache_dir=str(tmp_path),
            progress=lambda o, d, t: events.append((o.run_id, o.cached)))
        # Run 1 (the corrupted entry) was recomputed, run 2 was a hit;
        # either way the population is unchanged.
        assert dict(events) == {1: False, 2: True}
        assert as_dicts(again) == as_dicts(cold)
        # The recompute healed the corrupt entry.
        assert cache.get(key) is not None

    def test_wrong_format_version_is_miss(self, tmp_path):
        cache = ArtifactStore(str(tmp_path))
        measurement = ScaleTestbed(FAST.with_seed(3), run_id=1).run()
        cache.put("k", {"kind": "brake",
                        "measurement": measurement.to_dict()})
        with open(cache.path("k"), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["format"] = CACHE_FORMAT + 1
        with open(cache.path("k"), "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert cache.get("k") is None

    def test_v4_flat_entry_is_ignored_and_left_untouched(
            self, tmp_path):
        # Pre-v5 caches stored one flat <key>.json per fingerprint in
        # the cache root; the sharded store never reads them, never
        # rewrites them, and recomputes into objects/ instead.
        key = scenario_fingerprint(FAST.with_seed(3))
        legacy = tmp_path / f"{key}.json"
        legacy.write_text(json.dumps(
            {"format": CACHE_FORMAT - 1, "version": "0.0",
             "payload": {"stale": True}}))
        before = legacy.read_bytes()
        events = []
        result = run_campaign_parallel(
            FAST, runs=1, base_seed=3, workers=1,
            cache_dir=str(tmp_path),
            progress=lambda o, d, t: events.append(o.cached))
        assert events == [False]  # the legacy entry is a miss
        assert legacy.read_bytes() == before  # ... and untouched
        cache = ArtifactStore(str(tmp_path))
        assert cache.get(key) is not None  # recompute landed in v5
        assert os.path.relpath(cache.path(key),
                               str(tmp_path)).startswith("objects")
        # A second campaign replays from the migrated entry.
        warm_events = []
        warm = run_campaign_parallel(
            FAST, runs=1, base_seed=3, workers=1,
            cache_dir=str(tmp_path),
            progress=lambda o, d, t: warm_events.append(o.cached))
        assert warm_events == [True]
        assert as_dicts(warm) == as_dicts(result)

    def test_creates_nested_cache_dir(self, tmp_path):
        nested = os.path.join(str(tmp_path), "a", "b")
        run_campaign_parallel(FAST, runs=1, base_seed=3, workers=1,
                              cache_dir=nested)
        assert os.path.isdir(nested)
        assert len(ArtifactStore(nested).keys()) == 1

    def test_no_stray_temp_files(self, tmp_path):
        run_campaign_parallel(FAST, runs=2, base_seed=3, workers=1,
                              cache_dir=str(tmp_path))
        # Every *file* anywhere under the store is a committed .json
        # entry -- atomic writes leave no temp files behind.
        for root, _dirs, files in os.walk(str(tmp_path)):
            assert all(name.endswith(".json") for name in files), \
                (root, files)


class TestFleetCache:
    """Fleet jobs cache under ``fleet_fingerprint`` like brake jobs."""

    def test_warm_rerun_is_all_cached(self, tmp_path):
        jobs = seeded_jobs(FleetJob, FLEET_FAST, 2, 1)
        cold = execute_jobs(jobs, cache_dir=str(tmp_path))
        events = []
        warm = execute_jobs(
            jobs, cache_dir=str(tmp_path),
            progress=lambda o, d, t: events.append(o.cached))
        assert events == [True, True]
        assert fleet_runs_digest(warm) == fleet_runs_digest(cold)

    def test_overlapping_seed_hit_rebinds_run_id(self, tmp_path):
        # Seed 2 is run 2 of the first campaign and run 1 of the
        # second: the hit must come back as the second's run 1.
        execute_jobs(seeded_jobs(FleetJob, FLEET_FAST, 2, 1),
                     cache_dir=str(tmp_path))
        events = []
        runs = execute_jobs(
            seeded_jobs(FleetJob, FLEET_FAST, 2, 2),
            cache_dir=str(tmp_path),
            progress=lambda o, d, t: events.append(
                (o.run_id, o.seed, o.cached)))
        assert sorted(events) == [(1, 2, True), (2, 3, False)]
        assert [run.run_id for run in runs] == [1, 2]
        cold = run_fleet_campaign(FLEET_FAST, runs=2, base_seed=2)
        assert fleet_runs_digest(runs) == cold.digest()
