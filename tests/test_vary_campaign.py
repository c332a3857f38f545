"""Variation campaigns end to end: determinism, refinement, CLI.

The acceptance invariants of the variation engine live here:

* a fixed ``(spec, sampler, seed)`` produces a byte-identical
  coverage report (SHA-256 of canonical JSON) for ``workers=1`` vs
  ``workers=4`` and under all three kernel tie-break policies;
* the adaptive strategy provably re-samples at least one SAFE <->
  LATE/NO boundary region of the blind-corner demo spec;
* varied runs cache under (spec hash, point hash, seed) without
  colliding with plain campaign entries.
"""

import json

import pytest

from repro.cli import main
from repro.core.artifacts import ArtifactStore
from repro.core.campaign import scenario_fingerprint
from repro.core.fleet.campaign import FleetJob
from repro.core.scenario import EmergencyBrakeScenario
from repro.vary import (
    Constraint,
    ContinuousAxis,
    PointResult,
    VariationSpec,
    VariationResult,
    blind_corner_demo,
    brake_demo,
    demo_specs,
    is_safe_verdict,
    materialize,
    run_variation_campaign,
    sample_only,
    worst_verdict,
)

#: One blind-corner fleet run is ~50 ms; campaigns here stay tiny.
FAST = dict(sampler="lhs", points=4, base_seed=1)


def test_worst_verdict_ordering():
    assert worst_verdict(["SAFE", "LATE"]) == "LATE"
    assert worst_verdict(["SAFE_STOP", "NO_STOP", "LATE_STOP"]) == \
        "NO_STOP"
    assert worst_verdict(["N_A", "SAFE"]) == "SAFE"
    assert worst_verdict([]) == "N_A"
    # Unknown verdicts rank worst: fail loud, never silently safe.
    assert worst_verdict(["SAFE", "EXPLODED"]) == "EXPLODED"


def test_demo_specs_registry():
    specs = demo_specs()
    assert set(specs) == {"blind-corner-demo", "brake-demo"}
    for spec in specs.values():
        assert spec.fingerprint()


def test_sample_only_matches_campaign_points():
    spec = blind_corner_demo()
    planned = sample_only(spec, sampler="lhs", points=4,
                          sample_seed=1)
    result = run_variation_campaign(spec, **FAST)
    assert [p.values for p in result.points
            if p.origin == "lhs"] == planned


class TestFleetCampaign:
    def test_workers_do_not_change_report_bytes(self):
        spec = blind_corner_demo()
        serial = run_variation_campaign(
            spec, runs_per_point=2, workers=1, **FAST)
        pooled = run_variation_campaign(
            spec, runs_per_point=2, workers=4, **FAST)
        assert serial.digest() == pooled.digest()

    @pytest.mark.parametrize("tie_break", ["fifo", "lifo", "seeded"])
    def test_tie_break_does_not_change_report_bytes(self, tie_break):
        spec = blind_corner_demo()
        reference = run_variation_campaign(spec, **FAST)
        overridden = run_variation_campaign(spec,
                                            tie_break=tie_break,
                                            **FAST)
        assert overridden.digest() == reference.digest()

    def test_adaptive_resamples_a_safe_late_boundary(self):
        """The acceptance demo: adaptive sampling on the blind-corner
        spec must bisect at least one SAFE <-> LATE/NO pair."""
        spec = blind_corner_demo()
        result = run_variation_campaign(
            spec, sampler="adaptive", points=8, base_seed=1,
            refine_budget=3)
        assert result.refinements, "no boundary was refined"
        for refinement in result.refinements:
            assert is_safe_verdict(refinement.verdict_safe)
            assert not is_safe_verdict(refinement.verdict_unsafe)
        refined = [p for p in result.points if p.origin == "refine"]
        assert refined
        parent_keys = {p.key for p in result.points
                       if p.origin != "refine"}
        for point in refined:
            assert set(point.parents) <= parent_keys

    def test_report_round_trip_preserves_digest(self):
        spec = blind_corner_demo()
        result = run_variation_campaign(spec, **FAST)
        rebuilt = VariationResult.from_dict(result.to_dict())
        assert rebuilt.digest() == result.digest()

    def test_point_result_round_trip(self):
        spec = blind_corner_demo()
        result = run_variation_campaign(spec, **FAST)
        for point in result.points:
            assert PointResult.from_dict(point.to_dict()) == point

    def test_warm_rerun_serves_every_run_from_cache(self, tmp_path,
                                                     monkeypatch):
        spec = blind_corner_demo()
        cache = str(tmp_path / "cache")
        cold = run_variation_campaign(spec, runs_per_point=2,
                                      cache_dir=cache, **FAST)
        runs = sum(len(point.verdicts) for point in cold.points)
        assert len(ArtifactStore(cache).keys()) == runs

        def no_simulation(job, obs_ctx=None):
            raise AssertionError(f"run {job.run_id} re-simulated")

        monkeypatch.setattr(FleetJob, "execute", no_simulation)
        warm = run_variation_campaign(spec, runs_per_point=2,
                                      cache_dir=cache, **FAST)
        assert warm.digest() == cold.digest()

    def test_coverage_counts_runs(self):
        spec = blind_corner_demo()
        result = run_variation_campaign(spec, runs_per_point=2,
                                        **FAST)
        totals = result.coverage.verdict_totals()
        assert sum(totals.values()) == 2 * len(result.points)


class TestBrakeFamily:
    def test_grid_campaign_with_cache(self, tmp_path):
        spec = brake_demo()
        cache = str(tmp_path / "cache")
        cold = run_variation_campaign(spec, sampler="grid", levels=2,
                                      base_seed=1, cache_dir=cache)
        warm = run_variation_campaign(spec, sampler="grid", levels=2,
                                      base_seed=1, cache_dir=cache)
        assert cold.digest() == warm.digest()
        worsts = {point.worst for point in cold.points}
        # The demo geometry straddles the braking boundary.
        assert "SAFE_STOP" in worsts
        assert worsts - {"SAFE_STOP"}

    def test_cache_salt_prevents_collisions(self):
        """A varied run and a plain campaign run of the *same*
        scenario+seed must key differently in the run cache."""
        scenario = EmergencyBrakeScenario()
        plain = scenario_fingerprint(scenario)
        salted = scenario_fingerprint(
            scenario, salt="specfp:pointkey")
        assert plain != salted
        # But the salt is stable, so the varied entry still replays.
        assert salted == scenario_fingerprint(
            scenario, salt="specfp:pointkey")

    def test_materialize_rejects_infeasible_point(self):
        spec = brake_demo()
        with pytest.raises(ValueError):
            materialize(spec, {"action_distance": 5.0,
                               "start_distance": 4.0})


def _infeasible_spec():
    """A spec whose constraint rejects every candidate point."""
    return VariationSpec(
        name="impossible",
        family="emergency_brake",
        axes=(
            ContinuousAxis("action_distance", 10.0, 12.0),
            ContinuousAxis("start_distance", 1.0, 2.0),
        ),
        constraints=(
            Constraint(lhs="action_distance", op="<",
                       rhs_axis="start_distance"),
        ),
    )


class TestSamplerEdgeCases:
    """Degenerate inputs the adaptive sampler must survive cleanly."""

    def test_zero_refine_budget_completes_without_refinements(self):
        spec = blind_corner_demo()
        result = run_variation_campaign(
            spec, sampler="adaptive", points=3, base_seed=1,
            refine_budget=0)
        assert result.refinements == []
        assert [p.origin for p in result.points] == ["lhs"] * 3
        assert result.sampler["refine_budget"] == 0
        # The report still folds and round-trips.
        assert VariationResult.from_dict(
            result.to_dict()).digest() == result.digest()

    def test_all_safe_campaign_refines_nothing(self):
        # A narrow box entirely inside the SAFE region: plenty of
        # warning time, short approach -- no boundary to bisect.
        spec = VariationSpec(
            name="all-safe",
            family="fleet",
            axes=(
                ContinuousAxis("protagonist_start", 9.0, 11.0),
                ContinuousAxis("warning_after", 1.0, 1.2),
            ),
            base={"workload": "blind_corner", "n_obus": 2,
                  "duration": 6.0},
        )
        result = run_variation_campaign(
            spec, sampler="adaptive", points=3, base_seed=1,
            refine_budget=3)
        assert all(is_safe_verdict(p.worst) for p in result.points)
        assert result.refinements == []
        assert len(result.points) == 3

    def test_infeasible_spec_raises_typed_error(self):
        from repro.vary import InfeasibleSpecError

        with pytest.raises(InfeasibleSpecError) as excinfo:
            run_variation_campaign(_infeasible_spec(),
                                   sampler="grid", levels=2)
        error = excinfo.value
        assert isinstance(error, ValueError)
        assert error.spec_name == "impossible"
        assert error.sampler == "grid"
        assert error.tried == 4  # 2 levels x 2 axes, all rejected

    def test_infeasible_spec_raises_for_lhs_too(self):
        from repro.vary import InfeasibleSpecError

        with pytest.raises(InfeasibleSpecError) as excinfo:
            run_variation_campaign(_infeasible_spec(),
                                   sampler="lhs", points=5)
        assert excinfo.value.sampler == "lhs"
        assert excinfo.value.tried == 5

    def test_sample_only_infeasible_raises_typed_error(self):
        from repro.vary import InfeasibleSpecError

        with pytest.raises(InfeasibleSpecError, match="infeasible"):
            sample_only(_infeasible_spec(), sampler="grid", levels=3)


class TestCli:
    def test_list_specs(self, capsys):
        assert main(["vary", "list-specs"]) == 0
        out = capsys.readouterr().out
        assert "blind-corner-demo" in out
        assert "brake-demo" in out

    def test_sample_prints_points(self, capsys):
        assert main(["vary", "sample", "--spec", "blind-corner-demo",
                     "--sampler", "lhs", "--points", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 points (lhs)" in out

    def test_dry_run_runs_nothing(self, capsys):
        assert main(["vary", "run", "--spec", "brake-demo",
                     "--sampler", "grid", "--levels", "3",
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "dry run: would evaluate" in out
        assert "report digest" not in out

    def test_run_writes_valid_report(self, tmp_path, capsys):
        from repro.vary.coverage import validate_report

        report_path = str(tmp_path / "coverage.json")
        assert main(["vary", "run", "--spec", "blind-corner-demo",
                     "--sampler", "lhs", "--points", "3",
                     "--report", report_path]) == 0
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        validate_report(report)
        out = capsys.readouterr().out
        assert "report digest:" in out

    def test_coverage_report_validates_file(self, tmp_path, capsys):
        report_path = str(tmp_path / "coverage.json")
        main(["vary", "run", "--spec", "blind-corner-demo",
              "--sampler", "lhs", "--points", "2",
              "--report", report_path])
        capsys.readouterr()
        assert main(["vary", "coverage-report",
                     "--input", report_path]) == 0
        assert "report digest:" in capsys.readouterr().out

    def test_coverage_report_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1}')
        assert main(["vary", "coverage-report",
                     "--input", str(bad)]) == 1

    def test_spec_from_json_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(blind_corner_demo().to_dict()))
        assert main(["vary", "sample", "--spec", str(spec_path),
                     "--sampler", "grid", "--levels", "2"]) == 0
        assert "grid" in capsys.readouterr().out

    def test_unknown_spec_is_clean_error(self):
        with pytest.raises(SystemExit):
            main(["vary", "sample", "--spec", "no-such-spec"])
