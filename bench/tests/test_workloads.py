"""The workloads on small inputs, untraced and through the traced pass."""

import dataclasses
import json
import time

import pytest

import run
import worker
import workloads
from repro.core.fleet.campaign import run_fleet_campaign
from repro.core.fleet.scenario import FleetScenario
from repro.core.testbed import run_campaign
from repro.obs import ObsAggregate

ROOT = worker.ROOT
SMALL_CORNER = FleetScenario(workload="blind_corner", n_obus=4, n_rsus=1,
                             duration=3.0)
SMALL_CONVOY = FleetScenario(workload="convoy", n_obus=4, n_rsus=1,
                             duration=3.0)


def test_brake_units_reproduce_the_campaign_digest():
    workload = workloads.brake_grid(ROOT)
    outcomes = [workload.run(workload.seed(1, index), index + 1)
                for index in range(2)]
    assert all(outcome.ok for outcome in outcomes)
    assert all(outcome.sim_s > 0 for outcome in outcomes)
    assert workload.digest([o.output for o in outcomes]) \
        == run_campaign(runs=2, base_seed=1).digest()


def test_fleet_unit_reproduces_the_campaign_digest():
    workload = workloads.fleet_corner64(ROOT, scenario=SMALL_CORNER)
    outcome = workload.run(workload.seed(5, 0), 1)
    assert outcome.sim_s == SMALL_CORNER.duration
    assert outcome.counters["net.rx_attempts"] \
        >= outcome.counters["net.delivered"] > 0
    assert workload.digest([outcome.output]) \
        == run_fleet_campaign(SMALL_CORNER, runs=1, base_seed=5).digest()


def test_every_timed_unit_reports_reference_seconds_and_peak_rss(capsys):
    workload = dataclasses.replace(workloads.brake_grid(ROOT), min_units=2)
    worker.timed_pass(workload, 1, 0.0)
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines()]
    units = [line for line in lines if "unit" in line]
    assert len(units) == 2 and all(unit["ok"] for unit in units)
    assert 0 < units[0]["peak_rss_mb"] <= units[1]["peak_rss_mb"]
    # Reference seconds leave out the probe's own samples.
    assert all(0 < unit["ref_s"] and unit["speed"] > 0 for unit in units)
    assert lines[-1]["done"] and lines[-1]["digest"] \
        == run_campaign(runs=2, base_seed=1).digest()


def test_the_observed_campaign_folds_two_runs_in_this_process():
    workload = workloads.fleet_observed(ROOT, scenario=SMALL_CONVOY)
    outcome = workload.run(1, 1)
    assert outcome.ok and outcome.probe is None
    assert outcome.sim_s == 2 * SMALL_CONVOY.duration
    aggregate = ObsAggregate()
    campaign = run_fleet_campaign(SMALL_CONVOY, runs=2, base_seed=1,
                                  workers=1, obs=aggregate)
    assert outcome.output == f"{campaign.digest()}:{aggregate.sim_digest()}"


def test_a_spent_budget_stops_both_passes_early(capsys):
    workload = dataclasses.replace(workloads.brake_grid(ROOT), min_units=5)
    worker.timed_pass(workload, 1, 60.0, stop_by=time.perf_counter())
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines()]
    assert not [line for line in lines if "unit" in line]
    assert lines[-1] == {"done": True, "digest": None}

    traced = dataclasses.replace(workloads.brake_grid(ROOT, traced=True),
                                 trace_seeds=3, trace_pairs=1)
    worker.traced_pass(traced, 1, stop_by=time.perf_counter())
    done = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert done["attempted"] == 2 and done["failed"] == 0
    assert all(done["checks"][check] for check in run.TRACE_CHECKS)


def test_a_run_length_other_than_the_benchmarks_is_refused():
    spec = run.load_json(f"{ROOT}/BENCHMARK.json")
    with pytest.raises(SystemExit) as refused:
        run.main(["--workload", "brake_grid",
                  "--seconds", str(spec["run_seconds"] + 1)])
    assert refused.value.code == 2


def traced_metrics(workload, capsys):
    """Run the worker's traced pass on *workload*; its ``done`` record."""
    worker.traced_pass(
        dataclasses.replace(workload, trace_seeds=1, trace_pairs=1), 1)
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines()]
    done = lines[-1]
    assert done["done"] and done["failed"] == 0
    assert all(done["checks"][check] for check in run.TRACE_CHECKS)
    return done["metrics"]


def test_traced_brake_unit_charges_vision_and_no_observer(capsys):
    metrics = traced_metrics(workloads.brake_grid(ROOT, traced=True),
                             capsys)
    assert metrics["vision.frames"] > 0
    assert metrics["vision.calls"] == 2 * metrics["vision.frames"]
    assert metrics["vision.self_s"] == pytest.approx(
        metrics["vision.canny_s"] + metrics["vision.hough_s"])
    assert metrics["roadside.frames_processed"] > 0
    assert metrics["openc2x.http_requests"] > 0
    for name in ("obs.self_s", "obs.calls", "obs.span_events",
                 "obs.payload_bytes", "analysis.calls"):
        assert metrics[name] == 0, name


def test_traced_fleet_unit_has_no_vision_and_no_observer(capsys):
    metrics = traced_metrics(
        workloads.fleet_corner64(ROOT, traced=True, scenario=SMALL_CORNER),
        capsys)
    assert metrics["net.frames_sent"] > 0
    assert metrics["asn1.encodes"] > 0 and metrics["geonet.calls"] > 0
    # The untraced run of the same seed must not leave decoded CAMs
    # cached for the traced one.
    assert metrics["asn1.decodes"] > 0
    assert 0 < metrics["net.delivery_ratio"] <= 1
    for name in ("vision.calls", "vision.self_s", "vision.frames",
                 "obs.calls", "obs.self_s", "obs.payload_bytes"):
        assert metrics[name] == 0, name


def test_traced_observed_campaign_charges_the_observer(capsys):
    metrics = traced_metrics(
        workloads.fleet_observed(ROOT, traced=True, scenario=SMALL_CONVOY),
        capsys)
    assert metrics["obs.calls"] > 0 and metrics["obs.self_s"] > 0
    assert metrics["obs.span_events"] > 0
    assert metrics["obs.payload_bytes"] > 0
    assert metrics["facilities.cams_received"] > 0
    assert metrics["vision.calls"] == 0


def test_a_worker_past_its_timeout_is_killed_with_its_children():
    start = time.perf_counter()
    lines, _code, timed_out, _err = run.launch(
        ["timed", "--workload", "detlint_src", "--seed", "1",
         "--seconds", "600"], timeout=2.0)
    assert timed_out
    assert time.perf_counter() - start < 15
    assert not any(line.get("done") for line in lines)
