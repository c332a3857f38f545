"""Tests for the CLI and the trace facility."""

import pytest

from repro.cli import build_parser, main
from repro.core import EmergencyBrakeScenario, ScaleTestbed
from repro.sim import Simulator
from repro.sim.trace import Tracer


class TestTracer:
    def test_records_in_time_order(self):
        sim = Simulator()
        tracer = Tracer(sim)
        sim.schedule(1.0, lambda: tracer.log("a", "first"))
        sim.schedule(2.0, lambda: tracer.log("a", "second", value=5))
        sim.run()
        records = tracer.records()
        assert [r.event for r in records] == ["first", "second"]
        assert records[1].fields == {"value": 5}
        assert records[1].time == 2.0

    def test_category_filter(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.log("mac", "tx")
        tracer.log("app", "stop")
        tracer.log("mac", "rx")
        assert [r.event for r in tracer.records("app")] == ["stop"]
        assert [r.event for r in tracer.records("mac")] == ["tx", "rx"]
        assert tracer.records("none") == []
        assert len(tracer.records()) == 3

    def test_len_counts_every_record(self):
        sim = Simulator()
        tracer = Tracer(sim)
        assert len(tracer) == 0
        for index in range(7):
            tracer.log(f"c{index % 3}", "e")
        assert len(tracer) == 7

    def test_unbounded_keeps_oldest_records(self):
        sim = Simulator()
        tracer = Tracer(sim)
        for index in range(5000):
            tracer.log("a", f"e{index}")
        assert len(tracer) == 5000
        assert tracer.records()[0].event == "e0"
        assert tracer.records()[-1].event == "e4999"

    def test_records_returns_a_copy(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.log("a", "e")
        tracer.records().clear()
        tracer.records("a").clear()
        assert len(tracer) == 1

    def test_flat_dict_puts_fields_beside_header(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.log("steps", "denm_sent", run_id=1, station=7)
        assert tracer.records()[0].as_flat_dict() == {
            "time": 0.0, "category": "steps", "event": "denm_sent",
            "run_id": 1, "station": 7}

    def test_canonical_jsonl_is_sorted_and_compact(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.log("b", "first", zeta=1, alpha="x")
        sim.schedule(0.1 + 0.2, lambda: tracer.log("a", "second"))
        sim.run()
        assert tracer.to_canonical_jsonl_text() == (
            '{"alpha":"x","category":"b","event":"first","time":0.0,'
            '"zeta":1}\n'
            '{"category":"a","event":"second",'
            '"time":0.30000000000000004}\n')

    def test_canonical_jsonl_of_empty_tracer_is_empty(self):
        tracer = Tracer(Simulator())
        assert tracer.to_canonical_jsonl_text() == ""

    def test_canonical_jsonl_stringifies_non_json_values(self):
        tracer = Tracer(Simulator())
        tracer.log("a", "e", where=(1, 2), what={3})
        assert tracer.to_canonical_jsonl_text() == (
            '{"category":"a","event":"e","time":0.0,'
            '"what":"{3}","where":[1,2]}\n')

    def test_canonical_jsonl_is_repeatable(self):
        def render():
            sim = Simulator()
            tracer = Tracer(sim)
            for index in range(4):
                sim.schedule(index * 0.1,
                             lambda i=index: tracer.log("a", "tick", i=i))
            sim.run()
            return tracer.to_canonical_jsonl_text()

        assert render() == render()

    def test_testbed_trace_integration(self):
        testbed = ScaleTestbed(EmergencyBrakeScenario(seed=2),
                               trace=True)
        testbed.run()
        events = [r.event for r in testbed.tracer.records("steps")]
        for expected in ("action_point_crossed", "hazard_detected",
                         "denm_sent", "denm_received",
                         "actuators_commanded", "vehicle_halted"):
            assert expected in events

    def test_testbed_trace_off_by_default(self):
        testbed = ScaleTestbed(EmergencyBrakeScenario(seed=2))
        assert testbed.tracer is None


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["bench", "bench-gate"])
    def test_wall_benchmark_commands_are_gone(self, command, capsys):
        # Host wall time is measured by bench/run.py, outside the
        # package; the CLI has no benchmark subcommand.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_run_command(self, capsys):
        code = main(["run", "--seed", "7", "--start-distance", "4.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Step timeline" in out
        assert "braking distance" in out

    def test_campaign_command(self, capsys):
        code = main(["campaign", "--runs", "2", "--seed", "3",
                     "--start-distance", "4.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table II analogue" in out
        assert "Table III analogue" in out
        assert "EDF" in out

    def test_blind_corner_command(self, capsys):
        code = main(["blind-corner", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "network-aided" in out
        assert "COLLISION" in out

    def test_platoon_command(self, capsys):
        code = main(["platoon", "--members", "3", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "whole platoon" in out

    def test_cdf_command(self, capsys):
        code = main(["cdf", "--runs", "6", "--seed", "5",
                     "--start-distance", "4.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "AIC" in out

    def test_run_with_options(self, capsys):
        code = main(["run", "--seed", "3", "--radio", "5g",
                     "--secured", "--hazard-mode", "predictive",
                     "--start-distance", "4.0"])
        assert code == 0


class TestReport:
    def test_quick_report_content(self, tmp_path):
        from repro.core.report import ReportConfig, write_report

        path = tmp_path / "report.md"
        config = ReportConfig(table2_runs=2, table3_runs=2,
                              include_blind_corner=False,
                              include_platoon=False)
        markdown = write_report(str(path), config)
        assert path.exists()
        assert "# Reproduction report" in markdown
        assert "Table II" in markdown
        assert "Table III" in markdown
        assert "Figure 11" in markdown
        assert "Figure 10" in markdown
        assert "paper avg" in markdown
        assert "PASS" in markdown

    def test_report_cli(self, tmp_path, capsys):
        out_path = tmp_path / "r.md"
        code = main(["report", "--quick", "--output", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out_path.exists()
        assert "Reproduction report" in out

    def test_observability_section_reports_run_wall_times(self):
        from repro.core.report import _observability_section
        from repro.obs import ObsAggregate, ObsContext

        obs = ObsAggregate()
        for wall in (0.5, 1.5):
            ctx = ObsContext()
            ctx.count("kernel.events", 3)
            ctx.record_span("e2e.total", 0.0, 0.25)
            obs.add_run(ctx, wall)
        obs.add_cached()
        text = "\n".join(_observability_section(obs))
        assert ("2 instrumented runs (1 cache hits), 2.00 s wall, "
                "1.00 runs/s.") in text
        assert "| e2e.total | 2 | 250.00 | 250.00 | 250.00 |" in text

    def test_report_deterministic(self, tmp_path):
        from repro.core.report import ReportConfig, generate_report

        config = ReportConfig(table2_runs=2, table3_runs=2,
                              include_blind_corner=False,
                              include_platoon=False)
        assert generate_report(config) == generate_report(config)


class TestScenarioFromJson:
    def test_round_trip_scalars(self, tmp_path):
        import json

        from repro.core.scenario import scenario_from_json

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "start_distance": 4.5,
            "radio": "5g",
            "secured": True,
            "obu_poll_interval": 0.03,
        }))
        scenario = scenario_from_json(str(path))
        assert scenario.start_distance == 4.5
        assert scenario.radio == "5g"
        assert scenario.secured
        assert scenario.obu_poll_interval == 0.03

    def test_nested_configs(self, tmp_path):
        import json

        from repro.core.scenario import scenario_from_json

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "yolo": {"inference_mean": 0.1},
            "rsu_http": {"service_mean": 0.002},
        }))
        scenario = scenario_from_json(str(path))
        assert scenario.yolo.inference_mean == 0.1
        assert scenario.rsu_http.service_mean == 0.002
        # Unspecified nested fields keep their defaults.
        assert scenario.yolo.default_distance == 1.73

    def test_unknown_field_rejected(self):
        from repro.core.scenario import scenario_from_dict

        with pytest.raises(ValueError, match="unknown scenario field"):
            scenario_from_dict({"warp_speed": 9})

    def test_cli_with_scenario_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"start_distance": 3.5,
                                    "timeout": 15.0}))
        code = main(["run", "--seed", "4", "--scenario", str(path)])
        assert code == 0

    def test_scenario_file_runs_e2e(self, tmp_path):
        import json

        from repro.core import ScaleTestbed
        from repro.core.scenario import scenario_from_json

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "start_distance": 3.5,
            "timeout": 15.0,
            "yolo": {"inference_mean": 0.1, "inference_std": 0.01},
        }))
        scenario = scenario_from_json(str(path)).with_seed(5)
        measurement = ScaleTestbed(scenario).run()
        assert measurement.completed
