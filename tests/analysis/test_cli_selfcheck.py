"""CLI surfaces and the self-check: ``detlint src/`` gates clean."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.cli import main as detlint_main
from repro.cli import main as repro_main

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
FIXTURES = os.path.join(REPO, "tests", "analysis", "fixtures")


class TestDetlintCli:
    def test_clean_fixture_exits_zero(self, capsys):
        good = os.path.join(FIXTURES, "det001_good.py")
        assert detlint_main([good]) == 0
        assert "detlint: clean" in capsys.readouterr().out

    def test_bad_fixture_exits_one(self, capsys):
        bad = os.path.join(FIXTURES, "det006_bad.py")
        assert detlint_main([bad]) == 1
        out = capsys.readouterr().out
        assert "DET006" in out
        assert "1 finding(s)" in out

    def test_json_format(self, capsys):
        bad = os.path.join(FIXTURES, "det006_bad.py")
        assert detlint_main([bad, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["by_rule"] == {"DET006": 1}

    def test_output_artifact_is_always_json(self, tmp_path, capsys):
        bad = os.path.join(FIXTURES, "det006_bad.py")
        artifact = tmp_path / "detlint.json"
        assert detlint_main([bad, "--output", str(artifact)]) == 1
        capsys.readouterr()
        payload = json.loads(artifact.read_text())
        assert payload["format"] == 2
        assert payload["summary"]["total"] == 1
        assert payload["unused_suppressions"] == []

    def test_select_flag(self, capsys):
        assert detlint_main([FIXTURES, "--select", "DET004"]) == 1
        out = capsys.readouterr().out
        assert "DET004" in out
        assert "DET001" not in out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert detlint_main([FIXTURES, "--select", "DET42"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule id(s): DET42" in err
        # The error must teach the valid families, not just reject.
        assert "DET001..DET008" in err
        assert "SCH001..SCH003" in err
        assert "EFF001..EFF008" in err

    def test_unknown_ignore_rule_is_usage_error(self, capsys):
        assert detlint_main([FIXTURES, "--ignore", "EFF999"]) == 2
        assert "EFF999" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert detlint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for index in range(1, 9):
            assert f"DET00{index}" in out


class TestExitCodeMatrix:
    """0 clean / 1 findings / 2 usage errors, across all families."""

    CLEAN = ("det001_good.py", "sch001_good.py", "eff003_good.py")
    DIRTY = {"det006_bad.py": "DET006",
             "sch001_bad.py": "SCH001",
             "eff004_bad.py": "EFF004"}

    def test_clean_fixture_from_each_family_exits_zero(self, capsys):
        for name in self.CLEAN:
            assert detlint_main([os.path.join(FIXTURES, name)]) == 0
            capsys.readouterr()

    def test_findings_from_each_family_exit_one(self, capsys):
        for name, rule in self.DIRTY.items():
            assert detlint_main([os.path.join(FIXTURES, name)]) == 1
            assert rule in capsys.readouterr().out

    def test_usage_errors_exit_two_for_each_family_typo(self, capsys):
        for bogus in ("DET042", "SCH999", "EFF000x"):
            assert detlint_main(
                [FIXTURES, "--select", bogus]) == 2
            capsys.readouterr()


class TestMultiFamilyBaseline:
    def test_baseline_round_trip_grandfathers_all_families(
            self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert detlint_main(
            [FIXTURES, "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert detlint_main(
            [FIXTURES, "--baseline", str(baseline),
             "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        grandfathered = {f["rule"][:3]
                         for f in payload["grandfathered"]}
        assert {"DET", "SCH", "EFF"} <= grandfathered


class TestUnusedSuppressionArtifact:
    def test_json_reports_unused_suppressions_with_file_and_line(
            self, tmp_path, capsys):
        target = tmp_path / "stale.py"
        target.write_text(
            "import numpy\n"
            "\n"
            "\n"
            "def noise(rng):\n"
            "    # detlint: ignore[EFF006] -- stale escape\n"
            "    return rng.normal()\n")
        assert detlint_main([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["unused_suppressions"]
        assert entry["path"].endswith("stale.py")
        assert entry["line"] == 5
        assert "unused suppression for EFF006" in entry["message"]
        # The stale escape also gates as a DET000 finding.
        assert payload["summary"]["by_rule"] == {"DET000": 1}


class TestReproTestbedLint:
    def test_lint_subcommand_clean_fixture(self, capsys):
        good = os.path.join(FIXTURES, "det002_good.py")
        assert repro_main(["lint", good]) == 0
        assert "detlint: clean" in capsys.readouterr().out

    def test_lint_subcommand_bad_fixture(self, capsys):
        bad = os.path.join(FIXTURES, "det002_bad.py")
        assert repro_main(["lint", bad]) == 1
        assert "DET002" in capsys.readouterr().out


@pytest.fixture(scope="session")
def src_selfcheck(tmp_path_factory):
    """One ``tools/detlint src/`` run, shared by the self-checks.

    Returns the finished process (text report on stdout) and the
    parsed ``--output`` artifact (always JSON).
    """
    artifact = tmp_path_factory.mktemp("selfcheck") / "detlint.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "detlint"), "src/",
         "--output", str(artifact)],
        cwd=REPO, env=env, capture_output=True, text=True)
    assert artifact.exists(), proc.stdout + proc.stderr
    return proc, json.loads(artifact.read_text())


class TestSelfCheck:
    def test_src_tree_is_clean_with_no_baseline(self, src_selfcheck):
        proc, report = src_selfcheck
        assert report["findings"] == []
        assert report["grandfathered"] == []
        assert proc.returncode == 0
        assert report["files_checked"] > 90

    def test_tools_detlint_script(self, src_selfcheck):
        proc, _report = src_selfcheck
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "detlint: clean" in proc.stdout
