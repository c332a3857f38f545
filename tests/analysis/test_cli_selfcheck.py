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
        bad = os.path.join(FIXTURES, "det004_bad.py")
        assert detlint_main([bad]) == 1
        out = capsys.readouterr().out
        assert "DET004" in out
        assert "1 finding(s)" in out

    def test_json_format(self, capsys):
        bad = os.path.join(FIXTURES, "fpr002_bad.py")
        assert detlint_main([bad, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["by_rule"] == {"FPR002": 3}

    def test_output_artifact_is_always_json(self, tmp_path, capsys):
        bad = os.path.join(FIXTURES, "det004_bad.py")
        artifact = tmp_path / "detlint.json"
        assert detlint_main([bad, "--output", str(artifact)]) == 1
        capsys.readouterr()
        payload = json.loads(artifact.read_text())
        assert payload["format"] == 3
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
        for index in (1, 2, 3, 4, 5, 7, 8):
            assert f"DET00{index}" in out
        # DET006 is retired (folded into FPR002).
        assert "DET006" not in out


class TestExitCodeMatrix:
    """0 clean / 1 findings / 2 usage errors, across all families."""

    CLEAN = ("det001_good.py", "sch001_good.py", "eff003_good.py")
    DIRTY = {"det004_bad.py": "DET004",
             "sch001_bad.py": "SCH001",
             "eff004_bad.py": "EFF004",
             "fpr002_bad.py": "FPR002"}

    def test_clean_fixture_from_each_family_exits_zero(self, capsys):
        for name in self.CLEAN:
            assert detlint_main([os.path.join(FIXTURES, name)]) == 0
            capsys.readouterr()

    def test_findings_from_each_family_exit_one(self, capsys):
        for name, rule in self.DIRTY.items():
            assert detlint_main([os.path.join(FIXTURES, name)]) == 1
            assert rule in capsys.readouterr().out

    def test_usage_errors_exit_two_for_each_family_typo(self, capsys):
        # DET006 is retired (folded into FPR002).
        for bogus in ("DET042", "SCH999", "EFF000x", "DET006"):
            assert detlint_main(
                [FIXTURES, "--select", bogus]) == 2
            assert "DET001..DET008" in capsys.readouterr().err

    @pytest.mark.parametrize("empty", ["", ",", " , "])
    def test_empty_select_is_usage_error(self, empty, capsys):
        # These parse to no ids; running every rule instead would
        # pass a broken invocation off as a full lint.
        assert detlint_main([FIXTURES, "--select", empty]) == 2
        captured = capsys.readouterr()
        assert "--select names no rule id" in captured.err
        assert "DET001..DET008" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", [
        ["--baseline", "baseline.json"],
        ["--write-baseline", "baseline.json"],
        ["--no-unused-suppressions"],
    ])
    def test_removed_flag_is_usage_error(self, flag, capsys):
        # A script still passing a grandfathering or opt-out flag must
        # fail loudly, not lint with the flag silently dropped.
        with pytest.raises(SystemExit) as excinfo:
            detlint_main([FIXTURES] + flag)
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_unregistered_suppression_id_gates_under_select(
            self, tmp_path, capsys):
        target = tmp_path / "retired.py"
        target.write_text(
            "def f():\n"
            "    return 1  # detlint: ignore[DET006] -- retired id\n")
        assert detlint_main(
            [str(target), "--select", "DET001", "--format",
             "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (finding,) = payload["findings"]
        assert finding["rule"] == "DET000"
        assert finding["line"] == 2
        assert "unknown rule id" in finding["message"]


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
    def test_src_tree_is_clean(self, src_selfcheck):
        proc, report = src_selfcheck
        assert report["findings"] == []
        assert proc.returncode == 0
        assert report["files_checked"] > 90

    def test_tools_detlint_script(self, src_selfcheck):
        proc, _report = src_selfcheck
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "detlint: clean" in proc.stdout
