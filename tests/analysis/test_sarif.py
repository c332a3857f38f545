"""The SARIF reporter: structure, determinism, CLI integration."""

from __future__ import annotations

import json
import os

from repro.analysis.cli import main as detlint_main
from repro.analysis.engine import LintResult, lint_paths
from repro.analysis.findings import Finding
from repro.analysis.reporters import (
    SARIF_VERSION,
    render_sarif,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _result() -> LintResult:
    findings = [
        Finding(rule="DET002", path="src/pkg/a.py", line=3,
                column=12, message="wall-clock call time.time()",
                snippet="return time.time()"),
        Finding(rule="EFF002", path="src/pkg/b.py", line=9,
                column=5, message="rename without fsync",
                snippet="os.replace(tmp, target)"),
    ]
    return LintResult(findings=findings, files_checked=2)


class TestSarifReporter:
    def test_envelope(self):
        payload = json.loads(render_sarif(_result()))
        assert payload["version"] == SARIF_VERSION
        assert "sarif-schema-2.1.0" in payload["$schema"]
        (run,) = payload["runs"]
        assert run["tool"]["driver"]["name"] == "detlint"

    def test_rule_catalogue_spans_all_three_families(self):
        payload = json.loads(render_sarif(_result()))
        rules = payload["runs"][0]["tool"]["driver"]["rules"]
        ids = [rule["id"] for rule in rules]
        assert ids == sorted(ids)
        for rule_id in ("DET001", "DET008", "SCH001", "SCH003",
                        "EFF001", "EFF008"):
            assert rule_id in ids
        for rule in rules:
            assert rule["shortDescription"]["text"]
            assert rule["fullDescription"]["text"]

    def test_rule_catalogue_omits_the_retired_det006(self):
        payload = json.loads(render_sarif(_result()))
        rules = {rule["id"]: rule for rule in
                 payload["runs"][0]["tool"]["driver"]["rules"]}
        assert "DET006" not in rules
        # Its case lives on in FPR002's one-way round-trip check.
        assert "from_dict" in rules["FPR002"]["shortDescription"]["text"]

    def test_results_carry_location_and_fingerprint(self):
        payload = json.loads(render_sarif(_result()))
        results = payload["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == \
            ["DET002", "EFF002"]
        first = results[0]
        location = first["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/pkg/a.py"
        assert location["artifactLocation"]["uriBaseId"] == \
            "%SRCROOT%"
        assert location["region"]["startLine"] == 3
        assert location["region"]["startColumn"] == 12
        # The fingerprint is line-move tolerant, so code scanning
        # tracks findings across rebases.
        assert first["partialFingerprints"]["detlint/v1"] == \
            _result().findings[0].fingerprint()

    def test_rendering_is_deterministic(self):
        assert render_sarif(_result()) == render_sarif(_result())


class TestSarifCli:
    def test_format_sarif_prints_sarif(self, capsys):
        bad = os.path.join(FIXTURES, "eff001_bad.py")
        assert detlint_main([bad, "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == SARIF_VERSION
        (result,) = payload["runs"][0]["results"]
        assert result["ruleId"] == "EFF001"

    def test_sarif_output_file_alongside_json(self, tmp_path,
                                              capsys):
        bad = os.path.join(FIXTURES, "eff002_bad.py")
        sarif = tmp_path / "detlint.sarif"
        artifact = tmp_path / "detlint.json"
        assert detlint_main([bad, "--output", str(artifact),
                             "--sarif-output", str(sarif)]) == 1
        capsys.readouterr()
        sarif_payload = json.loads(sarif.read_text())
        json_payload = json.loads(artifact.read_text())
        assert sarif_payload["runs"][0]["results"][0]["ruleId"] == \
            "EFF002"
        assert json_payload["summary"]["by_rule"] == {"EFF002": 1}

    def test_sarif_matches_library_rendering(self, capsys):
        bad = os.path.join(FIXTURES, "eff001_bad.py")
        assert detlint_main([bad, "--format", "sarif"]) == 1
        printed = capsys.readouterr().out
        assert printed == render_sarif(lint_paths([bad]))
