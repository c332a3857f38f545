"""Golden reporter output: the report bytes are part of the API."""

from __future__ import annotations

import json
import os

from repro.analysis.engine import LintResult, lint_paths
from repro.analysis.findings import Finding
from repro.analysis.reporters import (
    render_json,
    render_rules_text,
    render_text,
)
from repro.analysis.rules import all_rules

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: The JSON report over every shipped fixture, pinned byte for byte.
#: Regenerate from the repo root, only when a rule's output changes on
#: purpose: ``python tools/detlint tests/analysis/fixtures/ --format
#: json > tests/analysis/golden/fixture_report.json``.
FIXTURE_REPORT = os.path.join(REPO, "tests", "analysis", "golden",
                              "fixture_report.json")


def _result() -> LintResult:
    findings = [
        Finding(rule="DET002", path="src/pkg/a.py", line=3,
                column=12, message="wall-clock call time.time()",
                snippet="return time.time()"),
        Finding(rule="FPR002", path="src/pkg/b.py", line=10,
                column=1, message="class Row defines to_dict but "
                "no from_dict", snippet="def to_dict(self):"),
    ]
    return LintResult(findings=findings, files_checked=2)


GOLDEN_TEXT = (
    "src/pkg/a.py:3:12: DET002 wall-clock call time.time()\n"
    "src/pkg/b.py:10:1: FPR002 class Row defines to_dict but no "
    "from_dict\n"
    "detlint: 2 finding(s) [DET002 x1, FPR002 x1] in 2 file(s)\n"
)

GOLDEN_CLEAN = "detlint: clean (7 file(s) checked)\n"

GOLDEN_JSON = """\
{
  "files_checked": 2,
  "findings": [
    {
      "column": 12,
      "fingerprint": "3e3721920c77e949",
      "line": 3,
      "message": "wall-clock call time.time()",
      "path": "src/pkg/a.py",
      "rule": "DET002",
      "snippet": "return time.time()"
    },
    {
      "column": 1,
      "fingerprint": "b3df9b957ea9c195",
      "line": 10,
      "message": "class Row defines to_dict but no from_dict",
      "path": "src/pkg/b.py",
      "rule": "FPR002",
      "snippet": "def to_dict(self):"
    }
  ],
  "format": 3,
  "summary": {
    "by_rule": {
      "DET002": 1,
      "FPR002": 1
    },
    "total": 2
  },
  "unused_suppressions": []
}
"""


class TestTextReporter:
    def test_golden_report(self):
        assert render_text(_result()) == GOLDEN_TEXT

    def test_golden_clean_report(self):
        clean = LintResult(findings=[], files_checked=7)
        assert render_text(clean) == GOLDEN_CLEAN


class TestJsonReporter:
    def test_golden_report(self):
        assert render_json(_result()) == GOLDEN_JSON

    def test_report_is_canonical_json(self):
        blob = render_json(_result())
        payload = json.loads(blob)
        assert blob == json.dumps(payload, indent=2,
                                  sort_keys=True) + "\n"
        assert payload["summary"]["total"] == 2

    def test_rendering_is_deterministic(self):
        assert render_json(_result()) == render_json(_result())
        assert render_text(_result()) == render_text(_result())


class TestFingerprint:
    @staticmethod
    def _finding(line=3, rule="DET002", path="pkg/mod.py",
                 snippet="x = time.time()"):
        return Finding(rule=rule, path=path, line=line, column=12,
                       message="wall-clock call", snippet=snippet)

    def test_fingerprint_survives_line_moves(self):
        # Inserting unrelated lines above a finding must not change
        # the id code scanning tracks it by.
        assert self._finding(line=3).fingerprint() == \
            self._finding(line=31).fingerprint()

    def test_fingerprint_separates_rule_path_and_snippet(self):
        base = self._finding().fingerprint()
        assert self._finding(rule="DET003").fingerprint() != base
        assert self._finding(path="pkg/other.py").fingerprint() != base
        assert self._finding(snippet="y = 1").fingerprint() != base


class TestFixtureReport:
    def test_fixture_report_matches_golden(self, monkeypatch):
        # Paths normalise relative to the cwd, as they do in CI.
        monkeypatch.chdir(REPO)
        result = lint_paths([os.path.join("tests", "analysis",
                                          "fixtures")])
        with open(FIXTURE_REPORT, encoding="utf-8") as handle:
            assert render_json(result) == handle.read()


class TestRuleCatalogue:
    def test_every_rule_listed(self):
        text = render_rules_text()
        for rule in all_rules():
            assert rule.rule_id in text
            assert rule.title in text
