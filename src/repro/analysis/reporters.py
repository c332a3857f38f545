"""Finding reporters: human text, canonical JSON, and SARIF.

All renderers are pure functions of the :class:`LintResult`, emit
findings in the engine's deterministic order, and end with a
newline, so reports are byte-stable and diffable (the JSON and SARIF
reports are uploaded as CI artifacts; the text report is what
developers read; the SARIF report is what GitHub renders as inline
PR annotations).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analysis.engine import LintResult, count_by_rule
from repro.analysis.findings import Finding
from repro.analysis.registry import registered_rules

#: Bump when the JSON report layout changes.
#: v2: ``unused_suppressions`` section (file+line parity with the
#: text reporter, so CI artifacts are actionable on their own).
#: v3: ``findings`` and ``unused_suppressions`` are the only finding
#: lists.
REPORT_FORMAT = 3

#: The SARIF version GitHub code scanning consumes.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


def render_text(result: LintResult) -> str:
    """The human-readable report: one line per finding + summary."""
    lines = [
        f"{f.path}:{f.line}:{f.column}: {f.rule} {f.message}"
        for f in result.findings
    ]
    if result.findings:
        by_rule = ", ".join(f"{rule} x{count}" for rule, count
                            in count_by_rule(result.findings))
        lines.append(f"detlint: {len(result.findings)} finding(s) "
                     f"[{by_rule}] in {result.files_checked} "
                     f"file(s)")
    else:
        lines.append(f"detlint: clean "
                     f"({result.files_checked} file(s) checked)")
    return "\n".join(lines) + "\n"


def render_json(result: LintResult) -> str:
    """The canonical JSON report (sorted keys, 2-space indent)."""
    payload: Dict[str, Any] = {
        "format": REPORT_FORMAT,
        "files_checked": result.files_checked,
        "findings": [f.to_dict() for f in result.findings],
        "unused_suppressions": [
            {"path": f.path, "line": f.line, "message": f.message}
            for f in result.unused_suppressions
        ],
        "summary": {
            "total": len(result.findings),
            "by_rule": dict(count_by_rule(result.findings)),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sarif_result(finding: Finding) -> Dict[str, Any]:
    return {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path,
                    "uriBaseId": "%SRCROOT%",
                },
                "region": {
                    "startLine": finding.line,
                    "startColumn": finding.column,
                },
            },
        }],
        "partialFingerprints": {
            "detlint/v1": finding.fingerprint(),
        },
    }


def render_sarif(result: LintResult) -> str:
    """The SARIF 2.1.0 report (GitHub inline PR annotations).

    One run, one rule entry per registered rule (so annotations can
    link to the catalogue text), one result per gating finding.
    """
    rules: List[Dict[str, Any]] = [
        {
            "id": rule.rule_id,
            "name": rule.title or rule.rule_id,
            "shortDescription": {"text": rule.title or rule.rule_id},
            "fullDescription": {"text": rule.rationale or rule.title},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in registered_rules()
    ]
    payload: Dict[str, Any] = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "detlint",
                    "rules": rules,
                },
            },
            "results": [_sarif_result(f) for f in result.findings],
        }],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_rules_text() -> str:
    """The rule catalogue (``--list-rules``)."""
    lines = []
    for rule in registered_rules():
        lines.append(f"{rule.rule_id}  {rule.title}")
        for chunk in _wrap(rule.rationale, width=64):
            lines.append(f"        {chunk}")
    return "\n".join(lines) + "\n"


def _wrap(text: str, width: int) -> list:
    words = text.split()
    lines, current = [], ""
    for word in words:
        if current and len(current) + 1 + len(word) > width:
            lines.append(current)
            current = word
        else:
            current = f"{current} {word}".strip()
    if current:
        lines.append(current)
    return lines
