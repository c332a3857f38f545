"""The FPR project rules and the serialization layer under them.

Fixture pairs pin each rule's positive/negative behaviour end to end
through :func:`lint_paths`; the unit tests below exercise the
serialization map directly -- emit/read extraction, round-trip
asymmetry shapes, fingerprint payload coverage, substream-name
resolution -- plus the unified rule registry, cross-family
suppressions on one statement, and the golden FPR reporter bytes.
"""

from __future__ import annotations

import ast
import json
import os

import pytest

from repro.analysis.engine import (
    LintResult,
    UnknownRuleError,
    lint_paths,
    module_name_for,
)
from repro.analysis.findings import Finding
from repro.analysis.fingerprint_rules import (
    VOLATILE_FIELDS,
    all_fingerprint_rules,
    fingerprint_rule_ids,
)
from repro.analysis.interproc.project import build_project
from repro.analysis.interproc.serialization import (
    COVERS_ALL,
    build_serialization_map,
    full_literal,
    instance_vars,
)
from repro.analysis import registry
from repro.analysis.registry import (
    FAMILY_PREFIXES,
    expand_selection,
    family_summary,
    registered_project_rules,
    registered_rule_ids,
    rule_families,
)
from repro.analysis.reporters import (
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.rules import build_context

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: fixture -> exact (rule, line) findings it must produce.
EXPECTED = {
    "fpr001_bad.py": [("FPR001", 17)],
    "fpr001_good.py": [],
    "fpr002_bad.py": [("FPR002", 19), ("FPR002", 31),
                      ("FPR002", 39)],
    "fpr002_good.py": [],
    "fpr003_bad.py": [("FPR003", 25)],
    "fpr003_good.py": [],
    "fpr004_bad.py": [("FPR004", 21), ("FPR004", 21)],
    "fpr004_good.py": [],
    "fpr005_bad.py": [("FPR005", 13), ("FPR005", 18)],
    "fpr005_good.py": [],
    "fpr006_bad.py": [("FPR006", 14)],
    "fpr006_good.py": [],
    "fpr007_bad.py": [("FPR007", 12)],
    "fpr007_good.py": [],
    "fpr008_bad.py": [("FPR008", 13), ("FPR008", 21)],
    "fpr008_good.py": [],
}


class TestFixturePairs:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_fixture_findings_are_exact(self, name):
        result = lint_paths([os.path.join(FIXTURES, name)])
        got = [(f.rule, f.line) for f in result.findings]
        assert got == EXPECTED[name]

    def test_fpr001_names_the_dropped_field(self):
        result = lint_paths([os.path.join(FIXTURES,
                                          "fpr001_bad.py")])
        (finding,) = result.findings
        assert "'cs_latency'" in finding.message
        assert "dataclasses.asdict" in finding.message

    def test_fpr002_messages_cover_all_three_shapes(self):
        result = lint_paths([os.path.join(FIXTURES,
                                          "fpr002_bad.py")])
        defaulted, dropped, one_way = result.findings
        assert "defaults key 'total'" in defaulted.message
        assert "data['total']" in defaulted.message
        assert "never reads key 'rows'" in dropped.message
        assert "class Verdict defines to_dict but no from_dict" in \
            one_way.message
        assert one_way.column == 5

    def test_fpr004_reports_each_volatile_field(self):
        result = lint_paths([os.path.join(FIXTURES,
                                          "fpr004_bad.py")])
        fields = sorted(f.message.split(" is folded")[0]
                        for f in result.findings)
        assert fields == ["volatile field PoolSpec.tie_break",
                          "volatile field PoolSpec.workers"]

    def test_fpr006_names_the_first_site(self):
        result = lint_paths([os.path.join(FIXTURES,
                                          "fpr006_bad.py")])
        (finding,) = result.findings
        assert "'fleet.medium'" in finding.message
        assert "build_medium" in finding.message
        assert "fpr006_bad.py:10" in finding.message

    def test_fpr008_messages_name_the_adhoc_shape(self):
        result = lint_paths([os.path.join(FIXTURES,
                                          "fpr008_bad.py")])
        fstring, digest = result.findings
        assert "an f-string" in fstring.message
        assert "a raw hash digest" in digest.message
        assert "spec_fingerprint" in digest.message

    def test_fpr_rules_are_registered(self):
        assert fingerprint_rule_ids() == tuple(
            f"FPR00{i}" for i in range(1, 9))
        assert all(r.title and r.rationale
                   for r in all_fingerprint_rules())

    def test_select_can_narrow_to_a_fingerprint_rule(self):
        result = lint_paths([FIXTURES], select=["FPR007"])
        assert {(f.rule, os.path.basename(f.path))
                for f in result.findings} == \
            {("FPR007", "fpr007_bad.py")}

    def test_select_family_prefix_expands(self):
        result = lint_paths([FIXTURES], select=["FPR"])
        by_rule = sorted({f.rule for f in result.findings})
        assert by_rule == list(fingerprint_rule_ids())
        assert all(os.path.basename(f.path).startswith("fpr")
                   for f in result.findings)

    def test_ignore_can_drop_a_fingerprint_rule(self):
        result = lint_paths([FIXTURES], ignore=["FPR004"])
        assert "FPR004" not in {f.rule for f in result.findings}

    def test_tie_break_is_recognised_as_volatile(self):
        assert "tie_break" in VOLATILE_FIELDS
        assert "path_loss_exponent" not in VOLATILE_FIELDS


class TestOneWaySerialisation:
    """FPR002's to_dict-without-from_dict case (formerly DET006)."""

    def _lint(self, tmp_path, source):
        target = tmp_path / "one_way.py"
        target.write_text(source)
        return lint_paths([str(target)], select=["FPR002"])

    def test_to_dict_alone_fires_at_its_def(self, tmp_path):
        result = self._lint(tmp_path,
                            "class Row:\n"
                            "    def __init__(self, n):\n"
                            "        self.n = n\n"
                            "\n"
                            "    def to_dict(self):\n"
                            "        return {'n': self.n}\n")
        (finding,) = result.findings
        assert (finding.rule, finding.line, finding.column) == \
            ("FPR002", 5, 5)
        assert "class Row defines to_dict but no from_dict" in \
            finding.message

    def test_from_dict_alone_is_not_flagged(self, tmp_path):
        result = self._lint(tmp_path,
                            "class Row:\n"
                            "    def __init__(self, n):\n"
                            "        self.n = n\n"
                            "\n"
                            "    @classmethod\n"
                            "    def from_dict(cls, data):\n"
                            "        return cls(data['n'])\n")
        assert result.findings == []

    def test_class_nested_in_a_function_is_not_indexed(self, tmp_path):
        # The symbol table indexes module-level classes only; a class
        # built inside a function is out of FPR002's reach.
        result = self._lint(tmp_path,
                            "def make():\n"
                            "    class Row:\n"
                            "        def to_dict(self):\n"
                            "            return {}\n"
                            "    return Row\n")
        assert result.findings == []

    def test_suppression_on_the_def_line_silences_it(self, tmp_path):
        result = self._lint(tmp_path,
                            "class Row:\n"
                            "    def to_dict(self):"
                            "  # detlint: ignore[FPR002] -- log only\n"
                            "        return {}\n")
        assert result.findings == []
        assert result.unused_suppressions == []


class TestRegistry:
    def test_families_in_fixed_order(self):
        assert FAMILY_PREFIXES == ("DET", "SCH", "EFF", "FPR")
        spans = [family.span for family in rule_families()]
        assert spans == ["DET001..DET008", "SCH001..SCH003",
                         "EFF001..EFF008", "FPR001..FPR008"]

    def test_registered_ids_are_sorted_and_unique(self):
        ids = registered_rule_ids()
        assert list(ids) == sorted(set(ids))
        assert len(ids) == 7 + 3 + 8 + 8

    def test_project_rules_cover_sch_eff_fpr(self):
        prefixes = {rule.rule_id[:3]
                    for rule in registered_project_rules()}
        assert prefixes == {"SCH", "EFF", "FPR"}

    def test_expand_selection_maps_prefixes(self):
        assert expand_selection(["FPR"]) == set(
            fingerprint_rule_ids())
        assert expand_selection(["FPR003", "DET"]) == \
            {"FPR003"} | {f"DET00{i}" for i in (1, 2, 3, 4, 5, 7, 8)}
        # Unknown ids pass through for the engine to report.
        assert expand_selection(["XYZ999"]) == {"XYZ999"}

    def test_family_summary_names_every_family(self):
        summary = family_summary()
        for span in ("DET001..DET008", "SCH001..SCH003",
                     "EFF001..EFF008", "FPR001..FPR008"):
            assert span in summary

    def test_unknown_rule_error_names_the_families(self):
        with pytest.raises(UnknownRuleError) as excinfo:
            lint_paths([FIXTURES], select=["FPR999"])
        assert "FPR001..FPR008" in str(excinfo.value)


class TestCrossFamilySuppression:
    """One statement, findings from two families, one comment."""

    SOURCE = (
        '"""Fixture: EFF006 and FPR006 co-fire on one get."""\n'
        "\n"
        "\n"
        "def build_medium(streams):\n"
        "    return streams.get(\n"
        "        # detlint: ignore[EFF006] -- fixture: family check"
        " only\n"
        '        "oops.medium")\n'
        "\n"
        "\n"
        "def build_interference(streams):\n"
        "    return streams.get(\n"
        "        # detlint: ignore[EFF006,FPR006] -- fixture: both"
        " families audited\n"
        '        "oops.medium")\n'
    )

    def _lint(self, tmp_path, source):
        target = tmp_path / "cross_family.py"
        target.write_text(source)
        return lint_paths([str(target)])

    def test_unsuppressed_source_fires_both_families(self, tmp_path):
        bare = self.SOURCE.replace(
            "        # detlint: ignore[EFF006] -- fixture: family"
            " check only\n", "").replace(
            "        # detlint: ignore[EFF006,FPR006] -- fixture:"
            " both families audited\n", "")
        result = self._lint(tmp_path, bare)
        assert sorted(f.rule for f in result.findings) == \
            ["EFF006", "EFF006", "FPR006"]

    def test_one_comment_silences_both_families(self, tmp_path):
        result = self._lint(tmp_path, self.SOURCE)
        assert result.findings == []
        assert result.unused_suppressions == []


def _fpr_result() -> LintResult:
    findings = [
        Finding(rule="FPR003", path="src/pkg/key.py", line=21,
                column=12, message="field DemoSpec.gain is read on "
                "an execution path but absent from this "
                "fingerprint payload",
                snippet="return spec_fingerprint('demo', 1, "
                "payload)"),
        Finding(rule="FPR008", path="src/pkg/enqueue.py", line=8,
                column=9, message="enqueue result_key derived from "
                "an f-string instead of the canonical fingerprint "
                "helper",
                snippet='"result_key": f"run-{seed}",'),
    ]
    return LintResult(findings=findings, files_checked=2)


GOLDEN_FPR_TEXT = (
    "src/pkg/key.py:21:12: FPR003 field DemoSpec.gain is read on "
    "an execution path but absent from this fingerprint payload\n"
    "src/pkg/enqueue.py:8:9: FPR008 enqueue result_key derived "
    "from an f-string instead of the canonical fingerprint helper\n"
    "detlint: 2 finding(s) [FPR003 x1, FPR008 x1] in 2 file(s)\n"
)

GOLDEN_FPR_JSON = """\
{
  "files_checked": 2,
  "findings": [
    {
      "column": 12,
      "fingerprint": "b56f86187e7b3692",
      "line": 21,
      "message": "field DemoSpec.gain is read on an execution path \
but absent from this fingerprint payload",
      "path": "src/pkg/key.py",
      "rule": "FPR003",
      "snippet": "return spec_fingerprint('demo', 1, payload)"
    },
    {
      "column": 9,
      "fingerprint": "e0d5f541ed894e48",
      "line": 8,
      "message": "enqueue result_key derived from an f-string \
instead of the canonical fingerprint helper",
      "path": "src/pkg/enqueue.py",
      "rule": "FPR008",
      "snippet": "\\"result_key\\": f\\"run-{seed}\\","
    }
  ],
  "format": 3,
  "summary": {
    "by_rule": {
      "FPR003": 1,
      "FPR008": 1
    },
    "total": 2
  },
  "unused_suppressions": []
}
"""


class TestFprGoldenReporters:
    def test_golden_text(self):
        assert render_text(_fpr_result()) == GOLDEN_FPR_TEXT

    def test_golden_json(self):
        assert render_json(_fpr_result()) == GOLDEN_FPR_JSON

    def test_sarif_results_and_rule_catalogue(self):
        payload = json.loads(render_sarif(_fpr_result()))
        (run,) = payload["runs"]
        assert [r["ruleId"] for r in run["results"]] == \
            ["FPR003", "FPR008"]
        first = run["results"][0]
        location = first["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == \
            "src/pkg/key.py"
        assert location["region"]["startLine"] == 21
        assert first["partialFingerprints"]["detlint/v1"] == \
            "b56f86187e7b3692"
        ids = [rule["id"]
               for rule in run["tool"]["driver"]["rules"]]
        # The SARIF catalogue derives from the registry: all four
        # families present, sorted.
        assert ids == sorted(ids)
        for rule_id in registered_rule_ids():
            assert rule_id in ids


# ---------------------------------------------------------------------------
# Serialization-layer unit tests
# ---------------------------------------------------------------------------


def _ctx(source: str, path: str):
    tree = ast.parse(source)
    return build_context(path, module_name_for(path), source, tree)


def _serialization(source: str, path: str = "src/demo/spec.py"):
    project = build_project([_ctx(source, path)])
    return build_serialization_map(project.symbols, project.scopes), project


CLASS_SOURCE = '''
import dataclasses


@dataclasses.dataclass(frozen=True)
class Spec:
    alpha: int
    beta: float
    note: str = ""

    def to_dict(self):
        data = {"alpha": self.alpha, "beta": self.beta}
        if self.note:
            data["note"] = self.note
        return data

    @classmethod
    def from_dict(cls, data):
        if "note" in data:
            pass
        return cls(alpha=data["alpha"],
                   beta=data.get("beta", 0.0),
                   note=data.get("note", ""))


def run(spec: Spec):
    return spec.alpha + spec.beta
'''


class TestSerializationMap:
    def test_emits_split_always_and_conditional(self):
        serialization, _ = _serialization(CLASS_SOURCE)
        (serial,) = serialization.classes.values()
        assert serial.is_dataclass and serial.frozen
        assert serial.fields == ("alpha", "beta", "note")
        assert serial.emits_always == ("alpha", "beta")
        assert serial.emits_conditional == ("note",)
        assert not serial.to_dict_dynamic
        assert serial.emitted == {"alpha", "beta", "note"}

    def test_reads_split_strict_and_defaulted(self):
        serialization, _ = _serialization(CLASS_SOURCE)
        (serial,) = serialization.classes.values()
        # data["alpha"] and the "note" in data probe are strict;
        # .get with a default is the silent shape FPR002 flags.
        assert serial.reads_strict == ("alpha", "note")
        assert sorted(serial.reads_defaulted) == ["beta", "note"]
        assert not serial.from_dict_dynamic

    def test_attribute_reads_are_project_wide(self):
        serialization, _ = _serialization(CLASS_SOURCE)
        (serial,) = serialization.classes.values()
        assert {"alpha", "beta"} <= serial.reads

    def test_nested_def_returns_are_not_emitted(self):
        source = (
            "import dataclasses\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class Spec:\n"
            "    alpha: int\n"
            "    beta: int\n"
            "    def to_dict(self):\n"
            "        def helper():\n"
            "            return {'beta': self.beta}\n"
            "        return {'alpha': self.alpha}\n")
        serialization, _ = _serialization(source)
        (serial,) = serialization.classes.values()
        assert serial.emits_always == ("alpha",)

    def test_asdict_to_dict_is_dynamic(self):
        source = (
            "import dataclasses\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class Spec:\n"
            "    alpha: int\n"
            "    def to_dict(self):\n"
            "        return dataclasses.asdict(self)\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return cls(**data)\n")
        serialization, _ = _serialization(source)
        (serial,) = serialization.classes.values()
        assert serial.to_dict_dynamic
        assert serial.from_dict_dynamic
        assert serial.emitted == {"alpha"}

    def test_payload_escape_to_helper_is_dynamic(self):
        source = (
            "class Spec:\n"
            "    def to_dict(self):\n"
            "        return {'alpha': 1}\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        _check(data)\n"
            "        return cls()\n"
            "def _check(data):\n"
            "    pass\n")
        serialization, _ = _serialization(source)
        (serial,) = serialization.classes.values()
        assert serial.from_dict_dynamic

    def test_set_coercion_does_not_hide_reads(self):
        source = (
            "class Spec:\n"
            "    def to_dict(self):\n"
            "        return {'alpha': 1}\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        unknown = set(data) - {'alpha'}\n"
            "        return cls()\n")
        serialization, _ = _serialization(source)
        (serial,) = serialization.classes.values()
        # set(data) is an unknown-key check, not a key consumer:
        # 'alpha' stays unread and FPR002 can still judge it.
        assert not serial.from_dict_dynamic
        assert serial.reads_strict == ()

    def test_fingerprint_coverage_asdict_covers_all(self):
        source = (
            "import dataclasses\n"
            "from repro.core.fingerprint import spec_fingerprint\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class Spec:\n"
            "    alpha: int\n"
            "    beta: int\n"
            "def key(spec: Spec):\n"
            "    return spec_fingerprint('demo', 1,\n"
            "                            dataclasses.asdict(spec))\n")
        serialization, _ = _serialization(source)
        (use,) = serialization.fingerprints
        assert use.kind == "demo"
        assert list(use.coverage.values()) == [COVERS_ALL]

    def test_fingerprint_coverage_attr_reads_are_exact(self):
        source = (
            "import dataclasses\n"
            "from repro.core.fingerprint import spec_fingerprint\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class Spec:\n"
            "    alpha: int\n"
            "    beta: int\n"
            "def key(spec: Spec):\n"
            "    payload = {'alpha': spec.alpha}\n"
            "    return spec_fingerprint('demo', 1, payload)\n")
        serialization, _ = _serialization(source)
        (use,) = serialization.fingerprints
        (covered,) = use.coverage.values()
        assert covered == frozenset({"alpha"})

    def test_instance_vars_resolve_annotations_and_self(self):
        source = (
            "class Spec:\n"
            "    def method(self):\n"
            "        return 1\n"
            "def run(spec: Spec):\n"
            "    local = Spec()\n"
            "    return spec, local\n")
        _, project = _serialization(source)
        table = project.symbols
        run = table.functions["demo.spec.run"]
        varmap = instance_vars(table, run)
        assert varmap == {"spec": "demo.spec.Spec",
                          "local": "demo.spec.Spec"}
        method = table.functions["demo.spec.Spec.method"]
        assert instance_vars(table, method) == \
            {"self": "demo.spec.Spec"}

    def test_full_literal_resolves_locals_only_fully(self):
        source = (
            "def build(streams, suffix):\n"
            "    name = 'fleet.medium'\n"
            "    a = streams.get(name)\n"
            "    b = streams.get('fleet.' + suffix)\n"
            "    return a, b\n")
        serialization, project = _serialization(source)
        build = project.scopes["demo.spec.build"]
        calls = [sub for sub in ast.walk(build.symbol.node)
                 if isinstance(sub, ast.Call)]
        assert full_literal(build, calls[0].args[0]) == \
            "fleet.medium"
        # Partially dynamic names contribute nothing: collision
        # detection must never guess.
        assert full_literal(build, calls[1].args[0]) is None
        (site,) = serialization.streams
        assert site.name == "fleet.medium"


class TestDocsSync:
    """The registry is the source of truth; the docs must keep up."""

    ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

    def _read(self, *parts):
        with open(os.path.join(self.ROOT, *parts)) as handle:
            return handle.read()

    def test_contributing_triages_every_family(self):
        text = self._read("CONTRIBUTING.md")
        for family in registry.rule_families():
            span = "{0}–{1}".format(*family.span.split(".."))
            assert span in text, family.prefix
        for rule_id in ("SCH001", "FPR001", "FPR008"):
            assert rule_id in text

    def test_architecture_tables_cover_eff_and_fpr_ids(self):
        text = self._read("docs", "ARCHITECTURE.md")
        for family in registry.rule_families():
            if family.prefix in ("EFF", "FPR"):
                for rule_id in family.rule_ids:
                    assert f"| {rule_id} |" in text, rule_id

    def test_readme_names_all_four_families(self):
        text = self._read("README.md")
        for family in registry.rule_families():
            span = "{0}–{1}".format(*family.span.split(".."))
            assert span in text, family.prefix

    def test_precommit_config_selects_every_family(self):
        text = self._read(".pre-commit-config.yaml")
        prefixes = ",".join(registry.FAMILY_PREFIXES)
        assert f"--select {prefixes}" in text
