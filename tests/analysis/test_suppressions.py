"""Suppression grammar: silencing, typos, stale escapes, spans."""

from __future__ import annotations

import ast

from repro.analysis.engine import lint_paths, lint_source
from repro.analysis.rules import all_rules
from repro.analysis.suppressions import statement_spans

WALLCLOCK = ("import time\n"
             "def stamp():\n"
             "    return time.time()"
             "  # detlint: ignore[DET002] -- test clock\n")


class TestSuppressing:
    def test_valid_suppression_silences_the_finding(self):
        assert lint_source(WALLCLOCK, "x.py") == []

    def test_suppression_is_line_local(self):
        source = ("import time\n"
                  "# detlint: ignore[DET002] -- wrong line\n"
                  "def stamp():\n"
                  "    return time.time()\n")
        rules = [f.rule for f in lint_source(source, "x.py")]
        # The finding survives and the suppression reports unused.
        assert rules == ["DET000", "DET002"]

    def test_multi_rule_suppression(self):
        source = ("import time\n"
                  "def merge(stats, other):\n"
                  "    for k in other.keys():"
                  "  # detlint: ignore[DET002,DET003] -- fixture\n"
                  "        stats[k] = time.time()\n")
        rules = [f.rule for f in lint_source(source, "x.py")]
        # DET003 on the loop line is silenced; the DET002 on the
        # next line is not (the suppression is line-local).
        assert rules == ["DET002"]

    def test_wrong_rule_id_does_not_silence(self):
        source = ("import time\n"
                  "def stamp():\n"
                  "    return time.time()"
                  "  # detlint: ignore[DET001] -- wrong rule\n")
        rules = sorted(f.rule for f in lint_source(source, "x.py"))
        assert rules == ["DET000", "DET002"]


class TestMalformed:
    def test_missing_reason_is_det000(self):
        source = ("import time\n"
                  "def stamp():\n"
                  "    return time.time()"
                  "  # detlint: ignore[DET002]\n")
        rules = sorted(f.rule for f in lint_source(source, "x.py"))
        assert rules == ["DET000", "DET002"]

    def test_bad_rule_id_is_det000(self):
        source = ("def f():\n"
                  "    pass  # detlint: ignore[DETX] -- nope\n")
        findings = lint_source(source, "x.py")
        assert [f.rule for f in findings] == ["DET000"]
        assert "invalid rule id" in findings[0].message

    def test_typo_missing_colon_is_det000(self):
        source = ("def f():\n"
                  "    pass  # detlint ignore[DET002] -- typo\n")
        findings = lint_source(source, "x.py")
        assert [f.rule for f in findings] == ["DET000"]
        assert "unparsable" in findings[0].message

    def test_suppression_in_docstring_is_inert(self):
        source = ('def f():\n'
                  '    """Use # detlint: ignore[DET002] -- like '
                  'this."""\n'
                  '    return 1\n')
        assert lint_source(source, "x.py") == []


class TestStatementSpans:
    def test_multiline_simple_statements_get_spans(self):
        source = ("x = f(\n"
                  "    1,\n"
                  "    2,\n"
                  ")\n"
                  "y = 1\n")
        spans = statement_spans(ast.walk(ast.parse(source)))
        assert spans == {1: (1, 4), 2: (1, 4),
                         3: (1, 4), 4: (1, 4)}

    def test_compound_statements_define_no_span(self):
        source = ("if x:\n"
                  "    y = 1\n"
                  "for i in r:\n"
                  "    z = 2\n")
        assert statement_spans(ast.walk(ast.parse(source))) == {}

    def test_suppression_on_continuation_line_covers_statement(self):
        source = ("import time\n"
                  "def stamp():\n"
                  "    return time.time(\n"
                  "        # detlint: ignore[DET002] -- test clock\n"
                  "    )\n")
        assert lint_source(source, "x.py") == []

    def test_suppression_on_closing_paren_line_covers_statement(self):
        source = ("import time\n"
                  "def stamp():\n"
                  "    return time.time(\n"
                  "    )  # detlint: ignore[DET002] -- test clock\n")
        assert lint_source(source, "x.py") == []

    def test_span_does_not_leak_to_the_next_statement(self):
        source = ("import time\n"
                  "def stamp():\n"
                  "    a = f(\n"
                  "        # detlint: ignore[DET002] -- wrong stmt\n"
                  "    )\n"
                  "    return time.time()\n")
        rules = sorted(f.rule for f in lint_source(source, "x.py"))
        # The finding survives; the suppression reports unused.
        assert rules == ["DET000", "DET002"]

    def test_narrowed_rules_skip_foreign_suppressions(self):
        # A suppression for a rule that did not run this pass is
        # never reported unused.
        source = ("def f():\n"
                  "    return 1"
                  "  # detlint: ignore[SCH001] -- audited benign\n")
        rules = [r for r in all_rules() if r.rule_id == "DET002"]
        assert lint_source(source, "x.py", rules=rules) == []


class TestUnused:
    def test_unused_suppression_reported(self):
        source = ("def f():\n"
                  "    return 1"
                  "  # detlint: ignore[DET002] -- stale\n")
        findings = lint_source(source, "x.py")
        assert [f.rule for f in findings] == ["DET000"]
        assert "unused suppression" in findings[0].message

    def test_unregistered_rule_id_is_det000_under_any_selection(self):
        # A well-formed id that names no registered rule (DET006 was
        # folded into FPR002) silences nothing; it is reported even
        # when only other rules run, so it cannot rot unnoticed.
        source = ("import time\n"
                  "def stamp():\n"
                  "    return time.time()"
                  "  # detlint: ignore[DET006] -- retired id\n")
        rules = [r for r in all_rules() if r.rule_id == "DET002"]
        findings = sorted(lint_source(source, "x.py", rules=rules),
                          key=lambda f: f.rule)
        assert [f.rule for f in findings] == ["DET000", "DET002"]
        assert "unknown rule id" in findings[0].message

    def test_unregistered_id_voids_the_whole_comment(self):
        # One unknown id in a multi-rule comment rejects the comment:
        # the registered DET002 beside it silences nothing either.
        source = ("import time\n"
                  "def stamp():\n"
                  "    return time.time()"
                  "  # detlint: ignore[DET002,DET009] -- mixed\n")
        findings = sorted(lint_source(source, "x.py"),
                          key=lambda f: f.rule)
        assert [f.rule for f in findings] == ["DET000", "DET002"]
        assert "'DET009'" in findings[0].message
        assert "'DET002'" not in findings[0].message

    def test_lint_paths_always_reports_unused(self, tmp_path):
        # There is no opt-out: a stale escape gates the run.
        target = tmp_path / "stale.py"
        target.write_text("def f():\n"
                          "    return 1"
                          "  # detlint: ignore[DET002] -- stale\n")
        result = lint_paths([str(target)])
        (unused,) = result.unused_suppressions
        assert unused.line == 2
        assert [f.rule for f in result.findings] == ["DET000"]
        assert result.exit_code == 1
