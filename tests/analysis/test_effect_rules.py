"""The EFF project rules and the effect-inference layer under them.

Fixture pairs pin each rule's positive/negative behaviour end to end
through :func:`lint_paths`; the unit tests below exercise the effect
layer directly -- direct extraction, the caller<-callee fixpoint,
transaction windows, raised-class propagation, substream-name
folding and the strict (no-single-owner-fallback) resolver.
"""

from __future__ import annotations

import ast
import os

import pytest

from repro.analysis.effect_rules import (
    SubstreamDisciplineRule,
    all_effect_rules,
    effect_rule_ids,
)
from repro.analysis.engine import lint_paths, module_name_for
from repro.analysis.interproc.effects import (
    DB_BEGIN,
    DB_COMMIT,
    DB_EXECUTE,
    FS_FSYNC,
    FS_RENAME,
    FS_WRITE,
    RNG_DRAW,
    leading_literal,
    sql_is_mutation,
    sql_mentions_table,
    sql_updated_table,
)
from repro.analysis.interproc.project import build_project
from repro.analysis.rules import build_context

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: fixture -> exact (rule, line) findings it must produce.
EXPECTED = {
    "eff001_bad.py": [("EFF001", 13)],
    "eff001_good.py": [],
    "eff002_bad.py": [("EFF002", 17)],
    "eff002_good.py": [],
    "eff003_bad.py": [("EFF003", 17), ("EFF003", 25)],
    "eff003_good.py": [],
    "eff004_bad.py": [("EFF004", 10)],
    "eff004_good.py": [],
    "eff005_bad.py": [("EFF005", 27)],
    "eff005_good.py": [],
    "eff006_bad.py": [("EFF006", 12), ("EFF006", 17),
                      ("EFF006", 26)],
    "eff006_good.py": [],
    "eff007_bad.py": [("EFF007", 17)],
    "eff007_good.py": [],
    "eff008_bad.py": [("EFF008", 22), ("EFF008", 31)],
    "eff008_good.py": [],
}


class TestFixturePairs:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_fixture_findings_are_exact(self, name):
        result = lint_paths([os.path.join(FIXTURES, name)])
        got = [(f.rule, f.line) for f in result.findings]
        assert got == EXPECTED[name]

    def test_eff002_message_prescribes_the_fix(self):
        result = lint_paths([os.path.join(FIXTURES,
                                          "eff002_bad.py")])
        (finding,) = result.findings
        assert "os.fsync" in finding.message
        assert "handle.flush()" in finding.message

    def test_eff006_messages_cover_all_three_shapes(self):
        result = lint_paths([os.path.join(FIXTURES,
                                          "eff006_bad.py")])
        messages = [f.message for f in result.findings]
        assert "outside the module's family" in messages[0]
        assert "fleet.*" in messages[0]
        assert "ad-hoc generator constructed in place" in messages[1]
        # The interprocedural shape blames the *caller* that handed
        # the ad-hoc generator in, naming the drawing callee.
        assert "passes an ad-hoc generator into" in messages[2]
        assert "jitter" in messages[2]

    def test_eff008_message_names_the_raising_callee(self):
        result = lint_paths([os.path.join(FIXTURES,
                                          "eff008_bad.py")])
        interproc, direct = result.findings
        assert "raised below" in interproc.message
        assert "check" in interproc.message
        assert "a direct DeadLetterError" in direct.message

    def test_eff_rules_are_registered(self):
        assert effect_rule_ids() == tuple(
            f"EFF00{i}" for i in range(1, 9))
        assert all(r.title and r.rationale
                   for r in all_effect_rules())

    def test_select_can_narrow_to_an_effect_rule(self):
        result = lint_paths([FIXTURES], select=["EFF004"])
        assert {(f.rule, os.path.basename(f.path))
                for f in result.findings} == \
            {("EFF004", "eff004_bad.py")}

    def test_ignore_can_drop_an_effect_rule(self):
        result = lint_paths([FIXTURES], ignore=["EFF006"])
        assert "EFF006" not in {f.rule for f in result.findings}


def _ctx(source: str, path: str):
    tree = ast.parse(source)
    return build_context(path, module_name_for(path), source, tree)


def _project(source: str, path: str = "src/demo/store.py"):
    return build_project([_ctx(source, path)])


ATOMIC_STORE = '''\
import os
import tempfile


def write_tmp(root, text):
    fd, tmp = tempfile.mkstemp(dir=root)
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    return tmp


def publish(root, name, text):
    tmp = write_tmp(root, text)
    os.replace(tmp, os.path.join(root, name))
'''


QUEUE_MOD = '''\
class DeadLetterError(RuntimeError):
    pass


def fail_item(db, item_id):
    db.execute("BEGIN IMMEDIATE")
    row = db.execute(
        "SELECT attempts FROM items WHERE item_id = ?",
        (item_id,)).fetchone()
    db.execute(
        "UPDATE items SET attempts = ? WHERE item_id = ?",
        (row[0] + 1, item_id))
    db.execute("COMMIT")
    if row[0] + 1 > 3:
        raise DeadLetterError(item_id)


def sweep(db):
    try:
        fail_item(db, 1)
    except Exception:
        db.rollback()
'''


class TestEffectLayer:
    def test_direct_effects_are_extracted(self):
        effects = _project(ATOMIC_STORE).effects
        writer = effects.per_function["demo.store.write_tmp"]
        assert FS_WRITE in writer.direct
        assert FS_FSYNC in writer.direct
        assert FS_RENAME not in writer.direct

    def test_fixpoint_folds_callee_effects_into_callers(self):
        effects = _project(ATOMIC_STORE).effects
        transitive = effects.of("demo.store.publish")
        # publish only renames directly; the write and fsync arrive
        # through write_tmp via the caller<-callee fixpoint.
        assert {FS_WRITE, FS_FSYNC, FS_RENAME} <= transitive

    def test_unknown_qname_has_no_effects(self):
        effects = _project(ATOMIC_STORE).effects
        assert effects.of("demo.store.missing") == set()
        assert effects.of(None) == set()

    def test_transaction_window_pairs_begin_with_commit(self):
        effects = _project(QUEUE_MOD, "src/demo/queuemod.py").effects
        fx = effects.per_function["demo.queuemod.fail_item"]
        assert {DB_EXECUTE, DB_BEGIN, DB_COMMIT} <= fx.direct
        (window,) = fx.windows()
        assert window.immediate
        # Both inner statements sit strictly inside the window.
        inner = [call.node.lineno for call in fx.db_calls
                 if call.sql and "items" in call.sql]
        assert all(window.contains(line) for line in inner)

    def test_orphan_rollback_opens_no_window(self):
        effects = _project(QUEUE_MOD, "src/demo/queuemod.py").effects
        fx = effects.per_function["demo.queuemod.sweep"]
        # The except-arm rollback has no matching BEGIN: it must not
        # fabricate a window covering the whole function.
        assert fx.windows() == []

    def test_raises_propagate_through_the_call_graph(self):
        effects = _project(QUEUE_MOD, "src/demo/queuemod.py").effects
        assert "DeadLetterError" in effects.raises_of(
            "demo.queuemod.fail_item")
        assert "DeadLetterError" in effects.raises_of(
            "demo.queuemod.sweep")

    def test_rng_draw_is_an_effect(self):
        source = ("def noise(rng):\n"
                  "    return rng.normal()\n")
        effects = _project(source, "src/demo/noise.py").effects
        assert RNG_DRAW in effects.of("demo.noise.noise")

    def test_strict_resolver_skips_single_owner_fallback(self):
        # Handle.close is the only 'close' method in the project;
        # the call graph's single-owner fallback would resolve
        # stream.close() to it and pollute caller effects with the
        # write.  The effect layer must leave the call unresolved.
        source = (
            "class Handle:\n"
            "    def close(self):\n"
            "        with open('x', 'w') as fh:\n"
            "            fh.write('bye')\n"
            "\n"
            "\n"
            "def shutdown(stream):\n"
            "    stream.close()\n")
        effects = _project(source, "src/demo/handles.py").effects
        fx = effects.per_function["demo.handles.shutdown"]
        assert fx.calls[0][1] is None
        assert FS_WRITE not in effects.of("demo.handles.shutdown")


class TestClosures:
    def test_closure_draw_from_enclosing_adhoc_generator(self):
        source = ("import numpy as np\n"
                  "\n"
                  "\n"
                  "def install(sim):\n"
                  "    rng = np.random.default_rng(1)\n"
                  "\n"
                  "    def drop(frame):\n"
                  "        return rng.random() < 0.5\n"
                  "\n"
                  "    sim.drop_filter = drop\n")
        project = _project(source, "fixtures/closure.py")
        found = list(SubstreamDisciplineRule().check_project(project))
        assert [(f.rule, f.line) for f in found] == [("EFF006", 8)]
        assert "install.<locals>.drop draws" in found[0].message


class TestSqlHelpers:
    def test_mutation_detection(self):
        assert sql_is_mutation("UPDATE items SET state = 'x'")
        assert sql_is_mutation("  insert into meta VALUES (?)")
        assert not sql_is_mutation("SELECT * FROM items")
        assert not sql_is_mutation("BEGIN IMMEDIATE")

    def test_table_mention_is_word_scoped(self):
        assert sql_mentions_table("SELECT a FROM items", "items")
        assert not sql_mentions_table(
            "SELECT a FROM lineitems", "items")

    def test_updated_table(self):
        assert sql_updated_table(
            "UPDATE items SET x = 1") == "items"
        assert sql_updated_table("SELECT 1") is None


class TestLeadingLiteral:
    def _scope(self, source: str):
        project = _project(source, "src/demo/names.py")
        (qname,) = [q for q in project.effects.per_function
                    if not q.endswith("<module>")]
        return project.effects.per_function[qname].scope

    def test_folds_fstring_head_and_local_assignment(self):
        scope = self._scope(
            "def scope(name):\n"
            "    label = f\"vary.lhs.{name}\"\n"
            "    return label\n")
        node = scope.symbol.node.body[0].value
        assert leading_literal(scope, node) == "vary.lhs."

    def test_folds_concatenation(self):
        scope = self._scope(
            "def scope(name):\n"
            "    return \"fleet.\" + name\n")
        node = scope.symbol.node.body[0].value
        assert leading_literal(scope, node) == "fleet."

    def test_opaque_parameter_is_unknown(self):
        scope = self._scope(
            "def scope(name):\n"
            "    return name\n")
        node = scope.symbol.node.body[0].value
        assert leading_literal(scope, node) is None


class TestWorkQnamesResolve:
    """EFF005 keys on ``WORK_QNAMES``: a renamed entry point would
    silently switch the rule off, so every entry must name a real
    function of the ``src/`` project."""

    def test_every_work_qname_is_a_src_symbol(self):
        from repro.analysis.engine import discover_files
        from repro.analysis.interproc.effects import WORK_QNAMES
        from repro.analysis.interproc.symbols import build_symbol_table

        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        contexts = []
        for path in discover_files([src]):
            with open(path, "r", encoding="utf-8") as handle:
                contexts.append(_ctx(handle.read(), path))
        table = build_symbol_table(contexts)
        assert [qname for qname in WORK_QNAMES
                if qname not in table.functions] == []
