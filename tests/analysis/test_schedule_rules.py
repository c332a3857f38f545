"""The SCH project rules and the interprocedural layer under them.

Fixture pairs pin each rule's positive/negative behaviour end to end
through :func:`lint_paths`; the unit tests below exercise the layer
directly -- symbol table, call graph, delay folding, taint chains and
the run-root (same-run) pairing proxy.
"""

from __future__ import annotations

import ast
import os

import pytest

from repro.analysis.engine import lint_paths, module_name_for
from repro.analysis.interproc.dataflow import tainted_functions
from repro.analysis.interproc.project import build_project
from repro.analysis.rules import build_context
from repro.analysis.schedule_rules import (
    SameTimeScheduleRule,
    _commensurable,
    all_project_rules,
    project_rule_ids,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: fixture -> exact (rule, line) findings it must produce.
EXPECTED = {
    "sch001_bad.py": [("SCH001", 19)],
    "sch001_good.py": [],
    "sch001_suppressed.py": [],
    "sch002_bad.py": [("SCH001", 20), ("SCH002", 20)],
    "sch002_good.py": [],
    "sch003_bad.py": [("DET002", 14), ("SCH003", 20),
                      ("SCH003", 23)],
    "sch003_good.py": [],
}


class TestFixturePairs:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_fixture_findings_are_exact(self, name):
        result = lint_paths([os.path.join(FIXTURES, name)])
        got = [(f.rule, f.line) for f in result.findings]
        assert got == EXPECTED[name]

    def test_sch001_message_names_both_sites_and_the_audit(self):
        result = lint_paths([os.path.join(FIXTURES,
                                          "sch001_bad.py")])
        (finding,) = result.findings
        assert "ties with" in finding.message
        assert "tie-audit" in finding.message
        # Both site ids use the runtime path:line format.
        assert finding.message.count("sch001_bad.py:") >= 2

    def test_sch_rules_are_registered(self):
        assert project_rule_ids() == ("SCH001", "SCH002", "SCH003")
        assert [r.rule_id for r in all_project_rules()] == \
            ["SCH001", "SCH002", "SCH003"]
        assert all(r.title and r.rationale
                   for r in all_project_rules())

    def test_select_can_narrow_to_a_project_rule(self):
        result = lint_paths([FIXTURES], select=["SCH003"])
        assert {f.rule for f in result.findings} == {"SCH003"}

    def test_ignore_can_drop_a_project_rule(self):
        result = lint_paths([FIXTURES], ignore=["SCH001"])
        assert "SCH001" not in {f.rule for f in result.findings}


def _ctx(source: str, path: str):
    tree = ast.parse(source)
    return build_context(path, module_name_for(path), source, tree)


DEVICES = '''\
from repro.sim.kernel import Simulator

DT = 0.01


class Sensor:
    PERIOD = 0.02

    def __init__(self, sim):
        self.sim = sim
        sim.schedule(DT, self._tick)

    def _tick(self):
        self.sim.schedule(DT, self._tick)


class Logger:
    def __init__(self, sim, period=0.02):
        self.sim = sim
        self.period = period
        sim.schedule(self.period, self._flush)

    def _flush(self):
        self.sim.schedule(self.period, self._flush)


def build():
    sim = Simulator()
    return Sensor(sim), Logger(sim)
'''


class TestInterprocLayer:
    def _project(self, source=DEVICES, path="src/demo/devices.py"):
        return build_project([_ctx(source, path)])

    def test_symbol_table_indexes_classes_and_constants(self):
        project = self._project()
        table = project.symbols
        assert "demo.devices.Sensor" in table.classes
        assert table.constants["demo.devices.DT"] == 0.01
        cls = table.classes["demo.devices.Sensor"]
        assert cls.constant("PERIOD") == 0.02
        assert cls.method("_tick") == "demo.devices.Sensor._tick"

    def test_call_graph_resolves_methods_and_callbacks(self):
        project = self._project()
        graph = project.callgraph
        # The builder's Simulator() call resolves through the import
        # even though the kernel is outside the linted tree.
        assert "repro.sim.kernel.Simulator" in \
            graph.callees("demo.devices.build")
        # Callback references are edges: _tick is reachable.
        assert "demo.devices.Sensor._tick" in project.reachable

    def test_delay_folding_constant_and_init_default(self):
        project = self._project()
        by_caller = {site.caller: site for site in project.sites}
        tick = by_caller["demo.devices.Sensor._tick"]
        assert tick.periodic
        assert tick.callback == "demo.devices.Sensor._tick"
        assert tick.delay.kind == "constant"
        assert tick.delay.value == 0.01
        assert tick.delay.origin == "demo.devices.DT"
        # self.period folds through the defaulted __init__ parameter.
        flush = by_caller["demo.devices.Logger._flush"]
        assert flush.delay.kind == "constant"
        assert flush.delay.value == 0.02
        assert flush.delay.origin == "demo.devices.Logger.period"

    def test_delay_folding_survives_cyclic_assignments(self):
        # wake -> last -> wake: folding must stop, not recurse forever.
        source = ("class Watcher:\n"
                  "    PERIOD = 0.001\n"
                  "\n"
                  "    def __init__(self, sim):\n"
                  "        self.sim = sim\n"
                  "        sim.schedule(self.PERIOD, self._wake)\n"
                  "\n"
                  "    def _wake(self):\n"
                  "        wake = self.sim.now + self.PERIOD\n"
                  "        while wake < 1.0:\n"
                  "            last = wake\n"
                  "            wake = last + self.PERIOD\n"
                  "        self.sim.schedule_at(wake, self._wake)\n")
        project = build_project([_ctx(source, "src/demo/watch.py")])
        by_caller = {site.caller: site for site in project.sites}
        wake = by_caller["demo.watch.Watcher._wake"]
        assert wake.callback == "demo.watch.Watcher._wake"
        assert wake.delay.kind == "unknown"

    def test_run_roots_mark_the_builder(self):
        project = self._project()
        roots = project.caller_roots["demo.devices.Sensor._tick"]
        assert "demo.devices.build" in roots

    def test_argument_callables_are_reference_edges(self):
        source = ("def _on_scan():\n"
                  "    return 1\n"
                  "\n"
                  "\n"
                  "def _on_tick():\n"
                  "    return 2\n"
                  "\n"
                  "\n"
                  "def wire(bus):\n"
                  "    bus.attach(_on_tick, publish=_on_scan)\n"
                  "\n"
                  "\n"
                  "wire(None)\n")
        project = build_project([_ctx(source, "src/demo/wiring.py")])
        graph = project.callgraph
        assert graph.callees("demo.wiring.wire") == (
            "demo.wiring._on_scan", "demo.wiring._on_tick")
        assert {"demo.wiring._on_scan", "demo.wiring._on_tick"} <= \
            graph.callback_targets
        assert graph.callees("demo.wiring.<module>") == (
            "demo.wiring.wire",)
        assert "demo.wiring.wire" not in graph.callback_targets

    def test_one_scope_per_body_shared_class_attr_types(self):
        source = ("class Radio:\n"
                  "    def send(self):\n"
                  "        return 1\n"
                  "\n"
                  "\n"
                  "class Node:\n"
                  "    def __init__(self):\n"
                  "        self.radio = Radio()\n"
                  "\n"
                  "    def tick(self):\n"
                  "        def later():\n"
                  "            return self.radio.send()\n"
                  "        return later\n")
        project = build_project([_ctx(source, "src/demo/scoped.py")])
        scopes = project.scopes
        assert list(scopes) == sorted(project.symbols.functions) + \
            ["demo.scoped.<module>"]
        init = scopes["demo.scoped.Node.__init__"]
        tick = scopes["demo.scoped.Node.tick"]
        # Class-wide self.attr types: one map for every method.
        assert init.attr_types is tick.attr_types
        assert tick.attr_types == {"radio": "demo.scoped.Radio"}
        # A nested def is not part of its parent's body.
        assert not [n for n in tick.nodes if isinstance(n, ast.Call)]
        assert project.callgraph.callees("demo.scoped.Node.tick") == ()
        # Body nodes come in source order; the module body holds the
        # class statements but none of the code inside their defs.
        positions = [(n.lineno, n.col_offset) for n in init.nodes
                     if hasattr(n, "lineno")]
        assert positions == sorted(positions)
        module = scopes["demo.scoped.<module>"].nodes
        assert [n.name for n in module
                if isinstance(n, ast.ClassDef)] == ["Radio", "Node"]
        assert not [n for n in module if isinstance(n, ast.Call)]
        # The closure is a scope of its own; it keeps its class, so
        # self resolves as in a method.
        later = scopes["demo.scoped.Node.tick.<locals>.later"]
        assert later.cls is tick.cls
        assert project.callgraph.callees(later.symbol.qname) == (
            "demo.scoped.Radio.send",)

    def test_taint_propagates_with_a_via_chain(self):
        source = ("import time\n"
                  "\n"
                  "\n"
                  "def _skew():\n"
                  "    return _inner()\n"
                  "\n"
                  "\n"
                  "def _inner():\n"
                  "    return time.time()\n")
        project = build_project([_ctx(source, "src/demo/skew.py")])
        taints = tainted_functions(project.symbols,
                                   project.callgraph)
        assert taints["demo.skew._inner"] == \
            "wall clock (time.time)"
        assert taints["demo.skew._skew"] == \
            "via demo.skew._inner: wall clock (time.time)"


TWO_SCENARIOS = '''\
from repro.sim.kernel import Simulator


class A:
    def __init__(self, sim):
        self.sim = sim
        sim.schedule(0.01, self._tick)

    def _tick(self):
        self.sim.schedule(0.01, self._tick)


class B:
    def __init__(self, sim):
        self.sim = sim
        sim.schedule(0.01, self._tick)

    def _tick(self):
        self.sim.schedule(0.01, self._tick)


def scenario_a():
    sim = Simulator()
    return A(sim)


def scenario_b():
    sim = Simulator()
    return B(sim)


def run_both():
    return scenario_a(), scenario_b()
'''


class TestSameRunProxy:
    def test_separate_simulators_never_pair(self):
        # run_both executes both scenarios, but each constructs its
        # own Simulator: identical periods must not cross-pair.
        project = build_project(
            [_ctx(TWO_SCENARIOS, "src/demo/two.py")])
        rule = SameTimeScheduleRule()
        assert list(rule.check_project(project)) == []

    def test_shared_simulator_pairs(self):
        shared = TWO_SCENARIOS.replace(
            "def scenario_a():\n"
            "    sim = Simulator()\n"
            "    return A(sim)\n"
            "\n"
            "\n"
            "def scenario_b():\n"
            "    sim = Simulator()\n"
            "    return B(sim)\n"
            "\n"
            "\n"
            "def run_both():\n"
            "    return scenario_a(), scenario_b()\n",
            "def run_both():\n"
            "    sim = Simulator()\n"
            "    return A(sim), B(sim)\n")
        assert "scenario_a" not in shared  # replace really fired
        project = build_project([_ctx(shared, "src/demo/two.py")])
        rule = SameTimeScheduleRule()
        findings = list(rule.check_project(project))
        assert findings
        assert all(f.rule == "SCH001" for f in findings)


class TestCommensurability:
    def test_small_rational_ratios_tie(self):
        assert _commensurable(0.005, 0.002) == (5, 2)
        assert _commensurable(0.01, 0.01) == (1, 1)
        assert _commensurable(0.1, 0.05) == (2, 1)

    def test_incommensurable_grids_do_not_tie(self):
        assert _commensurable(1.0 / 15.0, 0.002) is None

    def test_zero_period_is_rejected(self):
        assert _commensurable(0.1, 0.0) is None
