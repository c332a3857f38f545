"""Per-rule fixture tests: every rule fires on its positive fixture
and stays silent on its negative one."""

from __future__ import annotations

import ast
import os

import pytest

from repro.analysis.engine import (
    lint_paths,
    lint_source,
    module_name_for,
)
from repro.analysis.rules import (
    PoolBoundaryRule,
    all_rules,
    build_context,
    resolve_target,
    rule_ids,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: rule id -> how many findings its positive fixture must produce.
EXPECTED_BAD = {
    "DET001": 5,
    "DET002": 3,
    "DET003": 3,
    "DET004": 1,
    "DET005": 2,
    "DET007": 4,
    "DET008": 2,
}


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def lint_fixture(name: str):
    return lint_paths([fixture_path(name)])


class TestFixturePairs:
    @pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD))
    def test_bad_fixture_fires_only_its_rule(self, rule_id):
        name = f"det{rule_id[3:]}_bad.py"
        result = lint_fixture(name)
        assert result.files_checked == 1
        assert result.findings, f"{name} produced no findings"
        assert {f.rule for f in result.findings} == {rule_id}
        assert len(result.findings) == EXPECTED_BAD[rule_id]

    @pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD))
    def test_good_fixture_is_clean_under_every_rule(self, rule_id):
        name = f"det{rule_id[3:]}_good.py"
        result = lint_fixture(name)
        assert result.files_checked == 1
        assert result.findings == []

    def test_findings_are_sorted_and_carry_snippets(self):
        result = lint_fixture("det001_bad.py")
        keys = [f.sort_key() for f in result.findings]
        assert keys == sorted(keys)
        assert all(f.snippet for f in result.findings)
        assert all(f.line > 0 and f.column > 0
                   for f in result.findings)


class TestAllowlists:
    def test_det001_exempt_in_randomness_module(self):
        source = "import random\nVALUE = random.random()\n"
        in_factory = lint_source(
            source, "src/repro/sim/randomness.py")
        elsewhere = lint_source(source, "src/repro/net/phy.py")
        assert [f.rule for f in in_factory] == []
        assert [f.rule for f in elsewhere] == ["DET001"]

    def test_det002_fires_under_obs_package(self):
        # DET002 has no allowlisted module: the observability package
        # records sim time only, so a host-clock read there is flagged
        # like anywhere else.
        source = ("import time\n"
                  "def stamp():\n"
                  "    return time.time()\n")
        for path in ("src/repro/obs/context.py", "src/repro/obs/wall.py",
                     "src/repro/sim/kernel.py"):
            assert [f.rule for f in lint_source(source, path)] == \
                ["DET002"], path

    def test_det002_det004_allowlist_no_module(self):
        rules = {rule.rule_id: rule for rule in all_rules()}
        assert rules["DET002"].allowed_modules == ()
        assert rules["DET004"].allowed_modules == ()

    def test_det004_fires_under_obs_package(self):
        source = ("class Stats:\n"
                  "    def __init__(self):\n"
                  "        self.total = 0.0\n"
                  "    def merge(self, other):\n"
                  "        self.total += other.total\n")
        for path in ("src/repro/obs/spans.py", "src/repro/net/phy.py"):
            assert [f.rule for f in lint_source(source, path)] == \
                ["DET004"], path

    def test_taint_exempts_only_the_substream_factory(self):
        from repro.analysis.interproc.dataflow import TAINT_EXEMPT_MODULES

        assert TAINT_EXEMPT_MODULES == ("repro.sim.randomness",)

    def test_obs_package_reads_no_host_clock(self):
        obs_dir = os.path.join(os.path.dirname(__file__), os.pardir,
                               os.pardir, "src", "repro", "obs")
        result = lint_paths([obs_dir], select=["DET002", "DET004"])
        assert result.files_checked > 0
        assert result.findings == []

    def test_fixture_paths_never_match_repro_allowlists(self):
        assert not module_name_for(
            fixture_path("det001_bad.py")).startswith("repro.")


class TestPoolBoundaryFrozen:
    RULE = PoolBoundaryRule()

    def _check(self, source: str, module: str):
        tree = ast.parse(source)
        ctx = build_context("x.py", module, source, tree)
        return list(self.RULE.check(ctx))

    def test_unfrozen_boundary_dataclass_flagged(self):
        source = ("import dataclasses\n"
                  "@dataclasses.dataclass\n"
                  "class Plan:\n"
                  "    name: str = ''\n")
        found = self._check(source, "repro.faults.plan")
        assert [f.rule for f in found] == ["DET008"]
        assert "frozen" in found[0].message

    def test_frozen_boundary_dataclass_clean(self):
        source = ("import dataclasses\n"
                  "@dataclasses.dataclass(frozen=True)\n"
                  "class Plan:\n"
                  "    name: str = ''\n")
        assert self._check(source, "repro.faults.plan") == []

    def test_non_boundary_module_not_frozen_checked(self):
        source = ("import dataclasses\n"
                  "@dataclasses.dataclass\n"
                  "class Row:\n"
                  "    name: str = ''\n")
        assert self._check(source, "repro.obs.metrics") == []


class TestPoolBoundaryReceivers:
    """DET008 checks ``submit``/``map`` only on what is, or may be, a
    process pool."""

    def _lines(self, source: str):
        tree = ast.parse(source)
        ctx = build_context("x.py", "x", source, tree)
        return [f.line for f in PoolBoundaryRule().check(ctx)]

    def test_hypothesis_strategies_are_not_pools(self):
        source = ("from hypothesis import strategies as st\n"
                  "EVEN = st.integers().map(lambda n: 2 * n)\n"
                  "NEG = EVEN.map(lambda n: -n)\n"
                  "def pairs():\n"
                  "    return NEG.map(lambda n: (n, n))\n")
        assert self._lines(source) == []

    def test_thread_pool_is_not_a_process_pool(self):
        source = ("from concurrent.futures import ThreadPoolExecutor\n"
                  "def run(seeds):\n"
                  "    with ThreadPoolExecutor() as pool:\n"
                  "        return list(pool.map(lambda s: s, seeds))\n")
        assert self._lines(source) == []

    def test_process_pools_are_flagged(self):
        source = ("import concurrent.futures\n"
                  "import multiprocessing\n"
                  "def run(seeds, executor):\n"
                  "    with concurrent.futures.ProcessPoolExecutor() as a:\n"
                  "        a.map(lambda s: s, seeds)\n"
                  "    b = multiprocessing.get_context('spawn').Pool()\n"
                  "    b.map(lambda s: s, seeds)\n"
                  "    multiprocessing.Pool().map(lambda s: s, seeds)\n"
                  "    executor.submit(lambda: 0)\n"
                  "    self_pool.submit(lambda: 0)\n")
        assert self._lines(source) == [5, 7, 8, 9, 10]

    def test_the_latest_binding_above_the_call_counts(self):
        source = ("import concurrent.futures\n"
                  "from hypothesis import strategies as st\n"
                  "def run(seeds):\n"
                  "    pool = st.integers()\n"
                  "    pool.map(lambda s: s)\n"
                  "    pool = concurrent.futures.ProcessPoolExecutor()\n"
                  "    pool.map(lambda s: s, seeds)\n")
        assert self._lines(source) == [7]

    def test_repo_reports_only_the_positive_fixture(self):
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        result = lint_paths(
            [os.path.join(root, name) for name in
             ("src", "tests", "examples", "benchmarks", "bench")],
            select=["DET008"])
        assert sorted((os.path.relpath(f.path, root), f.line)
                      for f in result.findings) == [
            (os.path.join("tests", "analysis", "fixtures",
                          "det008_bad.py"), 11),
            (os.path.join("tests", "analysis", "fixtures",
                          "det008_bad.py"), 13)]


class TestScopePartition:
    SOURCE = ("class C:\n"
              "    def m(self):\n"
              "        def inner():\n"
              "            return 1\n"
              "        return inner\n"
              "\n"
              "\n"
              "def f(flag):\n"
              "    if flag:\n"
              "        def g():\n"
              "            return 1\n"
              "    else:\n"
              "        def g():\n"
              "            return 2\n"
              "    return g\n")

    def test_every_node_but_the_module_sits_in_one_body(self):
        tree = ast.parse(self.SOURCE)
        ctx = build_context("x.py", "x", self.SOURCE, tree)
        assert [(b.qualname, b.cls) for b in ctx.bodies] == [
            ("", None), ("C.m", "C"), ("C.m.<locals>.inner", "C"),
            ("f", None), ("f.<locals>.g", None),
            ("f.<locals>.g@13", None)]
        walked = [node for node in ast.walk(tree) if node is not tree]
        assert sorted(map(id, ctx.nodes)) == sorted(map(id, walked))
        # A def binds in the body around it; its own nodes are its.
        inner = ctx.bodies[2]
        assert inner.node in ctx.bodies[1].nodes
        assert inner.node not in inner.nodes
        assert ctx.bodies[1].local_def("inner", 5) is inner

    def test_pool_submission_of_an_enclosing_defs_closure(self):
        source = ("def run_all(pool, seeds):\n"
                  "    def run_one(seed):\n"
                  "        return seed\n"
                  "\n"
                  "    def submit_all():\n"
                  "        return [pool.submit(run_one, s) for s in seeds]\n"
                  "\n"
                  "    return submit_all()\n")
        tree = ast.parse(source)
        ctx = build_context("x.py", "x", source, tree)
        found = list(PoolBoundaryRule().check(ctx))
        assert [(f.rule, f.line) for f in found] == [("DET008", 6)]


class TestEngineMechanics:
    def test_syntax_error_becomes_det000(self):
        findings = lint_source("def broken(:\n", "x.py")
        assert [f.rule for f in findings] == ["DET000"]
        assert "syntax error" in findings[0].message

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="DET999"):
            lint_paths([fixture_path("det001_good.py")],
                       select=["DET999"])

    def test_select_narrows_to_one_rule(self):
        result = lint_paths([FIXTURES], select=["FPR002"])
        assert {f.rule for f in result.findings} == {"FPR002"}

    def test_ignore_drops_a_rule(self):
        result = lint_paths([FIXTURES], ignore=["DET001"])
        assert "DET001" not in {f.rule for f in result.findings}

    def test_directory_discovery_is_deterministic(self):
        first = lint_paths([FIXTURES])
        second = lint_paths([FIXTURES])
        assert [f.to_dict() for f in first.findings] == \
            [f.to_dict() for f in second.findings]
        assert first.files_checked == second.files_checked

    def test_module_name_for(self):
        assert module_name_for("src/repro/sim/kernel.py") == \
            "repro.sim.kernel"
        assert module_name_for("src/repro/obs/__init__.py") == \
            "repro.obs"
        assert module_name_for("tests/analysis/fixtures/x.py") == \
            "tests.analysis.fixtures.x"

    def test_resolve_target_follows_aliases(self):
        source = ("import numpy as np\n"
                  "from time import perf_counter\n"
                  "x = np.random.default_rng(1)\n"
                  "y = perf_counter()\n")
        tree = ast.parse(source)
        ctx = build_context("x.py", "x", source, tree)
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)]
        targets = sorted(
            t for t in (resolve_target(ctx, call.func)
                        for call in calls) if t)
        assert targets == ["numpy.random.default_rng",
                           "time.perf_counter"]

    def test_rule_ids_are_the_seven_documented(self):
        assert rule_ids() == tuple(sorted(EXPECTED_BAD))
