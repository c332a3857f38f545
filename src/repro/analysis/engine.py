"""The linting engine: file discovery, rule dispatch, filtering.

:func:`lint_paths` is the single entry point used by the CLI, the
``tools/detlint`` script and the test suite.  It walks the given
files/directories in sorted order, parses each Python file once,
runs every selected per-file rule over the shared
:class:`ModuleContext`, then runs the *project* rules (the SCH, EFF
and FPR families) once over all parsed modules together, and finally
filters everything through statement-level suppressions.  The result
is fully deterministic: findings are sorted by (path, line, column,
rule) and paths are normalised to forward slashes, so the same tree
always produces the same report bytes on every platform.
"""

from __future__ import annotations

import ast
import dataclasses
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.registry import (
    expand_selection,
    family_summary,
    registered_project_rules,
    registered_rule_ids,
)
from repro.analysis.rules import (
    ModuleContext,
    Rule,
    all_rules,
    build_context,
)
from repro.analysis.schedule_rules import (
    ProjectRule,
    check_project_rules,
)
from repro.analysis.suppressions import (
    META_RULE,
    Suppression,
    apply_suppressions,
    parse_suppressions,
)


class UnknownRuleError(ValueError):
    """A --select/--ignore id that matches no registered rule.

    A usage error, not a lint finding: the CLI maps it to exit
    code 2 so CI can tell a typo'd rule id from real findings.
    """


@dataclasses.dataclass
class LintResult:
    """Everything one lint invocation produced."""

    #: Findings that gate (unsuppressed), in report order.
    findings: List[Finding]
    #: How many Python files were parsed and checked.
    files_checked: int
    #: Suppressions that silenced nothing (DET000 meta-findings with
    #: file+line; they gate too), listed on their own in the JSON
    #: artifact.
    unused_suppressions: List[Finding] = dataclasses.field(
        default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 when any finding gates."""
        return 1 if self.findings else 0


def discover_files(paths: Sequence[str]) -> List[str]:
    """Expand *paths* to a sorted list of ``.py`` files.

    Directories are walked recursively (``__pycache__``, hidden
    directories and non-Python files skipped); explicit file paths
    are taken as-is so fixtures with unusual names stay lintable.
    """
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d != "__pycache__" and not d.startswith("."))
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            out.append(path)
    return sorted(dict.fromkeys(normalise_path(p) for p in out))


def normalise_path(path: str) -> str:
    """Relative-to-cwd, forward-slash form of *path*."""
    try:
        rel = os.path.relpath(path)
    except ValueError:  # pragma: no cover - Windows drive mismatch
        rel = path
    if not rel.startswith(".."):
        path = rel
    return path.replace(os.sep, "/")


def module_name_for(path: str) -> str:
    """Best-effort dotted module name for allowlist matching.

    ``src/repro/sim/kernel.py`` maps to ``repro.sim.kernel``; paths
    outside a ``src`` root fall back to their path-derived dotted
    name, which deliberately never collides with the ``repro.*``
    allowlists (fixtures must face the strictest version of every
    rule).
    """
    parts = path.replace(os.sep, "/").split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__" and len(parts) > 1:
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    return ".".join(part for part in parts if part)


def _selected_rules(
        select: Optional[Iterable[str]],
        ignore: Optional[Iterable[str]],
) -> Tuple[List[Rule], List[ProjectRule]]:
    """(per-file rules, project rules) matching select/ignore.

    A bare family prefix ("FPR") in either list expands to every
    rule of that family; unknown ids, and a *select* that names no
    id at all, raise with the registry's family summary.
    """
    registered_project = registered_project_rules()
    known = set(registered_rule_ids())
    if select is None:
        chosen = set(known)
    else:
        chosen = expand_selection(list(select))
        if not chosen:
            raise UnknownRuleError(
                f"--select names no rule id; valid families are "
                f"{family_summary()}")
    dropped = expand_selection(list(ignore)) if ignore else set()
    unknown = sorted((chosen | dropped) - known - {META_RULE})
    if unknown:
        raise UnknownRuleError(
            f"unknown rule id(s): {', '.join(unknown)}; valid "
            f"families are {family_summary()}")
    wanted = chosen - dropped
    file_rules = [rule for rule in all_rules()
                  if rule.rule_id in wanted]
    project_rules = [rule for rule in registered_project
                     if rule.rule_id in wanted]
    return file_rules, project_rules


@dataclasses.dataclass
class _FileState:
    """One parsed file's raw findings, pre-suppression."""

    path: str
    ctx: Optional[ModuleContext]
    raw: List[Finding]
    suppressions: Dict[int, Suppression]
    problems: List[Finding]


def _check_file(source: str, path: str,
                rules: Sequence[Rule]) -> _FileState:
    """Parse *source* and run the per-file rules over it."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return _FileState(path=path, ctx=None, raw=[Finding(
            rule=META_RULE, path=path, line=error.lineno or 1,
            column=(error.offset or 0) + 1,
            message=f"syntax error: {error.msg}",
            snippet=(error.text or "").strip())],
            suppressions={}, problems=[])
    ctx = build_context(path, module_name_for(path), source, tree)
    raw: List[Finding] = []
    for rule in rules:
        if rule.exempt(ctx):
            continue
        raw.extend(rule.check(ctx))
    suppressions, problems = parse_suppressions(source, path)
    return _FileState(path=path, ctx=ctx, raw=raw,
                      suppressions=suppressions, problems=problems)


def _finalise(state: _FileState, extra: Sequence[Finding],
              active_rules: Optional[set] = None
              ) -> Tuple[List[Finding], List[Finding]]:
    """Apply suppressions to per-file plus project findings.

    Returns ``(findings, unused)``: the gating findings (the
    unused-suppression meta-findings included) plus the
    unused-suppression findings on their own, so the JSON report can
    list them with file+line.
    """
    if state.ctx is None:
        return sorted(state.raw, key=Finding.sort_key), []
    kept, unused = apply_suppressions(
        state.raw + list(extra), state.suppressions, state.path,
        state.ctx.lines, state.ctx.nodes, active_rules)
    findings = kept + state.problems + unused
    return sorted(findings, key=Finding.sort_key), \
        sorted(unused, key=Finding.sort_key)


def lint_source(source: str, path: str,
                rules: Optional[Sequence[Rule]] = None
                ) -> List[Finding]:
    """Lint one in-memory source text (the unit-test entry point).

    Runs the per-file rules only; project rules need the whole tree
    and run in :func:`lint_paths`.
    """
    path = normalise_path(path)
    active = rules if rules is not None else all_rules()
    state = _check_file(source, path, active)
    findings, _unused = _finalise(state, (),
                                  {rule.rule_id for rule in active})
    return findings


def lint_paths(paths: Sequence[str],
               select: Optional[Iterable[str]] = None,
               ignore: Optional[Iterable[str]] = None
               ) -> LintResult:
    """Lint every Python file under *paths*.

    *select* / *ignore* narrow the rule set by id.  Unknown rule ids
    (and a *select* that names none) raise :class:`UnknownRuleError`
    naming the valid families.

    Per-file rules run first, file by file; then the project rules
    (SCH, EFF and FPR families) run once over every successfully
    parsed module.  Suppressions are applied *after* both passes, so a
    suppression comment can silence a project finding and
    unused-suppression accounting sees the complete picture.
    """
    file_rules, project_rules = _selected_rules(select, ignore)
    files = discover_files(paths)
    states: List[_FileState] = []
    for path in files:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        states.append(_check_file(source, path, file_rules))
    contexts = [s.ctx for s in states if s.ctx is not None]
    grouped = check_project_rules(tuple(project_rules), contexts)
    active = {rule.rule_id for rule in file_rules} \
        | {rule.rule_id for rule in project_rules}
    findings: List[Finding] = []
    unused: List[Finding] = []
    for state in states:
        state_findings, state_unused = _finalise(
            state, grouped.get(state.path, []), active)
        findings.extend(state_findings)
        unused.extend(state_unused)
    findings.sort(key=Finding.sort_key)
    unused.sort(key=Finding.sort_key)
    return LintResult(findings=findings,
                      files_checked=len(files),
                      unused_suppressions=unused)


def count_by_rule(findings: Sequence[Finding]
                  ) -> List[Tuple[str, int]]:
    """(rule id, count) pairs, sorted by rule id."""
    counts: dict = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return sorted(counts.items())
