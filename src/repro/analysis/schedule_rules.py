"""The schedule-race rule family (SCH001..SCH003).

Where the DET rules are per-file pattern checks, the SCH rules are
*project* rules: they run once over the whole linted tree, on top of
the :mod:`repro.analysis.interproc` layer (symbol table, call graph,
delay dataflow).  Their subject is the DES kernel's one soft spot --
same-timestamp event ties.  Two periodic loops whose periods are
commensurable *will* fire at identical sim-times, and whichever hidden
ordering the calendar queue gives them becomes load-bearing unless the
code is written to be order-invariant (the catch-up discipline) or the
tie is audited benign (the ``tie-audit`` workflow).

========  ==========================================================
SCH001    two reachable periodic schedule sites with commensurable
          statically-known periods: they fire at identical
          sim-times, so their relative order is a hidden input
SCH002    the callbacks of a tied pair share mutable instance state
          (one writes what the other touches): the tie is not just
          temporal, it races on data
SCH003    a schedule delay computed from wall clock or unseeded
          randomness, found *through* the call graph -- the
          interprocedural strengthening of DET001/DET002
========  ==========================================================

Every finding names both halves of the race by ``path:line`` site id,
the same ids the runtime :class:`~repro.sim.tie_audit.TieAudit`
records, so a static SCH001 pair can be confirmed or refuted
empirically with ``repro-testbed tie-audit``.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.interproc.project import ProjectContext
from repro.analysis.interproc.sites import ScheduleSite
from repro.analysis.rules import ModuleContext

#: A pair of periods ties when their ratio is a small rational: the
#: loops then share a common fire time every few cycles.  The bound
#: keeps incommensurable grids (15 fps vs a 2 ms integrator) out.
_MAX_RATIO = 16


class ProjectRule:
    """Base class: one project-wide invariant, machine-checked."""

    rule_id: str = "SCH999"
    title: str = ""
    rationale: str = ""

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        """Yield every violation in *project*."""
        raise NotImplementedError  # pragma: no cover - interface

    def finding(self, project: ProjectContext, path: str, line: int,
                column: int, message: str) -> Finding:
        """A :class:`Finding` anchored at an explicit location."""
        snippet = ""
        ctx = _context_for(project, path)
        if ctx is not None and 0 < line <= len(ctx.lines):
            snippet = ctx.lines[line - 1].strip()
        return Finding(rule=self.rule_id, path=path, line=line,
                       column=column, message=message,
                       snippet=snippet)


def _context_for(project: ProjectContext,
                 path: str) -> Optional[ModuleContext]:
    for ctx in project.contexts:
        if ctx.path == path:
            return ctx
    return None


def _periodic_sites(project: ProjectContext) -> List[ScheduleSite]:
    """Reachable periodic re-arm sites with known positive periods."""
    out = []
    for site in project.sites:
        if not site.periodic:
            continue
        if site.caller not in project.reachable:
            continue
        if not site.delay.known or site.delay.value is None \
                or site.delay.value <= 0.0:
            continue
        out.append(site)
    return out


def _commensurable(a: float, b: float) -> Optional[Tuple[int, int]]:
    """(num, den) of the reduced period ratio, when small enough.

    Periods are folded through their shortest decimal repr so that
    e.g. 0.005 / 0.002 reduces to exactly 5/2 (the floats involved
    are decimal literals in source); irrational-looking ratios (1/15
    vs 0.002) produce huge numerators and are rejected.
    """
    try:
        ratio = Fraction(repr(a)) / Fraction(repr(b))
    except (ValueError, ZeroDivisionError):
        return None
    if ratio.numerator <= _MAX_RATIO and \
            ratio.denominator <= _MAX_RATIO:
        return (ratio.numerator, ratio.denominator)
    return None


def _tied_pairs(project: ProjectContext
                ) -> List[Tuple[ScheduleSite, ScheduleSite, str]]:
    """All distinct tied site pairs with a human-readable why."""
    sites = _periodic_sites(project)
    pairs: List[Tuple[ScheduleSite, ScheduleSite, str]] = []
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            assert a.delay.value is not None
            assert b.delay.value is not None
            # Two sites can only tie on one simulator when a single
            # entry point assembles both (same-run proxy).
            roots_a = project.caller_roots.get(a.caller, set())
            roots_b = project.caller_roots.get(b.caller, set())
            if not roots_a & roots_b:
                continue
            if a.delay.origin and a.delay.origin == b.delay.origin:
                why = (f"both periods come from the shared constant "
                       f"{a.delay.origin} = {a.delay.value:g}s")
            else:
                ratio = _commensurable(a.delay.value, b.delay.value)
                if ratio is None:
                    continue
                num, den = ratio
                if num == 1 and den == 1:
                    why = (f"identical periods "
                           f"({a.delay.value:g}s)")
                else:
                    why = (f"periods {a.delay.value:g}s and "
                           f"{b.delay.value:g}s align every "
                           f"{num}:{den} cycles")
            pairs.append((a, b, why))
    return pairs


class SameTimeScheduleRule(ProjectRule):
    """Commensurable periodic loops share fire times."""

    rule_id = "SCH001"
    title = "periodic schedule sites tied on the same sim-times"
    rationale = (
        "Two periodic loops with commensurable periods fire at "
        "identical sim-times, so the kernel's tie-break order -- an "
        "implementation accident, not part of the model -- decides "
        "which callback runs first.  Make the interaction "
        "order-invariant (the catch-up discipline), or verify the "
        "tie is benign with repro-testbed tie-audit and suppress "
        "with the audit as the written reason.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        # One finding per anchor site (the earlier half of each
        # pair), listing every partner, so one suppression comment
        # with one written reason covers one site's whole tie set.
        grouped: Dict[str, List[Tuple[ScheduleSite, ScheduleSite,
                                      str]]] = {}
        for a, b, why in _tied_pairs(project):
            grouped.setdefault(a.site_id, []).append((a, b, why))
        for site_id in sorted(grouped):
            pairs = grouped[site_id]
            a = pairs[0][0]
            shown = [f"{b.site_id} ({why})" for _, b, why in pairs[:3]]
            more = len(pairs) - len(shown)
            partners = "; ".join(shown)
            if more > 0:
                partners += f"; and {more} more"
            yield self.finding(
                project, a.path, a.line, a.column,
                f"periodic schedule site {a.site_id} (callback "
                f"{_callback_name(a)}) ties with {partners} -- these "
                f"callbacks run at the same sim-times in tie-break "
                f"order; make the interaction order-invariant or "
                f"tie-audit it")


def _callback_name(site: ScheduleSite) -> str:
    return site.callback or "<unresolved callback>"


def _self_attr_accesses(nodes: List[ast.AST]
                        ) -> Tuple[Set[str], Set[str]]:
    """(reads, writes) of ``self.<attr>`` inside one function body."""
    reads: Set[str] = set()
    writes: Set[str] = set()
    for sub in nodes:
        if isinstance(sub, ast.Attribute) and \
                isinstance(sub.value, ast.Name) and sub.value.id == "self":
            if isinstance(sub.ctx, (ast.Store, ast.Del)):
                writes.add(sub.attr)
            else:
                reads.add(sub.attr)
        # Mutating method calls on an attribute (self.log.append(...))
        # count as writes to the attribute.
        elif isinstance(sub, ast.Call) and \
                isinstance(sub.func, ast.Attribute) and \
                sub.func.attr in ("append", "add", "update", "pop",
                                  "extend", "remove", "clear",
                                  "setdefault") and \
                isinstance(sub.func.value, ast.Attribute) and \
                isinstance(sub.func.value.value, ast.Name) and \
                sub.func.value.value.id == "self":
            writes.add(sub.func.value.attr)
    return reads, writes


class SharedStateTieRule(ProjectRule):
    """Tied callbacks racing on shared mutable state."""

    rule_id = "SCH002"
    title = "tied schedule sites race on shared mutable state"
    rationale = (
        "When the callbacks of a tied pair live on the same object "
        "and one writes an attribute the other touches, the "
        "tie-break order decides the data the loser sees: a real "
        "read/write race on the simulated timeline.  Split the "
        "state, make the reader pull (catch-up), or de-alias the "
        "periods.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        for a, b, _why in _tied_pairs(project):
            if a.callback is None or b.callback is None:
                continue
            fa = project.symbols.functions.get(a.callback)
            fb = project.symbols.functions.get(b.callback)
            if fa is None or fb is None:
                continue
            if fa.cls is None or fb.cls is None:
                continue
            if fa.module != fb.module or fa.cls != fb.cls:
                continue
            if fa.qname == fb.qname:
                continue
            reads_a, writes_a = _self_attr_accesses(fa.nodes)
            reads_b, writes_b = _self_attr_accesses(fb.nodes)
            raced = sorted((writes_a & (reads_b | writes_b))
                           | (writes_b & (reads_a | writes_a)))
            # The re-arm plumbing itself is not shared state.
            raced = [attr for attr in raced if attr not in ("sim",)]
            if not raced:
                continue
            yield self.finding(
                project, a.path, a.line, a.column,
                f"tied sites {a.site_id} and {b.site_id} race on "
                f"shared mutable state: {fa.cls}."
                f"{', '.join(raced)} is written by one callback "
                f"and touched by the other at the same sim-times")


class TaintedDelayRule(ProjectRule):
    """Schedule delays must be deterministic, transitively."""

    rule_id = "SCH003"
    title = "schedule delay derived from wall clock or global RNG"
    rationale = (
        "A delay computed from time.time() or the global random "
        "state -- directly or through any helper on the call path "
        "-- makes the event timeline differ between runs and hosts, "
        "which no tie-break policy can repair.  DET001/DET002 catch "
        "the banned call at its own site; SCH003 follows the value "
        "to the schedule site that consumes it.")

    def check_project(self, project: ProjectContext
                      ) -> Iterator[Finding]:
        for site in project.sites:
            if site.caller not in project.reachable:
                continue
            reason: Optional[str] = None
            if site.delay.kind == "tainted":
                reason = site.delay.origin
            else:
                for callee in site.delay_calls:
                    chain = project.taints.get(callee)
                    if chain is not None:
                        reason = f"{callee}: {chain}"
                        break
            if reason is None:
                continue
            yield self.finding(
                project, site.path, site.line, site.column,
                f"schedule delay at {site.site_id} is derived from "
                f"{reason}; delays must be pure functions of the "
                f"scenario and seeded substreams")


_PROJECT_RULES: Tuple[ProjectRule, ...] = (
    SameTimeScheduleRule(),
    SharedStateTieRule(),
    TaintedDelayRule(),
)


def all_project_rules() -> Tuple[ProjectRule, ...]:
    """Every registered project rule, in rule-id order."""
    return tuple(sorted(_PROJECT_RULES, key=lambda r: r.rule_id))


def project_rule_ids() -> Tuple[str, ...]:
    """The registered project rule ids, sorted."""
    return tuple(rule.rule_id for rule in all_project_rules())


def check_project_rules(rules: Tuple[ProjectRule, ...],
                        contexts: List[ModuleContext],
                        ) -> Dict[str, List[Finding]]:
    """Run *rules* over *contexts*, findings grouped by path."""
    from repro.analysis.interproc.project import build_project

    grouped: Dict[str, List[Finding]] = {}
    if not rules or not contexts:
        return grouped
    project = build_project(contexts)
    for rule in rules:
        for finding in rule.check_project(project):
            grouped.setdefault(finding.path, []).append(finding)
    return grouped
