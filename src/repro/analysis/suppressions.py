"""Statement-level suppressions: ``# detlint: ignore[DET003] -- reason``.

A suppression silences the named rule(s) on the *logical statement*
it appears on: a comment anywhere on a multi-line call (the opening
line, a continuation line, or after the closing parenthesis) covers
findings anchored to any physical line of that statement.  Comments
on their own line keep exact per-line semantics, so a stray
suppression can never blanket a whole block.  The grammar is
deliberately strict -- every suppression must name at least one rule
id *and* give a reason after ``--`` -- so the codebase never
accumulates bare, unexplained escapes.  Malformed comments and
suppressions that silenced nothing are themselves reported under the
meta-rule :data:`META_RULE` (DET000), which keeps the suppression
inventory honest.

Only a source whose text contains ``detlint`` is tokenized.  Every
comment this module acts on must match :data:`_MENTION_RE`, and a
comment token is a slice of the source, so a source without the word
has no suppression and no malformed one: skipping the tokenizer there
returns exactly what tokenizing it would.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.registry import registered_rule_ids

#: The meta-rule id for malformed or unused suppressions.
META_RULE = "DET000"

#: Matches the whole suppression comment, capturing rules and reason.
_SUPPRESS_RE = re.compile(
    r"#\s*detlint:\s*ignore\[(?P<rules>[^\]]*)\]"
    r"(?:\s*--\s*(?P<reason>.*))?")

#: Anything that merely *mentions* the linter in a comment -- used
#: to catch typos (a missing colon, a misspelt ``ignore``) that
#: would otherwise silently fail to suppress.
_MENTION_RE = re.compile(r"#\s*detlint\b")

#: The ids a suppression may name: exactly the registered rules, so
#: a comment naming a retired or misspelt id is reported instead of
#: silently suppressing nothing.
_KNOWN_RULE_IDS = frozenset(registered_rule_ids())

#: Compound statements never define a suppression span: a comment
#: inside an ``if`` body must not silence the whole block.
_COMPOUND_STMTS = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
    ast.If, ast.For, ast.AsyncFor, ast.While,
    ast.With, ast.AsyncWith, ast.Try,
)


def statement_spans(nodes: Iterable[ast.AST]
                    ) -> Dict[int, Tuple[int, int]]:
    """line -> (first, last) physical line of its simple statement.

    Only *multi-line simple statements* (a call split over several
    lines, a parenthesised assignment...) get spans; single-line
    statements and compound-statement bodies keep per-line
    semantics.
    """
    spans: Dict[int, Tuple[int, int]] = {}
    for node in nodes:
        if not isinstance(node, ast.stmt) or \
                isinstance(node, _COMPOUND_STMTS):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        if end <= node.lineno:
            continue
        for line in range(node.lineno, end + 1):
            spans[line] = (node.lineno, end)
    return spans


@dataclasses.dataclass(frozen=True)
class Suppression:
    """One parsed suppression comment."""

    line: int
    rules: Tuple[str, ...]
    reason: str


def parse_suppressions(
        source: str, path: str) -> Tuple[Dict[int, Suppression],
                                         List[Finding]]:
    """Parse every suppression comment in *source*.

    Returns ``(by_line, problems)``: the valid suppressions keyed by
    physical line number (1-based), and DET000 findings for malformed
    ones (missing reason, unknown rule id, unparsable syntax).
    A source that never mentions ``detlint`` returns ``({}, [])``
    without being tokenized (exact: see the module docstring).
    """
    by_line: Dict[int, Suppression] = {}
    problems: List[Finding] = []
    if "detlint" not in source:
        return by_line, problems
    for lineno, column, text in _comments(source):
        if not _MENTION_RE.search(text):
            continue
        snippet = text.strip()
        match = _SUPPRESS_RE.search(text)
        if match is None:
            problems.append(Finding(
                rule=META_RULE, path=path, line=lineno,
                column=column + 1,
                message=("unparsable detlint comment; expected "
                         "'# detlint: ignore[DET00x] -- reason'"),
                snippet=snippet))
            continue
        rules = tuple(r.strip() for r in
                      match.group("rules").split(",") if r.strip())
        reason = (match.group("reason") or "").strip()
        bad = [r for r in rules if r not in _KNOWN_RULE_IDS]
        if not rules or bad:
            problems.append(Finding(
                rule=META_RULE, path=path, line=lineno,
                column=column + 1,
                message=(f"invalid rule id(s) {bad or ['(none)']} in "
                         f"suppression: unknown rule id (see "
                         f"detlint --list-rules)"),
                snippet=snippet))
            continue
        if not reason:
            problems.append(Finding(
                rule=META_RULE, path=path, line=lineno,
                column=column + 1,
                message=("suppression must give a reason: "
                         "'# detlint: ignore[...] -- why'"),
                snippet=snippet))
            continue
        by_line[lineno] = Suppression(line=lineno, rules=rules,
                                      reason=reason)
    return by_line, problems


def _comments(source: str) -> List[Tuple[int, int, str]]:
    """(line, column, text) of every comment token in *source*.

    Tokenising (rather than scanning raw lines) keeps suppression
    syntax inside docstrings and string literals -- like the examples
    in this very module -- from being parsed as live suppressions.
    Unterminated sources fall back to no comments; the engine
    reports the syntax error separately.  The pure-Python tokenizer
    is the costliest step of reading suppressions, so
    :func:`parse_suppressions` calls this only for sources that
    contain ``detlint``.
    """
    out: List[Tuple[int, int, str]] = []
    try:
        tokens = tokenize.generate_tokens(
            io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                out.append((token.start[0], token.start[1],
                            token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    return out


def apply_suppressions(
        findings: List[Finding],
        by_line: Dict[int, Suppression],
        path: str,
        lines: List[str],
        nodes: Optional[Iterable[ast.AST]] = None,
        active_rules: Optional[Set[str]] = None,
) -> Tuple[List[Finding], List[Finding]]:
    """Filter *findings* through the suppression table.

    When the module's *nodes* are given, a suppression on any physical line of a
    multi-line simple statement covers findings anchored anywhere in
    that statement (a ``schedule(...)`` call split over four lines
    can carry its suppression on whichever line reads best).

    Returns ``(kept, unused)``: the findings that survived, plus
    DET000 findings for suppressions that silenced nothing (stale
    escapes should be deleted, not carried).  When *active_rules* is
    given, a suppression naming a rule that did not run this pass is
    never reported unused -- a narrowed ``--select`` must not flag
    every suppression for the rules it skipped.
    """
    spans = statement_spans(nodes) if nodes is not None else {}
    used: Set[int] = set()
    kept: List[Finding] = []
    for finding in findings:
        start, end = spans.get(finding.line,
                               (finding.line, finding.line))
        matched = None
        for lineno in range(start, end + 1):
            suppression = by_line.get(lineno)
            if (suppression is not None
                    and finding.rule in suppression.rules):
                matched = lineno
                break
        if matched is not None:
            used.add(matched)
        else:
            kept.append(finding)
    unused: List[Finding] = []
    for lineno, suppression in sorted(by_line.items()):
        if lineno in used:
            continue
        if active_rules is not None and \
                not all(r in active_rules for r in suppression.rules):
            continue
        snippet = (lines[lineno - 1].strip()
                   if 0 < lineno <= len(lines) else "")
        unused.append(Finding(
            rule=META_RULE, path=path, line=lineno, column=1,
            message=(f"unused suppression for "
                     f"{', '.join(suppression.rules)}: nothing on "
                     f"this statement triggers it (delete the "
                     f"comment)"),
            snippet=snippet))
    return kept, unused
