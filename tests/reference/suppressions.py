"""Reference oracle for reading detlint suppression comments.

A verbatim copy of :func:`repro.analysis.suppressions.parse_suppressions`
and its ``_comments`` helper as they were while every source was run
through the pure-Python tokenizer, whether it mentioned the linter or
not.  The only departure: the ``Suppression`` record, the DET000 id
and the known rule ids come from the live module rather than being
redefined, so the two sides compare equal record for record.

Used by the differential test ``tests/test_suppressions_reference.py``.
Do not optimise this file: its value is being the old,
obviously-correct code.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, List, Tuple

from repro.analysis.findings import Finding
from repro.analysis.suppressions import (
    _KNOWN_RULE_IDS, META_RULE, Suppression)

#: Matches the whole suppression comment, capturing rules and reason.
_SUPPRESS_RE = re.compile(
    r"#\s*detlint:\s*ignore\[(?P<rules>[^\]]*)\]"
    r"(?:\s*--\s*(?P<reason>.*))?")

#: Anything that merely *mentions* the linter in a comment -- used
#: to catch typos (a missing colon, a misspelt ``ignore``) that
#: would otherwise silently fail to suppress.
_MENTION_RE = re.compile(r"#\s*detlint\b")


def parse_suppressions(
        source: str, path: str) -> Tuple[Dict[int, Suppression],
                                         List[Finding]]:
    """Parse every suppression comment in *source*.

    Returns ``(by_line, problems)``: the valid suppressions keyed by
    physical line number (1-based), and DET000 findings for malformed
    ones (missing reason, unknown rule id, unparsable syntax).
    """
    by_line: Dict[int, Suppression] = {}
    problems: List[Finding] = []
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
    reports the syntax error separately.
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
