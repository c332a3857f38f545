"""Static analysis of the testbed's determinism invariants.

``repro.analysis`` is *detlint*: a custom AST linter that machine-
checks the contracts the whole reproduction rests on -- the
serial == parallel == instrumented bit-identity that the campaign
engine, the fault matrix and the golden traces all assume.  The
identity *tests* catch a violation after the fact; detlint catches
the code patterns that cause them (a stray ``time.time()``, an
unseeded ``random`` draw, an unsorted ``set`` feeding a canonical
exporter) at review time, before any campaign runs.

Entry points:

* ``repro-testbed lint src/`` (CLI subcommand);
* ``tools/detlint src/`` (standalone script, same engine);
* :func:`lint_paths` (library API).

Four rule families share one engine (and one registry,
:mod:`repro.analysis.registry`): the per-file determinism rules
(DET001..DET008, DET006 retired into FPR002; ARCHITECTURE.md §10),
the interprocedural
schedule-race rules (SCH001..SCH003, §11), the effect-discipline
rules (EFF001..EFF008, §15) that check durable I/O, queue
transactions and RNG substream naming, and the fingerprint- and
serialization-discipline rules (FPR001..FPR008, §16) that prove
every config field reaches its fingerprint and survives the
``to_dict``/``from_dict`` round trip.  Per-statement suppressions
use ``# detlint: ignore[DET00x] -- reason``.
"""

from __future__ import annotations

from repro.analysis.effect_rules import (
    all_effect_rules,
    effect_rule_ids,
)
from repro.analysis.engine import (
    LintResult,
    UnknownRuleError,
    lint_paths,
)
from repro.analysis.findings import Finding
from repro.analysis.fingerprint_rules import (
    all_fingerprint_rules,
    fingerprint_rule_ids,
)
from repro.analysis.registry import (
    RuleFamily,
    registered_rule_ids,
    registered_rules,
    rule_families,
)
from repro.analysis.reporters import (
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.rules import Rule, all_rules, rule_ids

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "RuleFamily",
    "UnknownRuleError",
    "all_effect_rules",
    "all_fingerprint_rules",
    "all_rules",
    "effect_rule_ids",
    "fingerprint_rule_ids",
    "lint_paths",
    "registered_rule_ids",
    "registered_rules",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_families",
    "rule_ids",
]
