"""The single rule-family registry (DET / SCH / EFF / FPR).

Four rule families grew up in four modules; this registry is the one
place that lists them, so ``--list-rules``, the ``UnknownRuleError``
message, the ids a suppression may name, the SARIF ``rules``
block and CONTRIBUTING's triage tables all derive from the same
source.  Adding a fifth family is one entry in :data:`_FAMILIES` --
everything downstream picks it up.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Set, Tuple, Union

from repro.analysis.effect_rules import EffectRule, all_effect_rules
from repro.analysis.fingerprint_rules import (
    FingerprintRule,
    all_fingerprint_rules,
)
from repro.analysis.rules import Rule, all_rules
from repro.analysis.schedule_rules import (
    ProjectRule,
    all_project_rules,
)

#: Any registered rule object, per-file or project-wide.
AnyRule = Union[Rule, ProjectRule]


@dataclasses.dataclass(frozen=True)
class RuleFamily:
    """One rule family: its id prefix, scope and member rules."""

    #: Three-letter id prefix ("DET").
    prefix: str
    #: One-phrase subject for error messages and docs.
    subject: str
    #: How the family's rules run: "per-file" or "project".
    scope: str
    #: The member rules, sorted by rule id.
    rules: Tuple[AnyRule, ...]

    @property
    def span(self) -> str:
        """The id range ("DET001..DET008") for messages."""
        ids = self.rule_ids
        if len(ids) == 1:
            return ids[0]
        return f"{ids[0]}..{ids[-1]}"

    @property
    def rule_ids(self) -> Tuple[str, ...]:
        """The member rule ids, sorted."""
        return tuple(rule.rule_id for rule in self.rules)


def _family(prefix: str, subject: str, scope: str,
            rules: Sequence[AnyRule]) -> RuleFamily:
    ordered = tuple(sorted(rules, key=lambda rule: rule.rule_id))
    for rule in ordered:
        assert rule.rule_id.startswith(prefix), (prefix, rule.rule_id)
    return RuleFamily(prefix=prefix, subject=subject, scope=scope,
                      rules=ordered)


def rule_families() -> Tuple[RuleFamily, ...]:
    """Every registered family, in fixed DET/SCH/EFF/FPR order."""
    return (
        _family("DET", "per-file determinism", "per-file",
                all_rules()),
        _family("SCH", "schedule races", "project",
                all_project_rules()),
        _family("EFF", "effect discipline", "project",
                all_effect_rules()),
        _family("FPR", "fingerprint and serialization discipline",
                "project", all_fingerprint_rules()),
    )


#: The family prefixes, in registry order.
FAMILY_PREFIXES: Tuple[str, ...] = tuple(
    family.prefix for family in rule_families())


def registered_rules() -> List[AnyRule]:
    """Every rule of every family, sorted by rule id."""
    out: List[AnyRule] = []
    for family in rule_families():
        out.extend(family.rules)
    return sorted(out, key=lambda rule: rule.rule_id)


def registered_project_rules() -> List[ProjectRule]:
    """Every project-scoped rule (SCH + EFF + FPR), sorted by id."""
    out: List[ProjectRule] = []
    for family in rule_families():
        if family.scope == "project":
            out.extend(family.rules)  # type: ignore[arg-type]
    return sorted(out, key=lambda rule: rule.rule_id)


def registered_rule_ids() -> Tuple[str, ...]:
    """Every registered rule id, sorted."""
    return tuple(rule.rule_id for rule in registered_rules())


def family_summary() -> str:
    """"DET001..DET008 (per-file determinism), ..." for messages."""
    return ", ".join(f"{family.span} ({family.subject})"
                     for family in rule_families())


def expand_selection(ids: Sequence[str]) -> Set[str]:
    """Expand family prefixes in a --select/--ignore id list.

    A bare family prefix ("FPR") selects every rule of that family;
    full ids pass through untouched (including unknown ones -- the
    engine reports those with the family summary).
    """
    by_prefix = {family.prefix: family.rule_ids
                 for family in rule_families()}
    out: Set[str] = set()
    for rule_id in ids:
        expanded = by_prefix.get(rule_id)
        if expanded is not None:
            out.update(expanded)
        else:
            out.add(rule_id)
    return out


__all__ = [
    "FAMILY_PREFIXES",
    "AnyRule",
    "EffectRule",
    "FingerprintRule",
    "RuleFamily",
    "expand_selection",
    "family_summary",
    "registered_project_rules",
    "registered_rule_ids",
    "registered_rules",
    "rule_families",
]
