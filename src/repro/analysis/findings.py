"""The finding record every rule emits.

A :class:`Finding` pins a rule violation to a file and line.  Its
:meth:`fingerprint` deliberately excludes the line *number* (only the
rule, the path and the offending source line's text are hashed) so
the identity survives unrelated edits that shift the file: SARIF
``partialFingerprints`` and the JSON report's ``fingerprint`` field
carry it, and code scanning tracks a finding across rebases by it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Dict


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    column: int
    message: str
    #: The stripped source text of the offending line (fingerprint
    #: input; keeps the identity stable across line-number drift).
    snippet: str = ""

    def sort_key(self) -> Any:
        """Deterministic report order: path, line, column, rule."""
        return (self.path, self.line, self.column, self.rule)

    def fingerprint(self) -> str:
        """Line-number-insensitive identity (SARIF, JSON report)."""
        payload = f"{self.rule}|{self.path}|{self.snippet}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form (sorted by key name)."""
        return {
            "column": self.column,
            "fingerprint": self.fingerprint(),
            "line": self.line,
            "message": self.message,
            "path": self.path,
            "rule": self.rule,
            "snippet": self.snippet,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Finding":  # detlint: ignore[FPR002] -- 'fingerprint' is derived (sha256 of rule|path|snippet) and recomputed on demand; reading it back would let a stale digest shadow the content it no longer matches
        """Rebuild a finding serialised by :meth:`to_dict`."""
        return cls(
            rule=str(data["rule"]),
            path=str(data["path"]),
            line=int(data["line"]),
            column=int(data["column"]),
            message=str(data["message"]),
            snippet=str(data["snippet"]),
        )
