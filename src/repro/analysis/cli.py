"""The detlint command line (shared by two entry points).

``repro-testbed lint`` and the standalone ``tools/detlint`` script
both build their argument parser from :func:`add_arguments` and
execute through :func:`run`, so flags and behaviour can never drift
apart.

Exit codes: 0 clean, 1 findings, 2 usage errors (argparse, unknown
rule ids *and* an empty ``--select``: a typo'd ``--select`` must read
as a broken invocation in CI, never as a clean lint).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.engine import UnknownRuleError, lint_paths
from repro.analysis.registry import family_summary
from repro.analysis.reporters import (
    render_json,
    render_rules_text,
    render_sarif,
    render_text,
)


def _rule_list(text: str) -> List[str]:
    return [chunk.strip() for chunk in text.split(",")
            if chunk.strip()]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the detlint flags on *parser*."""
    parser.add_argument("paths", nargs="*", default=["src/"],
                        metavar="PATH",
                        help="files or directories to lint "
                             "(default: src/)")
    parser.add_argument("--format",
                        choices=("text", "json", "sarif"),
                        default="text",
                        help="report format (default: text)")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="also write the JSON report to FILE "
                             "(the CI artifact path)")
    parser.add_argument("--sarif-output", default=None,
                        metavar="FILE",
                        help="also write the SARIF report to FILE "
                             "(the CI code-scanning upload)")
    parser.add_argument("--select", type=_rule_list, default=None,
                        metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--ignore", type=_rule_list, default=None,
                        metavar="IDS",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")


def run(args: argparse.Namespace) -> int:
    """Execute one lint invocation described by parsed *args*."""
    if args.list_rules:
        sys.stdout.write(render_rules_text())
        return 0
    try:
        result = lint_paths(args.paths, select=args.select,
                            ignore=args.ignore)
    except UnknownRuleError as error:
        print(f"detlint: error: {error}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as error:
        raise SystemExit(f"detlint: error: {error}") from error
    if args.format == "json":
        report = render_json(result)
    elif args.format == "sarif":
        report = render_sarif(result)
    else:
        report = render_text(result)
    sys.stdout.write(report)
    if args.output is not None:
        # The artifact is always the JSON form, whatever is printed.
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(render_json(result))
    if args.sarif_output is not None:
        with open(args.sarif_output, "w", encoding="utf-8") as handle:
            handle.write(render_sarif(result))
    return result.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``tools/detlint``)."""
    parser = argparse.ArgumentParser(
        prog="detlint",
        description=f"AST determinism linter for the repro testbed "
                    f"({family_summary()}; see ARCHITECTURE.md "
                    f"§10-§11, §15-§16)")
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - module execution
    sys.exit(main())
