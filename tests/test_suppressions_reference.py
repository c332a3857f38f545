"""Differential tests: reading suppressions against the tokenize-every-
file version in :mod:`tests.reference.suppressions`.

:func:`repro.analysis.suppressions.parse_suppressions` skips the
tokenizer for a source that never mentions ``detlint``.  It must
return the same ``(by_line, problems)`` pair as the reference on every
file of the repository and on generated sources that put suppression
text in comments, typos and string literals; and the skip must stay
on, so ``lint_paths`` tokenizes only the files that mention detlint.
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import suppressions
from repro.analysis.engine import discover_files, lint_paths
from tests.reference import suppressions as ref

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Every Python file of the repository, plus the extension-less
#: launcher.
CORPUS = discover_files([
    os.path.join(ROOT, top)
    for top in ("src", "tests", "examples", "benchmarks", "bench")
]) + [os.path.join(ROOT, "tools", "detlint")]


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def assert_same(source, path="x.py"):
    assert suppressions.parse_suppressions(source, path) == \
        ref.parse_suppressions(source, path)


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.relpath(p, ROOT) for p in CORPUS])
def test_corpus_file_matches_reference(path):
    assert_same(read(path), os.path.relpath(path, ROOT))


def test_corpus_holds_live_suppressions():
    """The per-file comparison above is not vacuous.  The repository
    is kept free of malformed suppressions, so DET000 problems come
    from the generated sources below."""
    assert sum(len(ref.parse_suppressions(read(path), path)[0])
               for path in CORPUS) > 0


#: Top-level statements carrying suppression text in a comment:
#: valid, multi-rule, reason-less, unknown-id, empty-id, malformed,
#: and near-miss typos the mention check does or does not catch.
COMMENTS = [
    "x = 1  # detlint: ignore[DET003] -- a reason",
    "x = 1  # detlint: ignore[DET002,DET003] -- two rules",
    "# detlint: ignore[DET004] -- on its own line",
    "x = 1  # detlint: ignore[DET003]",
    "x = 1  # detlint: ignore[DET003] --   ",
    "x = 1  # detlint: ignore[DET999] -- retired id",
    "x = 1  # detlint: ignore[] -- no id",
    "x = 1  # detlint ignore[DET003] -- missing colon",
    "x = 1  # detlint: ignroe[DET003] -- misspelt",
    "x = 1  #detlint ignore",
    "x = 1  #   detlint",
    "x = 1  # detlnt: ignore[DET003] -- typo, not a mention",
    "x = 1  # detlinter: ignore[DET003] -- not a whole word",
    "x = 1  # see detlint: ignore[DET003] -- mid-comment",
    "call(\n    1,  # detlint: ignore[DET003] -- continuation\n)",
]

#: The same text where it is no comment: str, bytes, f-string,
#: docstring and multi-line literals.
LITERALS = [
    's = "# detlint: ignore[DET003] -- in a str"',
    "b = b'# detlint: ignore[DET999]'",
    'f = f"# detlint: {x!r} ignore[DET003] -- in an f-string"',
    '"""# detlint: ignore[DET003] -- a module docstring"""',
    'def g():\n    """#detlint ignore"""\n    return 1',
    's = """\n# detlint: ignore[DET003]\n"""',
    "s = r'#\\s*detlint\\b'",
]

#: Code that never mentions the linter.
PLAIN = [
    "x = 1",
    "# a plain comment",
    "def f(a, b):\n    return a + b  # add",
    's = "# not a directive"',
    "class C:\n    pass",
    "",
]

FRAGMENTS = COMMENTS + LITERALS + PLAIN

#: Free-form comments over an alphabet that spells the directive, its
#: typos and its punctuation.
def _comment_line(text):
    return "x = 1  # " + text


def _in_def(body):
    lines = "\n".join(body).split("\n")
    return "def h():\n" + "\n".join(
        "    " + line if line else line for line in lines) + "\n    pass"


def _module(parts):
    return "\n".join(parts) + "\n"


FREE_COMMENTS = st.text(alphabet="# detlinDEToignr[]0123456789,:-_\\b",
                        max_size=40).map(_comment_line)


def blocks(fragments):
    """A top-level fragment, or fragments nested in a def body."""
    fragment = st.sampled_from(fragments)
    nested = st.lists(fragment, min_size=1, max_size=4).map(_in_def)
    return st.one_of(fragment, nested)


def sources(fragments, free=True):
    block = blocks(fragments)
    if free:
        block = st.one_of(block, FREE_COMMENTS)
    return st.lists(block, max_size=8).map(_module)


@settings(deadline=None, max_examples=400)
@given(sources(FRAGMENTS))
def test_generated_source_matches_reference(source):
    ast.parse(source)
    assert_same(source)


@settings(deadline=None, max_examples=100)
@given(sources(PLAIN, free=False))
def test_source_without_mention_has_no_suppressions(source):
    assert "detlint" not in source
    assert suppressions.parse_suppressions(source, "x.py") == ({}, [])
    assert_same(source)


@pytest.mark.parametrize("source", [
    's = """# detlint: ignore[DET003] -- unterminated\n',
    "def f(:\n    pass  # detlint: ignore[DET003] -- bad syntax\n",
    "x = (1,\n# detlint: ignore[DET003] -- unclosed paren\n",
])
def test_unreadable_source_matches_reference(source):
    assert_same(source)


def test_lint_paths_tokenizes_only_files_that_mention_detlint(
        monkeypatch):
    """The skip stays on: linting ``src`` runs the tokenizer for
    suppressions once per file whose text contains ``detlint``."""
    src = os.path.join(ROOT, "src")
    mentions = sum("detlint" in read(path)
                   for path in discover_files([src]))
    calls = []
    generate_tokens = tokenize.generate_tokens

    def counting(readline):
        caller = sys._getframe(1).f_globals.get("__name__")
        if caller == suppressions.__name__:
            calls.append(caller)
        return generate_tokens(readline)

    monkeypatch.setattr(tokenize, "generate_tokens", counting)
    lint_paths([src])
    assert mentions > 0
    assert len(calls) == mentions
