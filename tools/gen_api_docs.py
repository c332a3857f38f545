#!/usr/bin/env python3
"""Generate docs/API.md from the package's docstrings.

Walks every module under ``repro``, collects the module docstring's
first paragraph plus its public classes/functions (with signatures and
summary lines), and writes a single browsable markdown reference.

Run:  python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import re
import sys

#: The memory address in a default value's repr (``<object object at
#: 0x7f...>``): it changes every run, so it is dropped.
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return ""
    paragraph = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def summary_line(doc: str | None) -> str:
    if not doc:
        return ""
    return doc.strip().splitlines()[0]


def public_members(module):
    names = getattr(module, "__all__", None)
    members = []
    for name, obj in inspect.getmembers(module):
        if name.startswith("_"):
            continue
        if names is not None and name not in names:
            continue
        if inspect.ismodule(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            members.append((name, obj))
    return members


def signature_of(obj) -> str:
    try:
        return _ADDRESS.sub("", str(inspect.signature(obj)))
    except (ValueError, TypeError):
        return "(...)"


def render() -> str:
    """The markdown text of ``docs/API.md``."""
    import repro

    out = ["# API reference", "",
           "Auto-generated by `tools/gen_api_docs.py`; regenerate after",
           "changing public APIs.", ""]
    modules = sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro."))
    for module_name in modules:
        module = importlib.import_module(module_name)
        out.append(f"## `{module_name}`")
        out.append("")
        intro = first_paragraph(module.__doc__)
        if intro:
            out.append(intro)
            out.append("")
        members = public_members(module)
        for name, obj in members:
            kind = "class" if inspect.isclass(obj) else "def"
            out.append(f"### `{kind} {name}{signature_of(obj)}`")
            out.append("")
            summary = summary_line(obj.__doc__)
            if summary:
                out.append(summary)
                out.append("")
            if inspect.isclass(obj):
                for method_name, method in inspect.getmembers(
                        obj, inspect.isfunction):
                    if method_name.startswith("_"):
                        continue
                    if method.__qualname__.split(".")[0] != obj.__name__:
                        continue
                    method_summary = summary_line(method.__doc__)
                    out.append(
                        f"- `{method_name}{signature_of(method)}`"
                        + (f" — {method_summary}" if method_summary
                           else ""))
                out.append("")
    return "\n".join(out) + "\n"


def main() -> None:
    text = render()
    target = pathlib.Path(__file__).parent.parent / "docs" / "API.md"
    target.parent.mkdir(exist_ok=True)
    target.write_text(text, encoding="utf-8")
    print(f"wrote {target} ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    sys.exit(main())
