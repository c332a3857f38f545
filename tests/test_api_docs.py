"""``tools/gen_api_docs.py`` renders ``docs/API.md`` the same on every
run: a default value's repr carries no memory address."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "gen_api_docs.py"


def test_rendered_signatures_carry_no_memory_address():
    spec = importlib.util.spec_from_file_location("gen_api_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    text = module.render()
    assert "at 0x" not in text
    # Field's sentinel default and SceneObject's lambda defaults,
    # which rendered with their addresses.
    assert "default: 'Any' = <object object>" in text
    assert "<function SceneObject.<lambda>>" in text
