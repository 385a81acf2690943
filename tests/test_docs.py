"""The README's code snippets import only names the package has."""

from __future__ import annotations

import ast
import importlib
import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _repro_imports() -> "list[tuple[str, str | None]]":
    """``(module, name)`` for every ``from repro… import name`` and
    ``(module, None)`` for every ``import repro…`` in README.md's fenced
    python blocks."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    found = []
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                found += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "repro"]
    return found


def test_readme_has_repro_imports():
    assert len(_repro_imports()) >= 9


@pytest.mark.parametrize("module,name", _repro_imports())
def test_readme_import_resolves(module, name):
    mod = importlib.import_module(module)
    if name is not None and not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")  # ``from package import submodule``
