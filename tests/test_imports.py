"""Every module in the package uses each name it imports.

Deleting code tends to leave an import behind; this walks each module's
syntax tree with ast and fails on any imported name that is never read.
__init__.py is skipped: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import birdstrike

MODULES = sorted(path for path in Path(birdstrike.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_guard_sees_an_unused_import():
    assert unused_imports("import csv\nimport math\nfrom x import y as z\nmath.pi\n") == [
        "line 1: csv", "line 3: z"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
