"""Every module in the package uses each name it imports, and every private
module-level name is read somewhere in the package.

Deleting code tends to leave an import or a private helper behind; this walks
each module's syntax tree with ast and fails on any imported name that is
never read, and on any module-level name with one leading underscore that no
module in the package reads. __init__.py is skipped for imports: its imports
are the package's public names. Last, a fresh interpreter checks that the CLI
does not load dataclasses, whose import every CLI call would pay, and that
`birdstrike matrix` does not load decimal.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import birdstrike

SOURCES = sorted(Path(birdstrike.__file__).parent.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level names with one leading underscore that no source reads.

    A name counts as read where it is loaded as a name or as an attribute
    (module._name) in any of the sources, its own module included.
    """
    defined, read = [], set()
    for filename, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            defined += [(filename, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{filename} line {line}: {name}" for filename, line, name in defined
            if name not in read]


def test_guard_sees_an_unread_private_name():
    sources = {
        "a.py": "_A = 1\n_B, _C = 2, 3\n__D = 4\ndef _f():\n    return _B\nclass _K: pass\n",
        "b.py": "import a\nfrom a import _K\n_K(a._C)\n",
    }
    assert unread_private_names(sources) == ["a.py line 1: _A", "a.py line 4: _f"]


def test_package_reads_every_private_name():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_private_names(sources) == []


def fresh_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key != "BIRDSTRIKE_CONFIG"}
    env["PYTHONPATH"] = str(Path(birdstrike.__file__).resolve().parent.parent)
    return env


def fresh_cli_imports(*argv: str) -> list[str]:
    """Modules a fresh `python -S -m birdstrike argv` imports, from -X importtime."""
    called = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "birdstrike", *argv],
        env=fresh_env(), capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert called.returncode == 0, called.stderr
    return [line.rsplit("|", 1)[1].strip() for line in called.stderr.splitlines()
            if line.startswith("import time:")]


def test_cli_does_not_load_dataclasses():
    # dataclasses (with inspect, ast and dis) cost about 10 ms of every CLI call's import
    loaded = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, birdstrike.cli; print('dataclasses' in sys.modules)"],
        env=fresh_env(), capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert (loaded.returncode, loaded.stdout) == (0, "False\n"), loaded.stderr
    imported = fresh_cli_imports("check-cert", "--force", "10", "--case", "flock")
    assert "birdstrike.cli" in imported and "dataclasses" not in imported


def test_matrix_does_not_load_decimal():
    # the default matrix is a constant table: only sizing projectiles needs decimal
    imported = fresh_cli_imports("matrix")
    assert "birdstrike.cli" in imported and "decimal" not in imported
