"""Every module in the package uses each name it imports, and every private
module-level name is read somewhere in the package.

Deleting code tends to leave an import or a private helper behind; this walks
each module's syntax tree with ast and fails on any imported name that is
never read, and on any module-level name with one leading underscore that no
module in the package reads. __init__.py is skipped for imports: its imports
are the package's public names. Last, a fresh interpreter checks that the CLI
does not load dataclasses, pathlib, typing, re or importlib.resources, whose
import every CLI call would pay, that no plain call of a subcommand loads
decimal or argparse, that json and csv load only for the commands that read or
write JSON or CSV, and that the set-up of every benchmark workload (the
modules, the bundled species, the default matrix and the Starling projectiles)
loads none of decimal, csv, importlib.resources, pathlib, typing or the
package's own file reader, birdstrike._table.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import birdstrike
from birdstrike.harness import build_test_matrix

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


def fresh_cli_imports(*argv: str, cwd=None) -> list[str]:
    """Modules a fresh `python -S -m birdstrike argv` imports, from -X importtime."""
    called = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "birdstrike", *argv],
        env=fresh_env(), cwd=cwd, capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert called.returncode == 0, called.stderr
    return [line.rsplit("|", 1)[1].strip() for line in called.stderr.splitlines()
            if line.startswith("import time:")]


def fresh_loads(code: str, names) -> list[str]:
    """Those of names in sys.modules after a fresh `python -S -c code`."""
    check = f"\nimport sys\nprint(*(name for name in {tuple(names)!r} if name in sys.modules))"
    called = subprocess.run([sys.executable, "-S", "-c", code + check], env=fresh_env(),
                            capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert called.returncode == 0, called.stderr
    return called.stdout.split()


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


def test_cli_import_loads_no_pathlib_typing_re_or_resources():
    # each is a stdlib import of one to several ms that no module-level code needs
    assert fresh_loads("import birdstrike.cli",
                       ("importlib.resources", "pathlib", "typing", "re")) == []


# The set-up of perfbench/worker.py's program_setup: its seven modules, then the
# bundled species, the default matrix and the Starling projectile set.
SETUP = """
from birdstrike import errors, species, materials, impact, kinematics, projectile, harness
registry = species.bundled_species_registry()
harness.build_test_matrix()
projectile.generate_projectile_set(species.find_species(registry, "Starling"))
"""


def test_setup_loads_no_decimal_csv_or_data_file_reader():
    # birdstrike._table, the package's file reader and writer, loads where a file is used
    assert fresh_loads(SETUP, ("decimal", "csv", "importlib.resources", "pathlib", "typing",
                               "birdstrike._table")) == []


BIRD = ("--mass", "0.085", "--length", "0.22", "--bird-density", "1230",
        "--aircraft-density", "2780", "--bird-speed", "22.35", "--angle", "90")


# argv, the modules it must load and those it must not load
JSON_AND_CSV = [
    (("check-cert", "--force", "10", "--case", "flock"), (), ("json", "csv")),
    (("force", *BIRD, "--aircraft-speed", "90"), (), ("json", "csv")),
    (("force-stationary", *BIRD), (), ("json", "csv")),
    (("drop-velocity", "--height", "2.8"), (), ("json", "csv")),
    (("plan", "--all"), (), ("json", "csv")),
    (("plan", "--all", "--format", "csv"), ("csv",), ("json",)),
    (("sweep", *BIRD, "--aircraft-speed", "90", "--param", "aircraft_speed", "--values", "0,10"),
     ("csv",), ("json",)),
    (("matrix",), ("json",), ()),
    (("design", "--species", "Starling"), ("json",), ("csv",)),
]


def call_id(argv) -> str:
    return f"{argv[0]}-{argv[-1]}" if "--format" in argv else argv[0]


@pytest.mark.parametrize("argv, loaded, unloaded", JSON_AND_CSV,
                         ids=[call_id(argv) for argv, _, _ in JSON_AND_CSV])
def test_json_and_csv_load_only_where_used(argv, loaded, unloaded):
    imported = set(fresh_cli_imports(*argv))
    assert "birdstrike.cli" in imported
    assert set(loaded) <= imported and not set(unloaded) & imported


ARGPARSE = {"argparse", "gettext", "locale"}
# A plain call of each subcommand; analyze reads the forces.csv the test writes.
PLAIN_CALLS = [argv for argv, _, _ in JSON_AND_CSV] + [("analyze", "--measurements", "forces.csv")]


def plain_call_imports(tmp_path, argv) -> set[str]:
    """The modules a fresh plain call imports, run in tmp_path beside a forces.csv."""
    forces = ["scenario_id,iteration,force_n"] + [
        f"{scenario.id},{n},19.5" for scenario in build_test_matrix().scenarios
        for n in range(1, scenario.iterations + 1)]
    (tmp_path / "forces.csv").write_text("\n".join(forces) + "\n", encoding="utf-8")
    imported = set(fresh_cli_imports(*argv, cwd=tmp_path))
    assert "birdstrike.cli" in imported
    return imported


@pytest.mark.parametrize("argv", PLAIN_CALLS, ids=[call_id(argv) for argv in PLAIN_CALLS])
def test_plain_call_does_not_load_argparse(tmp_path, argv):
    # argparse, with gettext and locale, costs a few ms of every call that is parsed by it
    assert not ARGPARSE & plain_call_imports(tmp_path, argv)


@pytest.mark.parametrize("argv", PLAIN_CALLS, ids=[call_id(argv) for argv in PLAIN_CALLS])
def test_plain_call_does_not_load_decimal(tmp_path, argv):
    # decimal, with numbers, costs about 2 ms of start-up; projectile sizing rounds in ints
    assert not {"decimal", "numbers"} & plain_call_imports(tmp_path, argv)


@pytest.mark.parametrize("argv", [("check-cert", "--help"),
                                  ("check-cert", "--forc", "10", "--case", "flock")],
                         ids=["help", "abbreviated"])
def test_declined_call_loads_argparse(argv):
    assert "argparse" in fresh_cli_imports(*argv)
