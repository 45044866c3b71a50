"""Every module in the package uses each name it imports, every private
module-level name is read somewhere in the package, and each CLI call loads
only the modules it uses.

Deleting code tends to leave an import or a private helper behind; this walks
each module's syntax tree with ast and fails on any imported name that is
never read, and on any module-level name with one leading underscore that no
module in the package reads. __init__.py is skipped for imports: its imports
are the package's public names.

Last, fresh interpreters check what is imported; each call runs once, and the
tests of what it loads read that one run. `import birdstrike.cli` loads none
of the modules that some call can skip, nor pathlib, typing, re or
importlib.resources. PLAIN_CALLS is the CLI's import contract: for a plain call
of each subcommand, the modules it must load and those it must not. The file
layer (birdstrike._table, csv and json) loads only where CSV or JSON is read or
written, and no plain call loads argparse, decimal or dataclasses. The set-up of every benchmark workload (the modules,
the bundled species, the default matrix and the Starling projectiles) loads
none of decimal, csv, importlib.resources, pathlib, typing or birdstrike._table.
A call that the flag table declines (--help, an abbreviated flag) loads argparse.
"""

import ast
import functools
import subprocess
import sys
from pathlib import Path

import pytest

import birdstrike
from birdstrike.harness import build_test_matrix

from fresh import fresh_env
from oracles import write_measurements

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


def fresh_cli_imports(*argv: str, cwd=None) -> list[str]:
    """Modules a fresh `python -S -m birdstrike argv` imports, from -X importtime."""
    called = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "birdstrike", *argv],
        env=fresh_env(), cwd=cwd, capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert called.returncode == 0, called.stderr
    return [line.rsplit("|", 1)[1].strip() for line in called.stderr.splitlines()
            if line.startswith("import time:")]


def fresh_loads(code: str, names) -> list[str]:
    """Those of names in sys.modules after a fresh `python -S -c code`, which must exit 0
    and print nothing to stderr."""
    check = f"\nimport sys\nprint(*(name for name in {tuple(names)!r} if name in sys.modules))"
    called = subprocess.run([sys.executable, "-S", "-c", code + check], env=fresh_env(),
                            capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert (called.returncode, called.stderr) == (0, ""), called.stderr
    return called.stdout.split()


# The modules that the plain-call table below keeps out of some call: each is a stdlib
# import of one to several ms (dataclasses, with inspect, ast and dis, about 10 ms), or the
# package's file layer.
CLI_IMPORT_SKIPS = ("dataclasses", "decimal", "numbers", "argparse", "gettext", "locale",
                    "csv", "json", "birdstrike._table")
# Stdlib imports of one to several ms that no module-level code of the CLI needs.
CLI_IMPORT_STDLIB_SKIPS = ("importlib.resources", "pathlib", "typing", "re")


@functools.cache
def cli_import_loads() -> frozenset[str]:
    """Those of the skips above that a fresh `import birdstrike.cli` loads: one run that
    both tests of the import read."""
    return frozenset(fresh_loads("import birdstrike.cli",
                                 CLI_IMPORT_SKIPS + CLI_IMPORT_STDLIB_SKIPS))


def test_cli_import_loads_no_module_a_call_can_skip():
    assert set(CLI_IMPORT_SKIPS) & cli_import_loads() == set()


def test_cli_import_loads_no_pathlib_typing_re_or_resources():
    assert set(CLI_IMPORT_STDLIB_SKIPS) & cli_import_loads() == set()


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
CSV_FILE, JSON_FILE = ("csv", "birdstrike._table"), ("json", "birdstrike._table")
NO_FILE = ("csv", "json", "birdstrike._table")

# The CLI's import contract: a plain call of each subcommand, the modules it must load and
# those it must not load. analyze reads the forces.csv the test writes.
PLAIN_CALLS = [
    (("check-cert", "--force", "10", "--case", "flock"), (), NO_FILE),
    (("force", *BIRD, "--aircraft-speed", "90"), (), NO_FILE),
    (("force-stationary", *BIRD), (), NO_FILE),
    (("drop-velocity", "--height", "2.8"), (), NO_FILE),
    (("plan", "--all"), (), NO_FILE),
    (("plan", "--all", "--format", "csv"), CSV_FILE, ("json",)),
    (("sweep", *BIRD, "--aircraft-speed", "90", "--param", "aircraft_speed", "--values", "0,10"),
     CSV_FILE, ("json",)),
    (("matrix",), JSON_FILE, ("csv",)),
    (("design", "--species", "Starling"), JSON_FILE, ("csv",)),
    (("analyze", "--measurements", "forces.csv"), CSV_FILE, ("json",)),
]

def call_id(argv) -> str:
    return f"{argv[0]}-{argv[-1]}" if "--format" in argv else argv[0]


@pytest.fixture(scope="module")
def plain_call_imports(tmp_path_factory):
    """The modules a plain call imports, from one fresh run of it beside a forces.csv; the
    tests of each call read that one run."""
    cwd = tmp_path_factory.mktemp("plain-calls")
    write_measurements(cwd / "forces.csv", [
        (scenario.id, n, 19.5) for scenario in build_test_matrix().scenarios
        for n in range(1, scenario.iterations + 1)])
    return functools.cache(lambda argv: frozenset(fresh_cli_imports(*argv, cwd=cwd)))


PLAIN_IDS = [call_id(argv) for argv, _, _ in PLAIN_CALLS]


@pytest.mark.parametrize("argv, loaded, unloaded", PLAIN_CALLS, ids=PLAIN_IDS)
def test_json_and_csv_load_only_where_used(plain_call_imports, argv, loaded, unloaded):
    imported = plain_call_imports(argv)
    assert ({"birdstrike.cli", *loaded} - imported, set(unloaded) & imported) == (set(), set())


@pytest.mark.parametrize("argv", [argv for argv, _, _ in PLAIN_CALLS], ids=PLAIN_IDS)
def test_plain_call_does_not_load_argparse(plain_call_imports, argv):
    # argparse, with gettext and locale, costs a few ms: the flag table parses a plain call
    assert not {"argparse", "gettext", "locale"} & plain_call_imports(argv)


@pytest.mark.parametrize("argv", [argv for argv, _, _ in PLAIN_CALLS], ids=PLAIN_IDS)
def test_plain_call_does_not_load_decimal(plain_call_imports, argv):
    # decimal, with numbers, costs about 2 ms of start-up; projectile sizing rounds in ints
    assert not {"decimal", "numbers"} & plain_call_imports(argv)


def test_cli_does_not_load_dataclasses(plain_call_imports):
    assert [call_id(argv) for argv, _, _ in PLAIN_CALLS
            if "dataclasses" in plain_call_imports(argv)] == []


@pytest.mark.parametrize("argv", [("check-cert", "--help"),
                                  ("check-cert", "--forc", "10", "--case", "flock")],
                         ids=["help", "abbreviated"])
def test_declined_call_loads_argparse(argv):
    assert "argparse" in fresh_cli_imports(*argv)
