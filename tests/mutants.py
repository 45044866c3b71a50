"""Mutation testing for the birdstrike package, stdlib only.

A mutant is one edit at one source position of a module in src/birdstrike:
an arithmetic operator (+ and -, * and /, // to /, % to //, ** to *), a
comparison (< and <=, > and >=, == and !=, is and is not, in and not in), a
number (n to n + 1, or to n / 2 where n + 1 == n), a deleted `not`, `and` and
`or`, or `min` and `max`. Code inside f-strings is left alone. The checkout's
src/ and tests/ and its top-level files are copied to a work directory, one
copy per job, and each mutant is written there in turn: it runs against the
test files that import its module (the whole suite when none does) and, if it
survives those, against the whole suite. The checkout itself is never edited.

    python tests/mutants.py                       # every module
    python tests/mutants.py harness impact        # these modules
    python tests/mutants.py --list kinematics     # print the mutants, run none

Each survivor is printed as `path:line:col: edit`; the exit status is 1 when any
mutant survives, and 2 when the unmutated suite fails in the copy. A mutant
that does not compile is skipped, and one that runs past the time limit or the
address-space limit (MEMORY_MB) counts as killed. This file is not collected
by pytest (its name does not start with test_).
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "birdstrike"
MEMORY_MB = 2048  # address-space limit of each pytest run

BINARY = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
          ast.FloorDiv: ("//", "/"), ast.Mod: ("%", "//"), ast.Pow: ("**", "*")}
COMPARE = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
           ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"),
           ast.IsNot: ("is not", "is"), ast.In: ("in", "not in"), ast.NotIn: ("not in", "in")}
BOOLEAN = {ast.And: ("and", "or"), ast.Or: ("or", "and")}


class Mutant(NamedTuple):
    module: str  # file name in src/birdstrike
    line: int
    col: int
    start: int   # byte offsets of the replaced text in the module's source
    end: int
    new: bytes
    edit: str

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.new + source[self.end:]


def _token_pattern(token: str) -> str:
    if token[0].isalpha():
        return r"\b" + r"\s+".join(token.split()) + r"\b"
    # an operator not part of a longer one: * is not **, / is not //, < is not <=
    return r"(?<![*/<>=!])" + re.escape(token) + r"(?![*/<>=])"


def mutants_of(module: str, source: bytes) -> list[Mutant]:
    """Every mutant of one module's source, in source order."""
    tree = ast.parse(source)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(line: int, col: int) -> int:
        return starts[line - 1] + col

    found = []

    def add(start: int, end: int, new: str, line: int, col: int, edit: str) -> None:
        found.append(Mutant(module, line, col, start, end, new.encode(), edit))

    def in_gap(left: ast.AST, right: ast.AST, old: str, new: str) -> None:
        """Replace the token old between two nodes (the gap may hold parentheses,
        line breaks and comments)."""
        start = offset(left.end_lineno, left.end_col_offset)
        gap = source[start:offset(right.lineno, right.col_offset)].decode()
        code = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), gap)
        match = re.search(_token_pattern(old), code)
        if match:
            where = start + len(gap[:match.start()].encode())
            line = left.end_lineno + gap[:match.start()].count("\n")
            add(where, where + len(match.group().encode()), new, line,
                where - starts[line - 1], f"{old!r} -> {new!r}")

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.JoinedStr):  # f-string positions are not exact on every Python
            return
        if isinstance(node, ast.BinOp) and type(node.op) in BINARY:
            in_gap(node.left, node.right, *BINARY[type(node.op)])
        elif isinstance(node, ast.AugAssign) and type(node.op) in BINARY:
            old, new = BINARY[type(node.op)]
            in_gap(node.target, node.value, old + "=", new + "=")
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops,
                                       node.comparators):
                if type(op) in COMPARE:
                    in_gap(left, right, *COMPARE[type(op)])
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                in_gap(left, right, *BOOLEAN[type(node.op)])
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            start = offset(node.lineno, node.col_offset)
            end = start + len(re.match(rb"not\s*", source[start:]).group())
            add(start, end, "", node.lineno, node.col_offset, "delete 'not'")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("min", "max")):
            func = node.func
            new = "max" if func.id == "min" else "min"
            start = offset(func.lineno, func.col_offset)
            add(start, start + 3, new, func.lineno, func.col_offset, f"{func.id!r} -> {new!r}")
        elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
              and node.lineno == node.end_lineno):
            value = node.value
            new = value + 1 if value + 1 != value else value / 2
            start, end = offset(node.lineno, node.col_offset), offset(node.lineno,
                                                                      node.end_col_offset)
            add(start, end, repr(new), node.lineno, node.col_offset,
                f"{source[start:end].decode()} -> {new!r}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    original = ast.dump(tree)
    kept = []
    for mutant in sorted(found, key=lambda m: (m.start, m.edit)):
        try:
            changed = ast.dump(ast.parse(mutant.apply(source))) != original
        except SyntaxError:
            changed = False
        if changed:
            kept.append(mutant)
    return kept


def test_files_of(module: str) -> list[str]:
    """The test files that import the module by name (relative to the checkout)."""
    name = module[:-3]
    files = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_bytes())):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported = {node.module} | {f"{node.module}.{a.name}" for a in node.names}
            elif isinstance(node, ast.Import):
                imported = {alias.name for alias in node.names}
            else:
                continue
            if (f"birdstrike.{name}" in imported
                    or (name == "__init__" and any(i.startswith("birdstrike") for i in imported))):
                files.append(str(path.relative_to(ROOT)))
                break
    return files


def copy_checkout(into: Path) -> None:
    skip = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench", "build",
                                  "*.egg-info")
    into.mkdir(parents=True)
    for item in ROOT.iterdir():
        if item.is_file():
            shutil.copy2(item, into / item.name)
        elif item.name in ("src", "tests"):
            shutil.copytree(item, into / item.name, ignore=skip)


def run_pytest(tree: Path, targets: list[str], timeout: float) -> str:
    """'pass', 'fail' or 'timeout' for pytest over targets in the copied tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("BIRDSTRIKE_CONFIG", None)
    # The limit is set in the pytest process itself (and so holds for the interpreters
    # its tests start): preexec_fn is not safe with the job threads.
    code = ("import resource, sys, pytest\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_MB} << 20, {MEMORY_MB} << 20))\n"
            "sys.exit(pytest.main(sys.argv[1:]))")
    process = subprocess.Popen(
        [sys.executable, "-c", code, "-x", "-q", "-p", "no:cacheprovider", *targets],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        return "pass" if process.wait(timeout=timeout) == 0 else "fail"
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, 9)
        process.wait()
        return "timeout"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", help="module names (default: every module)")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at once (default 1)")
    parser.add_argument("--workdir", type=Path, help="where the copies go (default: a temp dir)")
    args = parser.parse_args(argv)

    names = args.modules or sorted(p.stem for p in (ROOT / PACKAGE).glob("*.py"))
    sources = {f"{name}.py": (ROOT / PACKAGE / f"{name}.py").read_bytes() for name in names}
    mutants = [m for module, source in sources.items() for m in mutants_of(module, source)]
    if args.list:
        for m in mutants:
            print(f"{PACKAGE / m.module}:{m.line}:{m.col}: {m.edit}")
        return 0

    work = Path(tempfile.mkdtemp(prefix="mutants-", dir=args.workdir))
    try:
        return run_all(mutants, sources, work, args.jobs)
    finally:
        shutil.rmtree(work)


def run_all(mutants: list[Mutant], sources: dict[str, bytes], work: Path, jobs: int) -> int:
    """Run every mutant in copies of the checkout under work; print and count the survivors."""
    trees = [work / f"job{j}" for j in range(max(1, jobs))]
    for tree in trees:
        copy_checkout(tree)
    started = time.monotonic()
    if run_pytest(trees[0], ["tests"], None) != "pass":
        print("the unmutated suite fails in the copy; nothing to compare", file=sys.stderr)
        return 2
    timeout = max(60.0, 5 * (time.monotonic() - started))
    print(f"{len(mutants)} mutants; suite takes {time.monotonic() - started:.0f} s", flush=True)

    files = {m.module: test_files_of(m.module) or ["tests"] for m in mutants}
    todo: queue.Queue = queue.Queue()
    for mutant in mutants:
        todo.put(mutant)
    outcomes = {"fail": 0, "timeout": 0, "pass": 0}
    survivors = []
    lock = threading.Lock()

    def work_on(tree: Path) -> None:
        while True:
            try:
                mutant = todo.get_nowait()
            except queue.Empty:
                return
            target, source = tree / PACKAGE / mutant.module, sources[mutant.module]
            target.write_bytes(mutant.apply(source))
            try:
                outcome = run_pytest(tree, files[mutant.module], timeout)
                if outcome == "pass" and files[mutant.module] != ["tests"]:
                    outcome = run_pytest(tree, ["tests"], timeout)
            finally:
                target.write_bytes(source)
            with lock:
                outcomes[outcome] += 1
                if outcome == "pass":
                    survivors.append(mutant)
                    print(f"survived {PACKAGE / mutant.module}:{mutant.line}:{mutant.col}: "
                          f"{mutant.edit}", flush=True)

    with ThreadPoolExecutor(len(trees)) as pool:
        for future in [pool.submit(work_on, tree) for tree in trees]:
            future.result()  # re-raises a job's error
    survivors.sort(key=lambda m: (m.module, m.start))
    print(f"{len(mutants)} mutants: {outcomes['fail']} killed, {outcomes['timeout']} timed out, "
          f"{len(survivors)} survived")
    for m in survivors:
        print(f"{PACKAGE / m.module}:{m.line}:{m.col}: {m.edit}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
