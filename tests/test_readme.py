"""The README's examples run as written.

The ```python block is executed in-process. Every `birdstrike ...` line of
the ```sh blocks (with its backslash continuations) runs, in order, as
`python -m birdstrike ...` in one temporary directory that already holds the
135-row forces.csv the analyze example reads; each must exit 0.
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

from birdstrike.harness import build_test_matrix

from fresh import fresh_env
from oracles import write_measurements

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.DOTALL | re.MULTILINE)


def cli_examples() -> list[list[str]]:
    """The arguments of each `birdstrike` command line in the sh blocks."""
    commands = []
    for block in code_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["birdstrike"]:
                commands.append(words[1:])
    return commands


def test_python_example_runs():
    (code,) = code_blocks("python")
    exec(compile(code, str(README), "exec"), {})


def test_cli_examples_exit_zero(tmp_path):
    rows = [(scenario.id, n, 19.5) for scenario in build_test_matrix().scenarios
            for n in range(1, scenario.iterations + 1)]
    assert len(rows) == 135
    write_measurements(tmp_path / "forces.csv", rows)
    commands = cli_examples()
    assert commands
    for args in commands:
        result = subprocess.run([sys.executable, "-m", "birdstrike", *args], cwd=tmp_path,
                                env=fresh_env(), capture_output=True, text=True,
                                encoding="utf-8", timeout=60)
        assert result.returncode == 0, (shlex.join(["birdstrike", *args]), result.stderr)
