"""Self-check of the benchmark itself (not of birdstrike).

    python3 perfbench/selfcheck.py

1. BENCHMARK.json has the required shape and limits.
2. The exact counts (kinematics.drag_fall_distance.calls_per_solve,
   harness.TestMatrix.scenario.calls_per_row, materials.find_material.calls)
   repeat bit for bit: each workload's traced run is made twice with one seed
   and once with another, and the three figures must be identical.
3. In a directory holding only BENCHMARK.json and the benchmark's files, the
   command exits non-zero without printing a result.

Exits 0 when every check passes. Takes a few minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = ("kinematics.drag_fall_distance.calls_per_solve",
                "harness.TestMatrix.scenario.calls_per_row",
                "materials.find_material.calls")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys {sorted(spec)}")
    if not (1 <= len(spec["paths"]) <= 16 and all(
            PATH.fullmatch(p) and not p.startswith("/") and ".." not in p.split("/")
            for p in spec["paths"])):
        problems.append("paths")
    command = spec["command"]
    if not (1 <= len(command) <= 32 and all(len(part) <= 200 for part in command)):
        problems.append("command")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds")
    names = []
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("number of workloads")
    for workload in spec["workloads"]:
        names.append(workload["name"])
        if set(workload) != {"name", "why"} or not 0 < len(workload["why"]) <= 200 \
                or "\n" in workload["why"]:
            problems.append(f"workload {workload['name']}")
    for section, limit, metric_keys in (("end_to_end", 16, {"name", "unit", "better", "bound"}),
                                        ("per_layer", 128, {"name", "unit", "better"})):
        if not 1 <= len(spec[section]) <= limit:
            problems.append(f"number of {section} metrics")
        for metric in spec[section]:
            names.append(metric["name"])
            if set(metric) != metric_keys or not UNIT.fullmatch(metric["unit"]) \
                    or metric["better"] not in ("lower", "higher"):
                problems.append(f"{section} metric {metric['name']}")
            if section == "end_to_end" and not 0 < metric["bound"] <= 0.25:
                problems.append(f"bound of {metric['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s")
    problems += [f"name {n}" for n in names if not NAME.fullmatch(n)]
    if len(names) != len(set(names)):
        problems.append("duplicate names")
    return problems


def run(command: list[str], cwd: Path) -> tuple[int, str]:
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = [f"BENCHMARK.json: {p}" for p in check_spec(spec)]

    for workload in (w["name"] for w in spec["workloads"]):
        seen = []
        for seed in (1, 1, 2):
            code, stdout = run(spec["command"] + ["--workload", workload, "--seed", str(seed),
                                                  "--seconds", "2", "--trace", "1"], ROOT)
            result = last_json(stdout)
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{workload} seed {seed}: traced run failed (exit {code})")
                break
            seen.append(tuple(result["metrics"][name]["value"] for name in EXACT_COUNTS))
        if len(set(seen)) > 1:
            failures.append(f"{workload}: exact counts differ between runs: {seen}")
        print(f"{workload}: exact counts {seen[0] if seen else None}")

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                           bare)
        if code == 0 or last_json(stdout) is not None:
            failures.append(f"bare directory: exit {code}, printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
