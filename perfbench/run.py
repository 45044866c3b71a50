"""birdstrike benchmark: CLI session, campaign analysis and drag reconstruction.

Run from the repository root (stdlib only, nothing to build):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, at most one child process at a time):

- cli-session: a seeded rotation through the nine `birdstrike` subcommands,
  each a real `python -m birdstrike` subprocess. Start-up and import dominate.
- campaign-analyze: the in-process analyze pipeline (read_matrix,
  theoretical_reference per scenario, strict ingest, conformance_report, both
  renderers) on a 180,000-row measurements CSV. Ingest dominates.
- drag-sweep: per-drop impact-velocity reconstruction under quadratic drag,
  half from drop height and half from fall time, then the force model and the
  certification check, plus aircraft_speed sweeps through 0. The kinematics
  and impact modules dominate; there is no file I/O.

Every activity runs in a fresh worker process (perfbench/worker.py). The named
workload runs for --seconds in total; so that every end-to-end metric is
present on every workload, the other two run a fixed amount of work
(SLICE_OPS). A run is made of ROUNDS rounds, each running a share of every
activity, and each figure is pooled over all rounds. setup_s is the median
in-process set-up time (package import, bundled registry, default matrix,
projectile set) of SETUPS_PER_ROUND fresh processes per round.

Every end-to-end time is scaled to a reference host speed with a calibration
measured beside each operation (perfbench/speed.py): a CLI call with a bare
`python -c pass` before and after it, in-process work with a fixed
pure-Python kernel. Without that, the host's own speed swings (up to 2x
within a minute) swamp the program's. Each figure is a median (or p90) of the
scaled per-operation figures; the raw wall-clock ones are in the results
file.

With --trace 1 the run instead measures per-layer metrics: the named workload
runs for --seconds with every public birdstrike function wrapped from outside
(perfbench/tracer.py), after an untraced run of the same fixed work that gives
the tracing overhead; then `python -c pass`, `-X importtime` and in-process
`cli.main` probes run. Per-function figures come from the workload's own
calls; a function the workload never calls is timed from the traced
`cli.main` probe, and the results file names the source of each figure.

The last line of standard output is the result object; the full results,
with the environment block and the sha256 of every input, are written under
.perfbench/results/. Inputs and scratch files live in .perfbench/tmp/ and are
removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
import speed
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "birdstrike"
STATE = ROOT / ".perfbench"

WORKLOADS = ("cli-session", "campaign-analyze", "drag-sweep")
# Fixed work per round of the two workloads a run does not name: 48 CLI calls (so the
# p90 has four calls above it), 8 campaign passes and 15,360 drops per run.
SLICE_OPS = {"cli-session": 12, "campaign-analyze": 2, "drag-sweep": 15 * inputs.DRAG_BATCH}
ROUNDS = 4               # stretches each figure is pooled from, spread over the run
SETUPS_PER_ROUND = 5
SLICE_SECONDS = 30.0     # cap on a fixed-work slice, so a slow program still ends in time
START_PROBES = 9          # `python -c pass` runs in a traced run
START_PROBES_PER_ROUND = 2
IMPORT_PROBES = 7
PROBE_CYCLES = 11        # untraced in-process cli.main calls per subcommand
WORKER_GRACE = 45.0      # seconds a worker may run past its own deadline

IMPORT_MODULES = ("errors", "species", "materials", "impact", "kinematics", "projectile",
                  "harness", "cli")
SHARE_LAYERS = ("python", "import") + tracing.LAYERS


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BIRDSTRIKE_CONFIG", None)
    return env


class Workers:
    """Spawns workers one at a time and collects their result files."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, mode: str, seconds: float, ops: int | None = None, trace: int = 0,
            extra: tuple = ()) -> tuple[dict, float]:
        self.spawned += 1
        out = self.work / f"worker-{self.spawned}.json"
        command = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
                   "--seed", str(self.seed), "--inputs", str(self.work), "--out", str(out),
                   "--seconds", repr(seconds), "--trace", str(trace), *extra]
        if ops is not None:
            command += ["--ops", str(ops)]
        started = time.perf_counter()
        child = subprocess.Popen(command, stdout=sys.stderr, env=child_env(), cwd=ROOT,
                                 start_new_session=True)
        try:
            child.wait(timeout=seconds + WORKER_GRACE)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise BenchError(f"worker {mode} did not finish in time") from None
        wall = time.perf_counter() - started
        if child.returncode != 0:
            raise BenchError(f"worker {mode} exited with code {child.returncode}")
        result = json.loads(out.read_text(encoding="utf-8"))
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += [f"{mode}: {note}" for note in result["failures"]]
        return result, wall


def make_inputs(seed: int, work: Path) -> dict:
    """Write every input of the run into `work`; return the sha256 of each."""
    shas = {}
    for name, iterations in (("campaign", inputs.CAMPAIGN_ITERATIONS),
                             ("session", inputs.SESSION_ITERATIONS)):
        inputs.write_matrix(work / f"{name}_matrix.json", iterations)
        expected = inputs.write_measurements(work / f"{name}.csv", seed, iterations, name)
        (work / f"{name}_expected.json").write_text(json.dumps(expected), encoding="utf-8")
        for file in (f"{name}_matrix.json", f"{name}.csv"):
            shas[file] = inputs.sha256_file(work / file)
    (work / "designs").mkdir()
    shas["cli_rotation"] = inputs.cli_stream_sha256(seed)
    shas["drag_drops"] = inputs.drag_stream_sha256(seed)
    return shas


def start_floor_ms(samples: int) -> list[float]:
    """Wall times of a bare `python -c pass`, in ms: the interpreter start-up floor."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT,
                       check=True, timeout=60)
        times.append(1e3 * (time.perf_counter() - started))
    return times


def import_probe() -> tuple[float, dict[str, int]]:
    """Wall time of `import birdstrike.cli` and per-module self time from -X importtime."""
    code = ("import time; t = time.perf_counter(); import birdstrike.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    self_us = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            self_us[fields[2].strip()] = int(fields[0])
    return 1e3 * float(proc.stdout.strip().splitlines()[-1]), self_us


def environment(floor_ms: float) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    sources = sorted(PACKAGE.glob("*.py"))
    lines = 0
    for path in sources:
        with open(path, "rb") as handle:
            lines += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": inputs.sha256_json({p.name: inputs.sha256_file(p) for p in sources}),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "src_birdstrike_lines": lines,
        "python_start_ms": floor_ms,
    }


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def cli_figures(samples: list[list]) -> dict:
    """Per-call times of [wall s, start-up calibration s] samples, scaled to the reference."""
    calls = [1e3 * speed.at_reference(wall, floor, speed.FLOOR_REF_S) for wall, floor in samples]
    return {"p50_ms": statistics.median(calls), "p90_ms": percentile(calls, 0.9),
            "raw_p50_ms": 1e3 * statistics.median(wall for wall, _ in samples),
            "samples": len(calls)}


def rate(samples: list[list]) -> dict:
    """Median work per second of [work, seconds, kernel calibration s] batches, scaled."""
    rates = [done / speed.at_reference(seconds, kernel, speed.KERNEL_REF_S)
             for done, seconds, kernel in samples]
    work = sum(done for done, _, _ in samples)
    return {"per_s": statistics.median(rates),
            "raw_per_s": work / sum(seconds for _, seconds, _ in samples),
            "samples": len(samples), "work": work}


def time_per_op(workload: str, samples: list[list]) -> float:
    """Raw wall seconds per operation of the workload (for the tracing overhead)."""
    if workload == "cli-session":
        return statistics.median(wall for wall, _ in samples)
    return sum(seconds for _, seconds, _ in samples) / sum(done for done, _, _ in samples)


def untraced_run(workload: str, seconds: float, workers: Workers) -> tuple[dict, dict]:
    # CLI calls continue the seed's rotation from round to round.
    setup, raw_setup, floor, samples = [], [], [], {w: [] for w in WORKLOADS}
    peak_rss_kb = 0
    for _ in range(ROUNDS):
        floor += start_floor_ms(START_PROBES_PER_ROUND)
        for _ in range(SETUPS_PER_ROUND):
            result = workers.run("setup", SLICE_SECONDS,
                                 extra=("--with-cli",) if workload == "cli-session" else ())[0]
            setup.append(speed.at_reference(result["setup_s"], result["setup_calibration_s"],
                                            speed.KERNEL_REF_S))
            raw_setup.append(result["setup_s"])
        for activity in WORKLOADS:
            skip = ("--skip", str(len(samples[activity]))) if activity == "cli-session" else ()
            if activity == workload:
                result = workers.run(activity, seconds / ROUNDS, extra=skip)[0]
                peak_rss_kb = max(peak_rss_kb, result["peak_rss_kb"])
            else:
                result = workers.run(activity, SLICE_SECONDS, extra=skip,
                                     ops=SLICE_OPS[activity])[0]
            samples[activity] += result["samples"]
    cli = cli_figures(samples["cli-session"])
    campaign = rate(samples["campaign-analyze"])
    drag = rate(samples["drag-sweep"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cli_call_ms_p50": (cli["p50_ms"], "ms"),
        "cli_call_ms_p90": (cli["p90_ms"], "ms"),
        "campaign_rows_per_s": (campaign["per_s"], "rows/s"),
        "drag_evals_per_s": (drag["per_s"], "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    detail = {
        "python_start_ms": statistics.median(floor),
        "setup_samples_s": setup,
        "raw_setup_s": statistics.median(raw_setup),
        "cli_calls": cli["samples"],
        "raw_cli_call_ms_p50": cli["raw_p50_ms"],
        "campaign_passes": campaign["samples"],
        "campaign_rows": campaign["work"],
        "raw_campaign_rows_per_s": campaign["raw_per_s"],
        "drag_batches": drag["samples"],
        "drag_evals": drag["work"],
        "raw_drag_evals_per_s": drag["raw_per_s"],
        "fixed_work_slices": {w: ROUNDS * SLICE_OPS[w] for w in WORKLOADS if w != workload},
        "raw_samples": samples,
    }
    return metrics, detail


def traced_run(workload: str, seconds: float, workers: Workers) -> tuple[dict, dict]:
    floor_ms = statistics.median(start_floor_ms(START_PROBES))
    baseline = workers.run(workload, SLICE_SECONDS, ops=ROUNDS * SLICE_OPS[workload])[0]
    traced, wall = workers.run(workload, seconds, trace=1)
    probe = workers.run("cli-probe", SLICE_SECONDS,
                        ops=PROBE_CYCLES * len(inputs.SUBCOMMANDS))[0]
    imports = [import_probe() for _ in range(IMPORT_PROBES)]

    aggregate = traced["trace"]
    if workload != "cli-session":
        # The worker's own interpreter start-up and shutdown; its import is already recorded.
        tracing.add_self_time(aggregate["stats"], "python", wall - traced["elapsed"])
    fallback = probe["trace"]
    sources: dict[str, str] = {}

    def source(metric: str, *names: str) -> dict:
        use_workload = all(name in aggregate["stats"] for name in names)
        sources[metric] = "workload" if use_workload else "cli-probe"
        found = aggregate if use_workload else fallback
        missing = [name for name in names if name not in found["stats"]]
        if missing:
            raise BenchError(f"no calls traced for {missing}")
        return found

    def per_call_us(name: str, metric: str) -> float:
        calls, total, _ = source(metric, name)["stats"][name]
        return 1e6 * total / calls

    def busy_s(name: str, metric: str) -> float:
        return source(metric, name)["stats"][name][1]

    metrics: dict[str, tuple[float, str]] = {}
    metrics["python.start_ms"] = (floor_ms, "ms")
    metrics["import.birdstrike.cli_ms"] = (statistics.median(ms for ms, _ in imports), "ms")
    for module in IMPORT_MODULES:
        name = f"birdstrike.{module}"
        metrics[f"import.{name}.self_us"] = (
            float(statistics.median(found[name] for _, found in imports)), "us")
    for sub in inputs.SUBCOMMANDS:
        metrics[f"cli.main.{sub}.us_p50"] = (1e6 * statistics.median(probe["timings"][sub]), "us")

    ingest = "harness.ingest_measurements"
    found = source(ingest, ingest, "harness.TestMatrix.scenario", "materials.find_material")
    rows = found["counts"][f"{ingest}.rows"]
    metrics[f"{ingest}.busy_s"] = (found["stats"][ingest][1], "s")
    metrics[f"{ingest}.rows_per_s"] = (rows / found["stats"][ingest][1], "rows/s")
    metrics["harness.TestMatrix.scenario.calls_per_row"] = (
        found["stats"]["harness.TestMatrix.scenario"][0] / rows, "calls/row")
    metrics["materials.find_material.calls"] = (
        found["stats"]["materials.find_material"][0] / found["stats"][ingest][0], "calls/pass")
    for name in ("harness.conformance_report", "kinematics.fall_time_for_drop"):
        metrics[f"{name}.busy_s"] = (busy_s(name, f"{name}.busy_s"), "s")
    for name in ("harness.render_report_csv", "harness.render_report_json",
                 "harness.theoretical_reference", "harness.read_matrix",
                 "harness.build_test_matrix", "kinematics.impact_velocity_from_drop",
                 "kinematics.impact_velocity_from_timing", "kinematics.make_drop_plan",
                 "impact.ImpactScenario", "impact.impact_force", "impact.check_certification",
                 "projectile.generate_projectile_set", "projectile.export_geometry",
                 "species.bundled_species_registry"):
        metrics[f"{name}.us"] = (per_call_us(name, f"{name}.us"), "us")
    solve, step = "kinematics.fall_time_for_drop", "kinematics.drag_fall_distance"
    found = source(f"{step}.calls_per_solve", solve, step)
    metrics[f"{step}.calls_per_solve"] = (
        found["pairs"].get(f"{solve}>{step}", 0) / found["stats"][solve][0], "calls/solve")
    sweep = "impact.sensitivity_table"
    found = source(f"{sweep}.us_per_value", sweep)
    metrics[f"{sweep}.us_per_value"] = (
        1e6 * found["stats"][sweep][1] / found["counts"][f"{sweep}.values"], "us")
    layers = tracing.layer_self_times(aggregate)
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.share"] = (layers.get(layer, 0.0) / wall, "frac")
    metrics["failed_frac"] = (workers.failed / max(workers.attempted, 1), "frac")

    untraced_op = time_per_op(workload, baseline["samples"])
    traced_op = time_per_op(workload, traced["samples"])
    detail = {
        "python_start_ms": floor_ms,
        "sources": sources,
        "workload_wall_s": wall,
        "layer_self_s": layers,
        "unattributed_share": 1.0 - sum(layers.values()) / wall,
        "tracing_overhead": {
            "untraced_s_per_op": untraced_op,
            "traced_s_per_op": traced_op,
            "overhead_pct": 100.0 * (traced_op / untraced_op - 1.0),
        },
        "trace": aggregate,
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="birdstrike benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: birdstrike sources not found under {SRC}", file=sys.stderr)
        return 2
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE / "tmp"))
    try:
        shas = make_inputs(args.seed, work)
        workers = Workers(args.seed, work)
        if args.trace:
            metrics, detail = traced_run(args.workload, args.seconds, workers)
        else:
            metrics, detail = untraced_run(args.workload, args.seconds, workers)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_frac = workers.failed / max(workers.attempted, 1)
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(detail["python_start_ms"]), "inputs_sha256": shas,
        "attempted": workers.attempted, "failed": workers.failed, "failed_frac": failed_frac,
        "failures": workers.failures,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "detail": detail,
    }
    out_dir = STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
        spans = {"fields": ["process", "id", "parent_id", "name", "start_s", "end_s"]
                 if args.workload == "cli-session" else
                 ["id", "parent_id", "name", "start_s", "end_s"],
                 "dropped": detail["trace"]["dropped_spans"],
                 "spans": detail["trace"].pop("spans")}
        spans_path.write_text(json.dumps(spans), encoding="utf-8")
        results["spans_file"] = str(spans_path.relative_to(ROOT))
    out_path.write_text(json.dumps(results, indent=1), encoding="utf-8")

    env = results["environment"]
    print(f"birdstrike benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"environment: python {env['python']}, commit {env['commit']}, nproc {env['nproc']}, "
          f"src/birdstrike {env['src_birdstrike_lines']} lines, "
          f"python -c pass {env['python_start_ms']:.1f} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    if args.trace:
        overhead = detail["tracing_overhead"]
        print(f"  tracing overhead: {overhead['overhead_pct']:.1f}% per operation "
              f"({overhead['untraced_s_per_op']:.6g} s untraced, "
              f"{overhead['traced_s_per_op']:.6g} s traced)")
    else:
        print("  samples: " + ", ".join(f"{k}={v}" for k, v in detail.items()
                                        if k not in ("setup_samples_s", "raw_samples")))
    print(f"  failed_frac {failed_frac:g} ({workers.failed} of {workers.attempted} operations)")
    for note in workers.failures:
        print(f"  failure: {note}")
    print(f"  results: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": workers.failed == 0,
        "attempted": workers.attempted,
        "failed": workers.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
