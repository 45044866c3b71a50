"""One benchmark activity, run in a fresh process by run.py.

    python perfbench/worker.py --mode MODE --seed N --inputs DIR --out JSON
                               [--seconds S] [--ops N] [--trace 0|1]

Modes: `setup` (program set-up only), `cli-session`, `campaign-analyze`,
`drag-sweep`, and `cli-probe` (in-process `birdstrike.cli.main` per
subcommand). An activity stops after --seconds of wall time or --ops
operations, whichever comes first; each operation's output is checked and
every failure is counted. Untraced, each timed operation is recorded with
the host-speed calibration measured beside it (perfbench/speed.py). The
result, with the process's own peak RSS (or its CLI children's on
cli-session), is written to --out as JSON.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import inputs  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("errors", "species", "materials", "impact", "kinematics", "projectile", "harness")
AIR_DENSITY = 1.225
LIMITS = {"single-bird": 2255.0, "flock": 4819.0}
SPECIMENS = {"Aluminium-2024-T3": inputs.SPECIMEN_DENSITIES[0], "CFRP": inputs.SPECIMEN_DENSITIES[1]}
MAX_FAILURE_NOTES = 5
# speed.kernel() calls per calibration beside set-up, a campaign pass and a batch of drops
SETUP_KERNELS = 8
CAMPAIGN_KERNELS = 8
DRAG_KERNELS = 2


class Run:
    """Stop condition and failure bookkeeping of one activity."""

    def __init__(self, seconds: float, ops: int) -> None:
        self.deadline = time.perf_counter() + seconds
        self.max_ops = ops
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def more(self, done: int | None = None) -> bool:
        done = self.attempted if done is None else done
        return done < self.max_ops and time.perf_counter() < self.deadline

    def record(self, error) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_NOTES:
                self.failures.append(str(error))


def program_setup(with_cli: bool, tracer=None) -> SimpleNamespace:
    """Import the package and load what every workload needs before its first operation."""
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    lib = SimpleNamespace(**{name: importlib.import_module(f"birdstrike.{name}")
                             for name in MODULES})
    if with_cli:
        lib.cli = importlib.import_module("birdstrike.cli")
    imported = time.perf_counter()
    if not Path(lib.harness.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"birdstrike was imported from {lib.harness.__file__}, not {SRC}")
    # Untraced originals for the benchmark's own checks.
    lib.original = SimpleNamespace(
        fall_time_for_drop=lib.kinematics.fall_time_for_drop,
        drag_fall_distance=lib.kinematics.drag_fall_distance,
        impact_velocity_from_timing=lib.kinematics.impact_velocity_from_timing,
    )
    if tracer is not None:
        tracer.add("import", imported - started)
        tracer.install()
    lib.registry = lib.species.bundled_species_registry()
    lib.matrix = lib.harness.build_test_matrix()
    lib.projectiles = lib.projectile.generate_projectile_set(
        lib.species.find_species(lib.registry, "Starling"))
    lib.import_s = imported - started
    lib.setup_s = time.perf_counter() - started
    return lib


def own_peak_rss_kb() -> int:
    """Peak RSS of this process's own memory (VmHWM).

    getrusage would report the parent's peak as well: the kernel carries the
    high-water mark across fork and exec.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def close(actual: float, expected: float, rel: float = 1e-12, abs_tol: float = 1e-9) -> bool:
    return math.isclose(actual, expected, rel_tol=rel, abs_tol=abs_tol)


def moving_force(mass, length, density, bird_speed, aircraft_speed, aircraft_density, angle):
    """Benchmark's own evaluation of the closed-form moving-aircraft force."""
    s = math.sin(math.radians(angle))
    v = bird_speed * s + aircraft_speed
    return 0.5 * mass * aircraft_density * aircraft_speed * v * s / (length * density)


def stationary_force(mass, length, density, bird_speed, aircraft_density, angle):
    s = math.sin(math.radians(angle))
    return 0.5 * mass * bird_speed * bird_speed * aircraft_density * s ** 3 / (length * density)


# ---------------------------------------------------------------- cli-session

def session_files(work: Path) -> dict:
    return {
        "session_csv": str(work / "session.csv"),
        "session_matrix": str(work / "session_matrix.json"),
        "design_dir": str(work / "designs"),
        "matrix_out": str(work / "matrix_out.json"),
        "report_out": str(work / "report"),
    }


def _key_values(stdout: str) -> dict:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def written_files(stdout: str, work: Path) -> dict[str, str]:
    """Contents of the files a call reports on stdout, read before the next call overwrites them."""
    return {line: Path(line).read_text(encoding="utf-8") for line in stdout.splitlines()
            if line.startswith(str(work)) and Path(line).is_file()}


def check_cli(sub: str, params: dict, code: int, stdout: str, written: dict, lib, expected: dict):
    """None when the CLI output matches the in-process library result, else a reason."""
    if code != 0:
        return f"{sub}: exit code {code}"
    impact, kinematics, harness = lib.impact, lib.kinematics, lib.harness
    p = params
    if sub == "force":
        result = impact.impact_force(impact.ImpactScenario(
            p["mass"], p["length"], p["bird_density"], p["bird_speed"],
            p["aircraft_speed"], p["aircraft_density"], p["angle"]))
        want = {"total_speed_m_s": result.total_speed, "kinetic_energy_j": result.kinetic_energy,
                "penetration_depth_m": result.penetration_depth, "force_n": result.force}
        got = _key_values(stdout)
        return None if all(got.get(k) == repr(v) for k, v in want.items()) else f"force: {got}"
    if sub == "force-stationary":
        force = impact.impact_force_stationary(p["mass"], p["bird_speed"], p["length"],
                                               p["bird_density"], p["aircraft_density"], p["angle"])
        return None if _key_values(stdout).get("force_n") == repr(force) else "force-stationary"
    if sub == "plan":
        rows = _csv_rows(stdout)
        if len(rows) != len(lib.registry):
            return f"plan: {len(rows)} rows"
        for row, species in zip(rows, lib.registry):
            plan = kinematics.make_drop_plan(species.flight_speed, 90.0, p["scale"],
                                             p["gravity"], species.name)
            want = [plan.species_name, repr(plan.original_impact_velocity),
                    repr(plan.original_drop_height), repr(plan.scaled_impact_velocity),
                    repr(plan.scaled_drop_height), "; ".join(kinematics.plan_flags(plan))]
            if row[:5] + [",".join(row[5:])] != want:
                return f"plan: {species.name}"
        return None
    if sub == "drop-velocity":
        params = kinematics.DragParams(p["mass"], p["cd"], p["area"], gravity=p["gravity"])
        velocity = (kinematics.impact_velocity_from_drop(p["height"], params) if "height" in p
                    else kinematics.impact_velocity_from_timing(p["time"], params))
        got = _key_values(stdout)
        ok = (got.get("impact_velocity_m_s") == repr(velocity)
              and got.get("terminal_velocity_m_s") == repr(kinematics.terminal_velocity(params)))
        return None if ok else f"drop-velocity: {got}"
    if sub == "design":
        base = lib.species.find_species(lib.registry, p["species"])
        specs = lib.projectile.generate_projectile_set(base, shell_fraction=p["shell_fraction"])
        paths = stdout.split()
        if len(paths) != len(specs):
            return f"design: {len(paths)} files"
        for path, spec in zip(paths, specs):
            want = json.loads(json.dumps(lib.projectile.geometry_payload(spec)))
            if path not in written or json.loads(written[path]) != want:
                return f"design: {path}"
        return None
    if sub == "matrix":
        want = harness.matrix_to_json(harness.build_test_matrix(iterations_per_scenario=p["iterations"]))
        return None if written.get(stdout.strip()) == want else "matrix"
    if sub == "analyze":
        return check_session_report(p, written.get(p["out"]), lib, expected)
    if sub == "check-cert":
        verdict = impact.check_certification(p["force"], p["case"])
        want = {"case": verdict.case, "force_n": repr(verdict.force), "limit_n": repr(verdict.limit),
                "verdict": "PASS" if verdict.passed else "FAIL", "margin_n": repr(verdict.margin)}
        return None if _key_values(stdout) == want else "check-cert"
    base = impact.ImpactScenario(p["mass"], p["length"], p["bird_density"], p["bird_speed"],
                                 p["aircraft_speed"], p["aircraft_density"], p["angle"])
    want = [[repr(row.value), repr(row.force), repr(row.percent_change)]
            for row in impact.sensitivity_table(base, p["param"], p["values"])]
    return None if _csv_rows(stdout) == want else f"sweep {p['param']}"


def check_session_report(p: dict, text: str | None, lib, expected: dict):
    if text is None:
        return "analyze: no report written"
    if p["format"] == "json":
        payload = json.loads(text)
        rows = {row["scenario_id"]: (row["theoretical_n"], row["experimental_mean_n"],
                                     row["experimental_std_n"]) for row in payload["scenarios"]}
        overall = payload["overall_mean_conformance"]
    else:
        table = _csv_rows(text)
        rows = {row[0]: tuple(float(cell) for cell in row[1:4]) for row in table[:-1]}
        overall = float(table[-1][5])
    matrix = lib.harness.read_matrix(p["matrix"])
    by_serial = {spec.serial: spec for spec in lib.projectiles}
    materials = lib.materials.builtin_materials()
    conformances = []
    for scenario in matrix.scenarios:
        theory = lib.harness.theoretical_reference(
            scenario, by_serial[scenario.projectile_serial],
            lib.materials.find_material(materials, scenario.specimen_material),
            gravity=p["gravity"], split=lib.harness.VelocitySplit(p["split"]))
        stats = expected["scenarios"][scenario.id]
        got = rows.get(scenario.id)
        if got is None or got[0] != theory or not (close(got[1], stats["mean"])
                                                  and close(got[2], stats["std"])):
            return f"analyze: scenario {scenario.id}"
        conformances.append(100.0 - (theory - stats["mean"]) * 100.0 / theory)
    return None if close(overall, statistics.fmean(conformances)) else "analyze: overall"


def start_floor_s(env: dict) -> float:
    """Wall time of a bare `python -c pass`: the calibration of a CLI call."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - started


def cli_session(args, run: Run, work: Path) -> dict:
    files = session_files(work)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BIRDSTRIKE_CONFIG", None)
    out_path, err_path, agg_path = work / "cli.out", work / "cli.err", work / "cli.trace.json"
    aggregate = tracing.empty_aggregate()
    calls, samples, peak_rss_kb = [], [], 0
    # Untraced, a bare interpreter start-up runs before the first call and after each
    # one; a call's calibration is the mean of the two beside it.
    floor = None if args.trace else start_floor_s(env)
    rotation = itertools.islice(inputs.cli_rotation(args.seed, files), args.skip, None)
    for sub, argv, params in rotation:
        if not run.more(len(calls)):
            break
        params["matrix"] = files["session_matrix"]
        if args.trace:
            command = [sys.executable, str(HERE / "tracer.py"), str(SRC), str(agg_path), "--"] + argv
        else:
            command = [sys.executable, "-m", "birdstrike"] + argv
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            child = subprocess.Popen(command, stdout=out, stderr=err, env=env)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
        if floor is None:
            samples.append([wall, None])
        else:
            floor_after = start_floor_s(env)
            samples.append([wall, (floor + floor_after) / 2.0])
            floor = floor_after
        peak_rss_kb = max(peak_rss_kb, usage.ru_maxrss)
        stdout = out_path.read_text(encoding="utf-8")
        calls.append((sub, params, child.returncode, stdout, written_files(stdout, work)))
        if args.trace and child.returncode == 0:
            traced = json.loads(agg_path.read_text(encoding="utf-8"))
            tracing.merge(aggregate, traced["trace"], process=len(calls))
            tracing.add_self_time(aggregate["stats"], "python", wall - traced["elapsed"])
    # The library is imported only now: a child's reported peak RSS includes this
    # process's peak at the time of the spawn, so this process stays small until then.
    lib = program_setup(with_cli=True)
    expected = json.loads((work / "session_expected.json").read_text(encoding="utf-8"))
    for sub, params, code, stdout, written in calls:
        try:
            error = check_cli(sub, params, code, stdout, written, lib, expected)
        except (ValueError, KeyError, IndexError) as exc:
            error = f"{sub}: {exc!r}"
        run.record(error)
    return {"samples": samples, "peak_rss_kb": peak_rss_kb, "setup_s": lib.setup_s,
            "import_s": lib.import_s, "trace": aggregate if args.trace else None}


# ----------------------------------------------------------- campaign-analyze

def campaign_pass(lib, matrix_path: str, csv_path: str):
    """The in-process `analyze` pipeline a test engineer runs on a campaign file."""
    harness = lib.harness
    matrix = harness.read_matrix(matrix_path)
    materials = lib.materials.builtin_materials()
    by_serial = {spec.serial: spec for spec in lib.projectiles}
    references = {
        scenario.id: harness.theoretical_reference(
            scenario, by_serial[scenario.projectile_serial],
            lib.materials.find_material(materials, scenario.specimen_material))
        for scenario in matrix.scenarios
    }
    measurements = harness.ingest_measurements(csv_path, matrix, strict=True)
    report = harness.conformance_report(matrix, references, measurements)
    rendered = (harness.render_report_csv(report), harness.render_report_json(report))
    return sum(len(m.forces) for m in measurements), report, rendered


def check_campaign(lib, rows: int, report, rendered, expected: dict):
    if rows != expected["rows"]:
        return f"campaign: {rows} rows ingested, {expected['rows']} written"
    by_serial = {spec.serial: spec for spec in lib.projectiles}
    geometry = {row[0]: row for row in inputs.MATRIX_ROWS}
    conformances = []
    for row in report.scenarios:
        _sid, _case, serial, height, _nominal, angle, specimen = geometry[row.scenario_id]
        spec = by_serial[serial]
        velocity = math.sqrt(2.0 * inputs.GRAVITY["standard"] * height)
        aircraft = min(inputs.SCALED_CRUISE, velocity)
        theory = moving_force(spec.mass, spec.shape.length, spec.effective_density,
                              velocity - aircraft, aircraft, SPECIMENS[specimen], angle)
        stats = expected["scenarios"][row.scenario_id]
        if not (close(row.theoretical_force, theory) and close(row.experimental_mean, stats["mean"])
                and close(row.experimental_std, stats["std"])):
            return f"campaign: scenario {row.scenario_id}"
        conformances.append(100.0 - (theory - stats["mean"]) * 100.0 / theory)
    if len(conformances) != len(inputs.MATRIX_ROWS):
        return f"campaign: {len(conformances)} scenarios reported"
    overall = statistics.fmean(conformances)
    if not close(report.overall_mean_conformance, overall):
        return "campaign: overall conformance"
    csv_text, json_text = rendered
    csv_rows = _csv_rows(csv_text)
    want = [[row.scenario_id, repr(row.theoretical_force), repr(row.experimental_mean),
             repr(row.experimental_std), repr(row.percent_error), repr(row.percent_conformance)]
            for row in report.scenarios]
    if csv_rows[:-1] != want or csv_rows[-1][5] != repr(report.overall_mean_conformance):
        return "campaign: csv rendering"
    payload = json.loads(json_text)
    if [s["experimental_mean_n"] for s in payload["scenarios"]] != [
            row.experimental_mean for row in report.scenarios]:
        return "campaign: json rendering"
    return None


def campaign_analyze(args, run: Run, work: Path) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    lib = program_setup(with_cli=False, tracer=tracer)
    expected = json.loads((work / "campaign_expected.json").read_text(encoding="utf-8"))
    matrix_path, csv_path = str(work / "campaign_matrix.json"), str(work / "campaign.csv")
    samples = []
    calibration = Calibration(args.trace, CAMPAIGN_KERNELS)
    while run.more():
        started = time.perf_counter()
        try:
            rows, report, rendered = campaign_pass(lib, matrix_path, csv_path)
        except Exception as exc:  # a failed operation is counted, not fatal
            run.record(f"campaign: {exc!r}")
            calibration.beside()
            continue
        seconds = time.perf_counter() - started
        samples.append([rows, seconds, calibration.beside()])
        run.record(check_campaign(lib, rows, report, rendered, expected))
    return finish_in_process(lib, tracer, samples)


# ------------------------------------------------------------------ drag-sweep

def drag_batch(lib, batch: list) -> list:
    """Reconstruct, split, evaluate and check each drop; every SWEEP_EVERY-th adds a sweep."""
    kinematics, impact = lib.kinematics, lib.impact
    results = []
    for index, (by_height, height, fall_time, mass, cd, area, gravity, length, density,
                angle, specimen, case) in enumerate(batch):
        try:
            params = kinematics.DragParams(mass, cd, area, AIR_DENSITY, gravity)
            if by_height:
                velocity = kinematics.impact_velocity_from_drop(height, params)
            else:
                velocity = kinematics.impact_velocity_from_timing(fall_time, params)
            aircraft = min(inputs.SCALED_CRUISE, velocity)
            scenario = impact.ImpactScenario(mass, length, density, velocity - aircraft,
                                             aircraft, specimen, angle)
            force = impact.impact_force(scenario).force
            verdict = impact.check_certification(force, case)
            sweep = None
            if index % inputs.SWEEP_EVERY == 0:  # 0 takes the stationary-aircraft fallback
                values = [0.0] + [aircraft * k for k in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0)]
                sweep = (values, impact.sensitivity_table(scenario, "aircraft_speed", values))
            results.append((params, velocity, force, verdict, sweep))
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append(exc)
    return results


def check_drop(lib, drop: tuple, result):
    if isinstance(result, Exception):
        return f"drag: {result!r}"
    (by_height, height, fall_time, mass, cd, area, gravity, length, density,
     angle, specimen, case) = drop
    params, velocity, force, verdict, _sweep = result
    if by_height:
        _, want = inputs.closed_form_fall(height, mass, cd, area, gravity, AIR_DENSITY)
        if not velocity < math.sqrt(2.0 * gravity * height):
            return f"drag: {velocity} not below the drag-free velocity at h={height}"
        solved = lib.original.fall_time_for_drop(height, params)
        if abs(lib.original.drag_fall_distance(solved, params) - height) > 1e-9:
            return f"drag: distance round trip at h={height}"
        if not close(lib.original.impact_velocity_from_timing(solved, params), velocity, abs_tol=0):
            return f"drag: timing and height paths disagree at h={height}"
    else:
        vt = math.sqrt(2.0 * mass * gravity / (AIR_DENSITY * cd * area))
        want = vt * math.tanh(gravity * fall_time / vt)
    if not close(velocity, want, rel=1e-9, abs_tol=0):
        return f"drag: velocity {velocity} != {want}"
    aircraft = min(inputs.SCALED_CRUISE, velocity)
    bird = velocity - aircraft
    if not close(force, moving_force(mass, length, density, bird, aircraft, specimen, angle)):
        return "drag: force"
    limit = LIMITS[case]
    if verdict.force != force or verdict.passed != (force <= limit) or verdict.margin != limit - force:
        return "drag: certification verdict"
    return None


def check_sweep(drop: tuple, result):
    (_by_height, _h, _t, mass, _cd, _area, _g, length, density, angle, specimen, _case) = drop
    _params, velocity, force, _verdict, (values, rows) = result
    aircraft = min(inputs.SCALED_CRUISE, velocity)
    bird = velocity - aircraft
    if [row.value for row in rows] != values:
        return "sweep: values"
    for row in rows:
        want = (stationary_force(mass, length, density, bird, specimen, angle) if row.value == 0
                else moving_force(mass, length, density, bird, row.value, specimen, angle))
        if not (close(row.force, want) and close(row.percent_change, 100.0 * (want - force) / force)):
            return f"sweep: aircraft_speed {row.value}"
    return None


def drag_sweep(args, run: Run, work: Path) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    lib = program_setup(with_cli=False, tracer=tracer)
    rng = inputs.rng_for(args.seed, "drag")
    samples = []
    calibration = Calibration(args.trace, DRAG_KERNELS)
    while run.more():
        batch = inputs.drop_batch(rng)
        started = time.perf_counter()
        results = drag_batch(lib, batch)
        seconds = time.perf_counter() - started
        samples.append([len(batch), seconds, calibration.beside()])
        for drop, result in zip(batch, results):
            run.record(check_drop(lib, drop, result))
            if not isinstance(result, Exception) and result[4] is not None:
                run.record(check_sweep(drop, result))
    return finish_in_process(lib, tracer, samples)


class Calibration:
    """speed.kernel() timings between in-process operations (none when traced).

    An operation's calibration is the mean of the timings just before and just
    after it.
    """

    def __init__(self, trace: int, kernels: int) -> None:
        self.kernels = kernels
        self.previous = None if trace else speed.kernel_s(kernels)

    def beside(self) -> float | None:
        if self.previous is None:
            return None
        after = speed.kernel_s(self.kernels)
        mean, self.previous = (self.previous + after) / 2.0, after
        return mean


def finish_in_process(lib, tracer, samples: list) -> dict:
    result = {"samples": samples, "setup_s": lib.setup_s, "import_s": lib.import_s,
              "peak_rss_kb": own_peak_rss_kb(), "trace": None}
    if tracer is not None:
        tracer.restore()
        result["trace"] = tracer.snapshot()
    return result


# ------------------------------------------------------------------- cli-probe

def cli_probe(args, run: Run, work: Path) -> dict:
    """In-process `cli.main(argv)` per subcommand: argparse plus command, no start-up."""
    lib = program_setup(with_cli=True)
    expected = json.loads((work / "session_expected.json").read_text(encoding="utf-8"))
    files = session_files(work)
    rotation = inputs.cli_rotation(args.seed, files)
    timings: dict[str, list[float]] = {sub: [] for sub in inputs.SUBCOMMANDS}
    tracer = tracing.Tracer()
    traced_cycles = 2
    cycles = max(1, args.ops // len(inputs.SUBCOMMANDS))
    for cycle in range(cycles + traced_cycles):
        traced = cycle >= cycles
        if traced:
            tracer.install()
        outputs = []
        for _ in inputs.SUBCOMMANDS:
            sub, argv, params = next(rotation)
            params["matrix"] = files["session_matrix"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                started = time.perf_counter()
                try:
                    code = lib.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                seconds = time.perf_counter() - started
            if not traced:
                timings[sub].append(seconds)
            outputs.append((sub, params, code, out.getvalue(),
                            written_files(out.getvalue(), work)))
        if traced:
            tracer.restore()  # the checks call the library and must not be traced
        for sub, params, code, stdout, written in outputs:
            run.record(check_cli(sub, params, code, stdout, written, lib, expected))
    return {"samples": [], "timings": timings, "setup_s": lib.setup_s, "import_s": lib.import_s,
            "peak_rss_kb": own_peak_rss_kb(),
            "trace": tracer.snapshot()}


def setup_only(args, run: Run, work: Path) -> dict:
    before = speed.kernel_s(SETUP_KERNELS)
    lib = program_setup(with_cli=args.with_cli)
    calibration = (before + speed.kernel_s(SETUP_KERNELS)) / 2.0
    run.record(None if len(lib.matrix.scenarios) == len(inputs.MATRIX_ROWS) else "setup: matrix")
    return {"samples": [], "setup_s": lib.setup_s, "setup_calibration_s": calibration,
            "import_s": lib.import_s, "peak_rss_kb": own_peak_rss_kb(), "trace": None}


MODES = {
    "setup": setup_only,
    "cli-session": cli_session,
    "campaign-analyze": campaign_analyze,
    "drag-sweep": drag_sweep,
    "cli-probe": cli_probe,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(MODES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True, help="directory of generated inputs")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--seconds", type=float, default=3600.0)
    parser.add_argument("--ops", type=int, default=1 << 62)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--with-cli", action="store_true", help="setup mode: import the CLI too")
    parser.add_argument("--skip", type=int, default=0,
                        help="cli-session: start this many calls into the seed's rotation")
    args = parser.parse_args()
    run = Run(args.seconds, args.ops)
    result = MODES[args.mode](args, run, Path(args.inputs))
    result.update(mode=args.mode, attempted=run.attempted, failed=run.failed,
                  failures=run.failures, elapsed=time.perf_counter() - T_START)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
