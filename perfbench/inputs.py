"""Seeded input generation for the birdstrike benchmark.

Every generator is a pure function of the run's seed: the same seed gives the
same bytes. Sizes are fixed here and quoted in BENCHMARK.json; they are not
tuned to any code path. The program under test receives only what these
functions produce, and nothing here imports it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from pathlib import Path

CAMPAIGN_ITERATIONS = 20_000  # per scenario: 9 x 20,000 = 180,000 rows
SESSION_ITERATIONS = 15       # per scenario: the 135-row file the CLI session analyses
DRAG_BATCH = 256              # drops generated, evaluated and verified together
SWEEP_EVERY = 64              # one aircraft_speed sensitivity sweep per this many drops
STREAM_HASH_PREFIX = 4096     # drops / argvs hashed to identify an unbounded stream

GRAVITY = {"standard": 9.80665, "paper": 10.0}
SCALED_CRUISE = 90.0 / 15.0  # m/s, aircraft share of a drop velocity (scaled-cruise split)
SPECIMEN_DENSITIES = (2780.0, 0.42 * 2780.0)  # aluminium and CFRP sheet, kg/m^3

# The default drop-test matrix (id, case, serial, drop height m, nominal
# velocity m/s, angle deg, specimen). The benchmark writes the matrix file
# itself so that the input does not depend on the program's own writer.
MATRIX_ROWS = (
    ("baseline", 1, 1, 2.8, 7.49, 90.0, "Aluminium-2024-T3"),
    ("1", 1, 3, 2.8, 7.49, 90.0, "Aluminium-2024-T3"),
    ("2.1", 2, 1, 2.0, 6.44, 90.0, "Aluminium-2024-T3"),
    ("2.2", 2, 1, 1.5, 5.47, 90.0, "Aluminium-2024-T3"),
    ("3", 3, 2, 2.8, 7.49, 90.0, "Aluminium-2024-T3"),
    ("4", 4, 4, 2.8, 7.49, 90.0, "Aluminium-2024-T3"),
    ("5", 5, 1, 2.8, 7.49, 50.0, "Aluminium-2024-T3"),
    ("6", 6, 1, 2.8, 7.49, 90.0, "CFRP"),
    ("7", 7, 5, 2.8, 7.49, 90.0, "Aluminium-2024-T3"),
)

# SN1-SN5 surrogate projectiles of the bundled Starling set: (frontal radius m,
# length m, effective density kg/m^3, mass kg). Drag drops scatter around them.
SN_GEOMETRY = (
    (0.010, 0.22, 156.0, 0.010781945987120171),
    (0.010, 0.22, 416.0, 0.02875185596565379),
    (0.005, 0.22, 156.0, 0.002695486496780043),
    (0.010, 0.15, 156.0, 0.007351326809400117),
    (0.010, 0.22, 156.0, 0.007187963991413447),
)

SPECIES = (
    "Common Grackle", "Starling", "House Sparrow", "Mallard", "Turkey Vulture",
    "Laughing Gull", "Bald Eagle", "Canada Goose", "Rock Dove", "Ring-billed Gull",
    "Herring Gull",
)

SESSION_FILES = ("session_csv", "session_matrix", "design_dir", "matrix_out", "report_out")

SUBCOMMANDS = (
    "force", "force-stationary", "plan", "drop-velocity", "design",
    "matrix", "analyze", "check-cert", "sweep",
)


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent generator per input stream, so streams do not shift each other."""
    return random.Random(f"birdstrike-bench:{stream}:{seed}")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def write_matrix(path, iterations: int) -> None:
    """Matrix JSON in the documented `birdstrike matrix` format."""
    payload = {
        "iterations_per_scenario": iterations,
        "scenarios": [
            {
                "id": sid,
                "case_number": case,
                "projectile_serial": serial,
                "drop_height_m": height,
                "nominal_impact_velocity_m_s": velocity,
                "impact_angle_deg": angle,
                "specimen_material": specimen,
                "iterations": iterations,
            }
            for sid, case, serial, height, velocity, angle, specimen in MATRIX_ROWS
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_measurements(path, seed: int, iterations: int, stream: str) -> dict:
    """Measurements CSV with the velocity column, rows in a seeded shuffled order.

    Returns the expected per-scenario statistics, computed from the values as
    written (statistics.fmean and stdev of the parsed cells).
    """
    rng = rng_for(seed, stream)
    lines = []
    parsed: dict[str, list[float]] = {}
    for sid, _case, _serial, height, _nominal, _angle, _specimen in MATRIX_ROWS:
        mean = rng.uniform(40.0, 400.0)
        spread = mean * rng.uniform(0.03, 0.08)
        velocity = math.sqrt(2.0 * GRAVITY["standard"] * height)
        forces = parsed.setdefault(sid, [])
        for iteration in range(1, iterations + 1):
            force_text = f"{max(0.0, rng.gauss(mean, spread)):.3f}"
            forces.append(float(force_text))
            lines.append(f"{sid},{iteration},{force_text},"
                         f"{velocity * rng.gauss(1.0, 0.01):.4f}\n")
    rng.shuffle(lines)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("scenario_id,iteration,force_n,impact_velocity_m_s\n")
        handle.writelines(lines)
    return {
        "rows": len(lines),
        "scenarios": {
            sid: {"mean": statistics.fmean(values), "std": statistics.stdev(values),
                  "rows": len(values)}
            for sid, values in parsed.items()
        },
    }


def closed_form_fall(height: float, mass: float, cd: float, area: float,
                     gravity: float, air_density: float = 1.225) -> tuple[float, float]:
    """(fall time, impact velocity) of a quadratic-drag drop, in closed form.

    With v_t = sqrt(2mg/(rho*Cd*A)) and x = g*h/v_t^2:
    t = (v_t/g)*(x + log1p(sqrt(-expm1(-2x)))),  v = v_t*sqrt(-expm1(-2x)).
    This is the benchmark's own oracle, independent of the program's solver.
    """
    vt = math.sqrt(2.0 * mass * gravity / (air_density * cd * area))
    x = gravity * height / (vt * vt)
    root = math.sqrt(-math.expm1(-2.0 * x))
    return (vt / gravity) * (x + math.log1p(root)), vt * root


def drop_batch(rng: random.Random, size: int = DRAG_BATCH) -> list[tuple]:
    """Seeded drops, alternating the height and the fall-time reconstruction.

    Each drop is (by_height, height, fall_time, mass, cd, area, gravity,
    length, density, angle, specimen_density, case).
    """
    drops = []
    for index in range(size):
        radius, length, density, mass = SN_GEOMETRY[rng.randrange(len(SN_GEOMETRY))]
        mass *= rng.uniform(0.9, 1.1)
        cd = rng.uniform(0.8, 1.3)
        area = math.pi * radius * radius * rng.uniform(0.9, 1.1)
        gravity = GRAVITY["standard"] if rng.random() < 0.5 else GRAVITY["paper"]
        height = rng.uniform(1.0, 3.5)
        fall_time, _ = closed_form_fall(height, mass, cd, area, gravity)
        drops.append((
            index % 2 == 0, height, fall_time, mass, cd, area, gravity, length, density,
            rng.uniform(30.0, 90.0), SPECIMEN_DENSITIES[rng.randrange(2)],
            "single-bird" if rng.random() < 0.5 else "flock",
        ))
    return drops


def drag_stream_sha256(seed: int) -> str:
    """Hash of the first STREAM_HASH_PREFIX drops of the seed's unbounded stream."""
    rng = rng_for(seed, "drag")
    drops = []
    while len(drops) < STREAM_HASH_PREFIX:
        drops.extend(drop_batch(rng))
    return sha256_json([list(drop) for drop in drops[:STREAM_HASH_PREFIX]])


def _g(value: float, digits: int = 5) -> str:
    return f"{value:.{digits}g}"


def cli_rotation(seed: int, files: dict):
    """Unbounded seeded rotation through the nine subcommands.

    Yields (subcommand, argv, params); params carries the parsed values the
    output check needs. `files` names the session inputs and output paths.
    """
    rng = rng_for(seed, "cli")
    cycle = 0
    while True:
        for sub in SUBCOMMANDS:
            argv, params = _cli_case(rng, sub, cycle, files)
            yield sub, argv, params
        cycle += 1


def _scenario_flags(rng: random.Random, with_aircraft_speed: bool = True):
    values = {
        "mass": _g(rng.uniform(0.02, 0.2)),
        "length": _g(rng.uniform(0.1, 0.4)),
        "bird-density": _g(rng.uniform(600.0, 1300.0)),
        "aircraft-density": repr(SPECIMEN_DENSITIES[rng.randrange(2)]),
        "bird-speed": _g(rng.uniform(0.0, 30.0)),
        "aircraft-speed": _g(rng.uniform(1.0, 100.0)),
        "angle": _g(rng.uniform(10.0, 90.0)),
    }
    if not with_aircraft_speed:
        del values["aircraft-speed"]
    argv = []
    for flag, text in values.items():
        argv += [f"--{flag}", text]
    return argv, {flag.replace("-", "_"): float(text) for flag, text in values.items()}


def _cli_case(rng: random.Random, sub: str, cycle: int, files: dict):
    if sub in ("force", "force-stationary"):
        argv, params = _scenario_flags(rng, with_aircraft_speed=sub == "force")
        return [sub] + argv, params
    if sub == "plan":
        gravity = rng.choice(("paper", "standard"))
        scale = rng.choice(("15", "12.5"))
        return (["plan", "--all", "--format", "csv", "--gravity", gravity, "--scale", scale],
                {"gravity": GRAVITY[gravity], "scale": float(scale)})
    if sub == "drop-velocity":
        gravity = rng.choice(("paper", "standard"))
        params = {"mass": float(_g(rng.uniform(0.003, 0.03))),
                  "cd": float(_g(rng.uniform(0.8, 1.3))),
                  "area": float(_g(rng.uniform(1e-4, 6e-4))),
                  "gravity": GRAVITY[gravity]}
        if cycle % 2 == 0:
            params["height"] = float(_g(rng.uniform(1.0, 3.5)))
            where = ["--height", repr(params["height"])]
        else:
            params["time"] = float(_g(rng.uniform(0.4, 0.8)))
            where = ["--time", repr(params["time"])]
        return (["drop-velocity"] + where + ["--mass", repr(params["mass"]),
                "--cd", repr(params["cd"]), "--area", repr(params["area"]),
                "--gravity", gravity], params)
    if sub == "design":
        species = SPECIES[rng.randrange(len(SPECIES))]
        shell = rng.choice(("0", "0.1"))
        return (["design", "--species", species, "--shell-fraction", shell,
                 "--out", files["design_dir"]],
                {"species": species, "shell_fraction": float(shell)})
    if sub == "matrix":
        iterations = rng.randint(5, 30)
        return (["matrix", "--iterations", str(iterations), "--out", files["matrix_out"]],
                {"iterations": iterations})
    if sub == "analyze":
        fmt = ("csv", "json")[cycle % 2]
        gravity = rng.choice(("paper", "standard"))
        split = rng.choice(("scaled-cruise", "all-aircraft"))
        out = files["report_out"] + "." + fmt
        return (["analyze", "--measurements", files["session_csv"],
                 "--matrix", files["session_matrix"], "--gravity", gravity,
                 "--split", split, "--format", fmt, "--strict", "--out", out],
                {"format": fmt, "gravity": GRAVITY[gravity], "split": split, "out": out})
    if sub == "check-cert":
        force = float(_g(rng.uniform(0.0, 6000.0)))
        case = rng.choice(("single-bird", "flock"))
        return (["check-cert", "--force", repr(force), "--case", case],
                {"force": force, "case": case})
    # sweep: aircraft_speed sweeps start at 0, which takes the stationary model
    argv, params = _scenario_flags(rng)
    param = rng.choice(("aircraft_speed", "bird_mass", "impact_angle", "aircraft_density"))
    if param == "aircraft_speed":
        values = [0.0] + [float(_g(rng.uniform(1.0, 100.0))) for _ in range(4)]
    elif param == "bird_mass":
        values = [float(_g(rng.uniform(0.01, 0.3))) for _ in range(5)]
    elif param == "impact_angle":
        values = [float(_g(rng.uniform(5.0, 90.0))) for _ in range(5)]
    else:
        values = [float(_g(rng.uniform(1000.0, 3000.0))) for _ in range(5)]
    params.update(param=param, values=values)
    return (["sweep"] + argv + ["--param", param,
                                "--values", ",".join(repr(v) for v in values)], params)


def cli_stream_sha256(seed: int) -> str:
    """Hash of the first STREAM_HASH_PREFIX argvs of the seed's rotation.

    Paths are replaced by their role so the hash does not depend on where the
    run keeps its files.
    """
    rotation = cli_rotation(seed, {role: f"<{role}>" for role in SESSION_FILES})
    return sha256_json([next(rotation)[1] for _ in range(STREAM_HASH_PREFIX)])
