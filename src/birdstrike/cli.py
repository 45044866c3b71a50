"""Command-line front end.

Exit codes: 0 success; 2 for an invalid flag or config value, including any
InvalidParameterError the library raises on one; 1 for a bad input file
(ParseError), the singular moving-aircraft model, or I/O. A key=value config
file (BIRDSTRIKE_CONFIG or --config) supplies defaults; flags override.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import BirdstrikeError, InvalidParameterError, ParseError, StationaryAircraftError
from .harness import (
    VelocitySplit,
    build_test_matrix,
    conformance_report,
    ingest_measurements,
    matrix_to_json,
    nominal_velocity_mismatches,
    read_matrix,
    render_report_csv,
    render_report_json,
    theoretical_reference,
    write_matrix,
)
from .impact import (
    CertificationLimits,
    ImpactScenario,
    PUBLISHED_DELTA_NOTES,
    check_certification,
    impact_force,
    impact_force_stationary,
    sensitivity_table,
)
from .kinematics import (
    DEFAULT_SCALE_FACTOR,
    DragParams,
    GRAVITY_PRESETS,
    ideal_impact_velocity,
    impact_velocity_from_drop,
    impact_velocity_from_timing,
    make_drop_plan,
    plan_flags,
    terminal_velocity,
)
from .materials import CRUISE_SPEED, builtin_materials, find_material, load_materials
from .projectile import (
    ABS_FILAMENT_DENSITY,
    export_geometry,
    generate_projectile_set,
    geometry_payload,
)
from .species import bundled_species_registry, find_species, load_species_registry

CONFIG_ENV_VAR = "BIRDSTRIKE_CONFIG"
CONFIG_KEYS = (
    "gravity",
    "scale_factor",
    "species",
    "materials",
    "measurements",
    "velocity_split",
    "format",
)


class _UsageError(Exception):
    """Invalid flag or config value; maps to exit code 2."""


def load_config(path) -> dict[str, str]:
    """Parse a key = value config file (# starts a comment)."""
    config: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}: line {line_no}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise _UsageError(
                    f"{path}: line {line_no}: unknown key {key!r}; "
                    f"known keys: {', '.join(CONFIG_KEYS)}"
                )
            config[key] = value.strip()
    return config


def _parse_gravity(text: str) -> float:
    if text in GRAVITY_PRESETS:
        return GRAVITY_PRESETS[text]
    try:
        return float(text)
    except ValueError:
        raise _UsageError(
            f"gravity must be {', '.join(sorted(GRAVITY_PRESETS))} or a number, got {text!r}"
        ) from None


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise _UsageError(f"{key} must be a number, got {text!r}") from None


def _resolve(flag_value, config: dict[str, str], key: str, default):
    """flag > config > default."""
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _registry_from(args, config):
    path = _resolve(getattr(args, "registry", None), config, "species", None)
    if path is None:
        return bundled_species_registry()
    return load_species_registry(path)


def _materials_from(args, config):
    path = _resolve(getattr(args, "materials", None), config, "materials", None)
    if path is None:
        return builtin_materials()
    return load_materials(path)


def _gravity_from(args, config) -> float:
    text = _resolve(getattr(args, "gravity", None), config, "gravity", "standard")
    return _parse_gravity(text)


def _scale_from(args, config) -> float:
    raw = _resolve(getattr(args, "scale", None), config, "scale_factor", DEFAULT_SCALE_FACTOR)
    return raw if isinstance(raw, float) else _parse_float(raw, "scale_factor")


def _split_from(args, config) -> VelocitySplit:
    text = _resolve(getattr(args, "split", None), config, "velocity_split",
                    VelocitySplit.SCALED_CRUISE.value)
    try:
        return VelocitySplit(text)
    except ValueError:
        raise _UsageError(
            f"velocity_split must be one of {[s.value for s in VelocitySplit]}, got {text!r}"
        ) from None


def _format_from(args, config, accepted: tuple[str, ...]) -> str:
    """The output format from flag or config; the first accepted one is the default."""
    text = _resolve(getattr(args, "format", None), config, "format", accepted[0])
    if text not in accepted:
        raise _UsageError(f"format must be {' or '.join(accepted)}, got {text!r}")
    return text


def _scenario_from_flags(args) -> ImpactScenario:
    return ImpactScenario(
        bird_mass=args.mass,
        bird_length=args.length,
        bird_density=args.bird_density,
        bird_speed=args.bird_speed,
        aircraft_speed=args.aircraft_speed,
        aircraft_density=args.aircraft_density,
        impact_angle=args.angle,
    )


def _add_scenario_flags(parser: argparse.ArgumentParser, with_aircraft_speed: bool = True) -> None:
    parser.add_argument("--mass", type=float, required=True, help="bird mass, kg")
    parser.add_argument("--length", type=float, required=True, help="bird length, m")
    parser.add_argument("--bird-density", type=float, required=True,
                        help="bird body density, kg/m^3")
    parser.add_argument("--aircraft-density", type=float, required=True,
                        help="specimen density, kg/m^3")
    parser.add_argument("--bird-speed", type=float, required=True, help="bird speed, m/s")
    if with_aircraft_speed:
        parser.add_argument("--aircraft-speed", type=float, required=True,
                            help="aircraft speed, m/s")
    parser.add_argument("--angle", type=float, required=True,
                        help="impact angle, degrees (90 = head-on)")


def cmd_force(args, config) -> int:
    if args.stationary:
        return cmd_force_stationary(args, config)
    scenario = _scenario_from_flags(args)
    try:
        result = impact_force(scenario)
    except StationaryAircraftError as exc:
        raise StationaryAircraftError(f"{exc}; pass --stationary to select it") from exc
    print(f"total_speed_m_s: {result.total_speed!r}")
    print(f"kinetic_energy_j: {result.kinetic_energy!r}")
    print(f"penetration_depth_m: {result.penetration_depth!r}")
    print(f"force_n: {result.force!r}")
    return 0


def cmd_force_stationary(args, config) -> int:
    """force-stationary, and force --stationary (which ignores --aircraft-speed)."""
    force = impact_force_stationary(
        args.mass, args.bird_speed, args.length,
        args.bird_density, args.aircraft_density, args.angle,
    )
    if args.command == "force":
        print("model: stationary-aircraft")
    print(f"force_n: {force!r}")
    return 0


def cmd_plan(args, config) -> int:
    gravity = _gravity_from(args, config)
    scale = _scale_from(args, config)
    registry = _registry_from(args, config)
    if args.all:
        selected = registry
    else:
        try:
            selected = [find_species(registry, name) for name in args.species]
        except KeyError as exc:
            raise _UsageError(str(exc.args[0])) from exc
    if not selected:
        raise _UsageError("nothing to plan: pass --species NAME (repeatable) or --all")
    plans = [
        make_drop_plan(species.flight_speed, args.cruise, scale, gravity, species.name)
        for species in selected
    ]
    fmt = _format_from(args, config, ("text", "csv"))
    if fmt == "csv":
        print("species,original_impact_velocity_m_s,original_drop_height_m,"
              "scaled_impact_velocity_m_s,scaled_drop_height_m,flags")
        for plan in plans:
            flags = "; ".join(plan_flags(plan))
            print(f"{plan.species_name},{plan.original_impact_velocity!r},"
                  f"{plan.original_drop_height!r},{plan.scaled_impact_velocity!r},"
                  f"{plan.scaled_drop_height!r},{flags}")
    else:
        header = (f"{'species':<18} {'original_v_m_s':>14} {'original_h_m':>12} "
                  f"{'scaled_v_m_s':>12} {'scaled_h_m':>10}  flags")
        print(header)
        for plan in plans:
            flags = "; ".join(plan_flags(plan)) or "-"
            print(f"{plan.species_name:<18} {plan.original_impact_velocity:>14.2f} "
                  f"{plan.original_drop_height:>12.2f} {plan.scaled_impact_velocity:>12.2f} "
                  f"{plan.scaled_drop_height:>10.2f}  {flags}")
    return 0


def cmd_drop_velocity(args, config) -> int:
    gravity = _gravity_from(args, config)
    drag_flags = (args.mass, args.cd, args.area)
    use_drag = any(value is not None for value in drag_flags)
    if use_drag and not all(value is not None for value in drag_flags):
        raise _UsageError("--mass, --cd and --area must be given together for the drag model")
    if args.time is not None and not use_drag:
        raise _UsageError("--time needs the drag model flags (--mass, --cd, --area)")
    if use_drag:
        params = DragParams(
            projectile_mass=args.mass,
            drag_coefficient=args.cd,
            reference_area=args.area,
            air_density=args.air_density,
            gravity=gravity,
        )
        if args.time is not None:
            velocity = impact_velocity_from_timing(args.time, params)
        else:
            velocity = impact_velocity_from_drop(args.height, params)
        print("model: quadratic-drag")
        print(f"terminal_velocity_m_s: {terminal_velocity(params)!r}")
    else:
        velocity = ideal_impact_velocity(args.height, gravity)
        print("model: ideal")
    print(f"impact_velocity_m_s: {velocity!r}")
    return 0


def cmd_design(args, config) -> int:
    registry = _registry_from(args, config)
    try:
        base = find_species(registry, args.species)
    except KeyError as exc:
        raise _UsageError(str(exc.args[0])) from exc
    specs = generate_projectile_set(base, args.solid_density, args.shell_fraction)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for spec in specs:
            path = out_dir / f"projectile_sn{spec.serial}.json"
            export_geometry(spec, path)
            print(path)
    else:
        print(json.dumps([geometry_payload(spec) for spec in specs], indent=2))
    return 0


def cmd_matrix(args, config) -> int:
    matrix = build_test_matrix(iterations_per_scenario=args.iterations)
    if args.out:
        write_matrix(matrix, args.out)
        print(args.out)
    else:
        sys.stdout.write(matrix_to_json(matrix))
    return 0


def cmd_analyze(args, config) -> int:
    gravity = _gravity_from(args, config)
    scale = _scale_from(args, config)
    split = _split_from(args, config)
    fmt = _format_from(args, config, ("csv", "json"))
    measurements_path = _resolve(args.measurements, config, "measurements", None)
    if measurements_path is None:
        raise _UsageError("no measurements file: pass --measurements or set it in the config")
    matrix = read_matrix(args.matrix) if args.matrix else build_test_matrix()
    materials = _materials_from(args, config)
    registry = _registry_from(args, config)
    try:
        base = find_species(registry, args.species)
    except KeyError as exc:
        raise _UsageError(str(exc.args[0])) from exc
    projectiles = {
        spec.serial: spec
        for spec in generate_projectile_set(base, args.solid_density, args.shell_fraction)
    }
    references = {}
    for scenario in matrix.scenarios:
        if scenario.projectile_serial not in projectiles:
            raise _UsageError(f"no projectile with serial {scenario.projectile_serial}")
        try:
            specimen = find_material(materials, scenario.specimen_material)
        except KeyError as exc:
            raise _UsageError(str(exc.args[0])) from exc
        references[scenario.id] = theoretical_reference(
            scenario,
            projectiles[scenario.projectile_serial],
            specimen,
            gravity=gravity,
            split=split,
            scale_factor=scale,
            cruise_speed=args.cruise,
            use_nominal_velocity=args.use_nominal,
        )
    measurements = ingest_measurements(measurements_path, matrix, strict=args.strict)
    try:
        report = conformance_report(matrix, references, measurements)
    except InvalidParameterError as exc:  # the files do not cover the matrix: a data error
        raise ParseError(f"{measurements_path}: {exc}") from exc
    rendered = render_report_csv(report) if fmt == "csv" else render_report_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(args.out)
    else:
        sys.stdout.write(rendered)
    mismatches = nominal_velocity_mismatches(matrix, gravity)
    for scenario_id, (nominal, recomputed) in sorted(mismatches.items()):
        print(
            f"note: scenario {scenario_id}: stored nominal velocity {nominal:g} m/s "
            f"differs from sqrt(2*g*h) = {recomputed:.2f} m/s; kept verbatim",
            file=sys.stderr,
        )
    return 0


def cmd_check_cert(args, config) -> int:
    limits = CertificationLimits(single_bird_force=args.single_limit,
                                 flock_force=args.flock_limit)
    verdict = check_certification(args.force, args.case, limits)
    print(f"case: {verdict.case}")
    print(f"force_n: {verdict.force!r}")
    print(f"limit_n: {verdict.limit!r}")
    print(f"verdict: {'PASS' if verdict.passed else 'FAIL'}")
    print(f"margin_n: {verdict.margin!r}")
    return 0


def cmd_sweep(args, config) -> int:
    scenario = _scenario_from_flags(args)
    try:
        values = [float(text) for text in args.values.split(",") if text.strip()]
    except ValueError:
        raise _UsageError(f"--values must be a comma-separated list of numbers, got {args.values!r}")
    if not values:
        raise _UsageError("--values is empty")
    rows = sensitivity_table(scenario, args.param, values)
    lines = ["value,force_n,percent_change"]
    lines += [f"{row.value!r},{row.force!r},{row.percent_change!r}" for row in rows]
    rendered = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(args.out)
    else:
        sys.stdout.write(rendered)
    note = PUBLISHED_DELTA_NOTES.get(args.param)
    if note:
        print(f"note: {note}", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birdstrike",
        description="Bird-strike impact force model and drop-test engineering toolkit.",
    )
    parser.add_argument("--config", help=f"config file path (default: ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("force", help="impact force for one scenario")
    _add_scenario_flags(p)
    p.add_argument("--stationary", action="store_true",
                   help="use the stationary-aircraft model (ignores --aircraft-speed)")
    p.set_defaults(func=cmd_force)

    p = sub.add_parser("force-stationary", help="impact force on a stationary aircraft")
    _add_scenario_flags(p, with_aircraft_speed=False)
    p.set_defaults(func=cmd_force_stationary)

    p = sub.add_parser("plan", help="drop heights and scaled velocities per species")
    p.add_argument("--species", action="append", default=[], help="species name (repeatable)")
    p.add_argument("--all", action="store_true", help="plan every species in the registry")
    p.add_argument("--registry", help="species CSV path (default: bundled set)")
    p.add_argument("--gravity", help="standard, paper or a number (m/s^2)")
    p.add_argument("--scale", type=float, help="velocity scale factor (default 15)")
    p.add_argument("--cruise", type=float, default=CRUISE_SPEED,
                   help="aircraft cruise speed, m/s (default 90)")
    p.add_argument("--format", choices=["text", "csv"], help="output format (default text)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("drop-velocity", help="impact velocity from drop height or fall time")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--height", type=float, help="drop height, m")
    group.add_argument("--time", type=float, help="recorded fall time, s")
    p.add_argument("--mass", type=float, help="projectile mass, kg (drag model)")
    p.add_argument("--cd", type=float, help="drag coefficient (drag model)")
    p.add_argument("--area", type=float, help="frontal reference area, m^2 (drag model)")
    p.add_argument("--air-density", type=float, default=1.225, help="air density, kg/m^3")
    p.add_argument("--gravity", help="standard, paper or a number (m/s^2)")
    p.set_defaults(func=cmd_drop_velocity)

    p = sub.add_parser("design", help="generate the five-projectile descriptor set")
    p.add_argument("--species", default="Starling", help="base species (default Starling)")
    p.add_argument("--registry", help="species CSV path (default: bundled set)")
    p.add_argument("--solid-density", type=float, default=ABS_FILAMENT_DENSITY,
                   help="solid filament density, kg/m^3")
    p.add_argument("--shell-fraction", type=float, default=0.0,
                   help="solid shell volume fraction (default 0: pure infill)")
    p.add_argument("--out", help="directory for projectile_sn*.json files (default: stdout)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("matrix", help="generate the drop-test matrix")
    p.add_argument("--iterations", type=int, default=15, help="iterations per scenario")
    p.add_argument("--out", help="output JSON path (default: stdout)")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("analyze", help="conformance report from measured forces")
    p.add_argument("--measurements", help="measurements CSV path")
    p.add_argument("--matrix", help="matrix JSON path (default: built-in matrix)")
    p.add_argument("--gravity", help="standard, paper or a number (m/s^2)")
    p.add_argument("--scale", type=float, help="velocity scale factor (default 15)")
    p.add_argument("--cruise", type=float, default=CRUISE_SPEED,
                   help="aircraft cruise speed, m/s (default 90)")
    p.add_argument("--split", choices=[s.value for s in VelocitySplit],
                   help="velocity split convention (default scaled-cruise)")
    p.add_argument("--use-nominal", action="store_true",
                   help="use stored nominal velocities instead of sqrt(2*g*h)")
    p.add_argument("--species", default="Starling", help="projectile base species")
    p.add_argument("--registry", help="species CSV path (default: bundled set)")
    p.add_argument("--materials", help="materials CSV path (default: built-in)")
    p.add_argument("--solid-density", type=float, default=ABS_FILAMENT_DENSITY,
                   help="solid filament density, kg/m^3")
    p.add_argument("--shell-fraction", type=float, default=0.0,
                   help="solid shell volume fraction (default 0)")
    p.add_argument("--strict", action="store_true",
                   help="unknown scenario ids in the measurements are errors")
    p.add_argument("--format", choices=["csv", "json"], help="report format (default csv)")
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check-cert", help="compare a force against certification limits")
    p.add_argument("--force", type=float, required=True, help="impact force, N")
    p.add_argument("--case", choices=["single-bird", "flock"], required=True)
    p.add_argument("--single-limit", type=float, default=2255.0,
                   help="single-bird threshold, N (default 2255)")
    p.add_argument("--flock-limit", type=float, default=4819.0,
                   help="flock threshold, N (default 4819)")
    p.set_defaults(func=cmd_check_cert)

    p = sub.add_parser("sweep", help="force sensitivity to one scenario parameter")
    _add_scenario_flags(p)
    p.add_argument("--param", required=True,
                   choices=["bird_mass", "bird_length", "bird_density", "bird_speed",
                            "aircraft_speed", "aircraft_density", "impact_angle"],
                   help="scenario field to vary")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
        config = load_config(config_path) if config_path else {}
        return args.func(args, config)
    except (_UsageError, InvalidParameterError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BirdstrikeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
