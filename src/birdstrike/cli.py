"""Command-line front end.

Exit codes: 0 success; 2 for an invalid flag or config value, including any
InvalidParameterError the library raises on one; 1 for a bad input file
(ParseError), the singular moving-aircraft model, or I/O. harness.analyze names
the inputs a failing stage read and the CLI blames their files; if none was
given, a flag is at fault (exit 2). A key=value config file (BIRDSTRIKE_CONFIG
or --config) supplies defaults; flags override. A plain call (a subcommand, then
its exact flags, each with a value that does not start with "-") is parsed from
the flag table without argparse; any other call goes to the argparse parser.
"""

import os
import sys
import warnings
from contextlib import contextmanager
from types import SimpleNamespace

from .errors import BirdstrikeError, InvalidParameterError, ParseError, StationaryAircraftError
from .harness import (
    DEFAULT_ITERATIONS,
    ReferenceSettings,
    VelocitySplit,
    analyze,
    build_test_matrix,
    matrix_to_json,
    read_matrix,
    render_report_csv,
    render_report_json,
)
from .impact import (
    CERTIFICATION_CASES,
    DEFAULT_LIMITS,
    CertificationLimits,
    ImpactScenario,
    PUBLISHED_DELTA_NOTES,
    check_certification,
    impact_force,
    impact_force_stationary,
    sensitivity_table,
)
from .kinematics import (
    DEFAULT_AIR_DENSITY,
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
from .materials import CRUISE_SPEED, builtin_materials, load_materials
from .projectile import (
    ABS_FILAMENT_DENSITY,
    effective_density,
    export_geometry,
    generate_projectile_set,
    geometry_payload,
)
from .species import bundled_species_registry, find_species, load_species_registry

CONFIG_ENV_VAR = "BIRDSTRIKE_CONFIG"
# Each config key and the destination of the flag whose default it supplies.
CONFIG_KEYS = {
    "gravity": "gravity",
    "scale_factor": "scale",
    "species": "registry",
    "materials": "materials",
    "measurements": "measurements",
    "velocity_split": "split",
    "format": "format",
}
# The formats each command accepts; the first is the default.
PLAN_FORMATS = ("text", "csv")
REPORT_FORMATS = ("csv", "json")


def load_config(path) -> dict[str, str]:
    """Parse a key = value config file (# starts a comment)."""
    config: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidParameterError(f"{path}: line {line_no}: expected key = value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in CONFIG_KEYS:
                    raise InvalidParameterError(
                        f"{path}: line {line_no}: unknown key {key!r}; "
                        f"known keys: {', '.join(CONFIG_KEYS)}"
                    )
                config[key] = value.strip()
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return config


def _gravity(args) -> float:
    text = "standard" if args.gravity is None else args.gravity
    if text in GRAVITY_PRESETS:
        return GRAVITY_PRESETS[text]
    try:
        return float(text)
    except ValueError:
        raise InvalidParameterError(
            f"gravity must be {', '.join(sorted(GRAVITY_PRESETS))} or a number, got {text!r}"
        ) from None


def _scale(args) -> float:
    if args.scale is None:
        return DEFAULT_SCALE_FACTOR
    try:
        return float(args.scale)
    except ValueError:
        raise InvalidParameterError(f"scale_factor must be a number, got {args.scale!r}") from None


def _format(args, accepted: tuple[str, ...]) -> str:
    """The output format; the first accepted one is the default."""
    text = accepted[0] if args.format is None else args.format
    if text not in accepted:
        raise InvalidParameterError(f"format must be {' or '.join(accepted)}, got {text!r}")
    return text


def _choices_help(what: str, accepted) -> str:
    """Help text for a value checked by the library or _format; the first is the default."""
    return f"{what}: {' or '.join(accepted)} (default {accepted[0]})"


@contextmanager
def _blame(*paths, prefix=""):
    """Turn an InvalidParameterError in the block into a ParseError naming
    every given path, or into a usage error when no path was given."""
    try:
        yield
    except InvalidParameterError as exc:
        message = f"{prefix}{exc}"
        given = ", ".join(path for path in paths if path)
        if not given:
            raise InvalidParameterError(message) from exc
        raise ParseError(f"{given}: {message}") from exc


def _registry(args):
    if args.registry is None:
        return bundled_species_registry()
    return load_species_registry(args.registry)


def _projectile_set(args):
    base = find_species(_registry(args), args.species)
    effective_density(args.solid_density, 0.0, args.shell_fraction)  # a bad flag is not the file's
    with _blame(args.registry, prefix=f"species {base.name!r}: "):
        return generate_projectile_set(base, args.solid_density, args.shell_fraction)


def _emit(rendered: str, out) -> None:
    """Write rendered to the --out path and print the path, or write it to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(out)
    else:
        sys.stdout.write(rendered)


def _note(message, *_warning_details) -> None:
    """Print a data-quality note to stderr; main installs it as warnings.showwarning."""
    print(f"note: {message}", file=sys.stderr)


def _scenario_from_flags(args) -> ImpactScenario:
    return ImpactScenario(args.mass, args.length, args.bird_density, args.bird_speed,
                          args.aircraft_speed, args.aircraft_density, args.angle)


def cmd_force(args) -> int:
    scenario = _scenario_from_flags(args)
    try:
        result = impact_force(scenario)
    except StationaryAircraftError as exc:
        raise StationaryAircraftError(f"{exc}; run the force-stationary command for it") from exc
    print(f"total_speed_m_s: {result.total_speed!r}")
    print(f"kinetic_energy_j: {result.kinetic_energy!r}")
    print(f"penetration_depth_m: {result.penetration_depth!r}")
    print(f"force_n: {result.force!r}")
    return 0


def cmd_force_stationary(args) -> int:
    force = impact_force_stationary(
        args.mass, args.bird_speed, args.length,
        args.bird_density, args.aircraft_density, args.angle,
    )
    print(f"force_n: {force!r}")
    return 0


def cmd_plan(args) -> int:
    gravity = _gravity(args)
    scale = _scale(args)
    registry = _registry(args)
    selected = registry if args.all else [find_species(registry, name)
                                           for name in args.species or ()]
    if not selected:
        raise InvalidParameterError("nothing to plan: pass --species NAME (repeatable) or --all")
    plans = [
        make_drop_plan(species.flight_speed, args.cruise, scale, gravity, species.name)
        for species in selected
    ]
    if _format(args, PLAN_FORMATS) == "csv":
        from ._table import render_csv  # the file layer loads only where CSV or JSON is written
        sys.stdout.write(render_csv([
            ("species", "original_impact_velocity_m_s", "original_drop_height_m",
             "scaled_impact_velocity_m_s", "scaled_drop_height_m", "flags"),
            *((plan.species_name, repr(plan.original_impact_velocity),
               repr(plan.original_drop_height), repr(plan.scaled_impact_velocity),
               repr(plan.scaled_drop_height), "; ".join(plan_flags(plan)))
              for plan in plans)]))
    else:
        print(f"{'species':<18} {'original_v_m_s':>14} {'original_h_m':>12} "
              f"{'scaled_v_m_s':>12} {'scaled_h_m':>10}  flags")
        for plan in plans:
            flags = "; ".join(plan_flags(plan)) or "-"
            print(f"{plan.species_name:<18} {plan.original_impact_velocity:>14.2f} "
                  f"{plan.original_drop_height:>12.2f} {plan.scaled_impact_velocity:>12.2f} "
                  f"{plan.scaled_drop_height:>10.2f}  {flags}")
    return 0


def cmd_drop_velocity(args) -> int:
    gravity = _gravity(args)
    drag_flags = (args.mass, args.cd, args.area)
    use_drag = any(value is not None for value in drag_flags)
    if use_drag and not all(value is not None for value in drag_flags):
        raise InvalidParameterError(
            "--mass, --cd and --area must be given together for the drag model")
    for flag, value in (("--time", args.time), ("--air-density", args.air_density)):
        if value is not None and not use_drag:
            raise InvalidParameterError(f"{flag} needs the drag model flags (--mass, --cd, --area)")
    if use_drag:
        params = DragParams(
            projectile_mass=args.mass,
            drag_coefficient=args.cd,
            reference_area=args.area,
            air_density=DEFAULT_AIR_DENSITY if args.air_density is None else args.air_density,
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


def cmd_design(args) -> int:
    specs = _projectile_set(args)
    if args.out:
        from pathlib import Path  # only --out needs it: every other call skips its import
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for spec in specs:
            path = out_dir / f"projectile_sn{spec.serial}.json"
            export_geometry(spec, path)
            print(path)
    else:
        from ._table import render_json
        sys.stdout.write(render_json([geometry_payload(spec) for spec in specs]))
    return 0


def cmd_matrix(args) -> int:
    _emit(matrix_to_json(build_test_matrix(iterations_per_scenario=args.iterations)), args.out)
    return 0


def cmd_analyze(args) -> int:
    gravity = _gravity(args)
    scale = _scale(args)
    split = ReferenceSettings.split if args.split is None else args.split
    fmt = _format(args, REPORT_FORMATS)
    if args.measurements is None:
        raise InvalidParameterError(
            "no measurements file: pass --measurements or set it in the config")
    # the settings are checked before any file is read
    settings = ReferenceSettings(gravity, split, scale, args.cruise, args.use_nominal)
    matrix = read_matrix(args.matrix) if args.matrix else build_test_matrix()
    materials = builtin_materials() if args.materials is None else load_materials(args.materials)
    projectiles = _projectile_set(args)
    files = {**vars(args), "projectiles": args.registry, "measurements_path": args.measurements}
    try:
        report, mismatches = analyze(
            matrix, projectiles, materials, args.measurements, strict=args.strict,
            **settings._asdict())
    except InvalidParameterError as exc:  # blame the files of the inputs its stage read
        with _blame(*map(files.get, exc.inputs)):
            raise
    _emit(render_report_csv(report) if fmt == "csv" else render_report_json(report), args.out)
    for scenario_id, (nominal, recomputed) in mismatches.items():
        _note(f"scenario {scenario_id}: stored nominal velocity {nominal:g} m/s "
              f"differs from sqrt(2*g*h) = {recomputed:.3g} m/s; kept verbatim")
    return 0


def cmd_check_cert(args) -> int:
    limits = CertificationLimits(single_bird_force=args.single_limit,
                                 flock_force=args.flock_limit)
    verdict = check_certification(args.force, args.case, limits)
    print(f"case: {verdict.case}")
    print(f"force_n: {verdict.force!r}")
    print(f"limit_n: {verdict.limit!r}")
    print(f"verdict: {'PASS' if verdict.passed else 'FAIL'}")
    print(f"margin_n: {verdict.margin!r}")
    return 0


def cmd_sweep(args) -> int:
    scenario = _scenario_from_flags(args)
    try:
        values = [float(text) for text in args.values.split(",") if text.strip()]
    except ValueError:
        raise InvalidParameterError(
            f"--values must be a comma-separated list of numbers, got {args.values!r}")
    if not values:
        raise InvalidParameterError("--values is empty")
    rows = sensitivity_table(scenario, args.param, values)
    from ._table import render_csv
    _emit(render_csv([("value", "force_n", "percent_change"),
                      *((repr(row.value), repr(row.force), repr(row.percent_change))
                        for row in rows)]), args.out)
    note = PUBLISHED_DELTA_NOTES.get(args.param)
    if note:
        _note(note)
    return 0


# Flags shared by several commands, each declared once as (flag, add_argument options).
_BIRD = [(flag, dict(type=float, required=True, help=help))
         for flag, help in (("--mass", "bird mass, kg"), ("--length", "bird length, m"),
                            ("--bird-density", "bird body density, kg/m^3"),
                            ("--aircraft-density", "specimen density, kg/m^3"),
                            ("--bird-speed", "bird speed, m/s"),
                            ("--angle", "impact angle, degrees (90 = head-on)"))]
_MOVING = [*_BIRD,
           ("--aircraft-speed", dict(type=float, required=True, help="aircraft speed, m/s"))]
_GRAVITY = [("--gravity", dict(help="standard, paper or a number (m/s^2)"))]
_CRUISE = [("--scale", dict(help=f"velocity scale factor (default {DEFAULT_SCALE_FACTOR:g})")),
           ("--cruise", dict(type=float, default=CRUISE_SPEED,
                             help=f"aircraft cruise speed, m/s (default {CRUISE_SPEED:g})"))]
_REGISTRY = [("--registry", dict(help="species CSV path (default: bundled set)"))]
_PROJECTILE = [
    *_REGISTRY,
    ("--species", dict(default="Starling", help="projectile base species (default Starling)")),
    ("--solid-density", dict(type=float, default=ABS_FILAMENT_DENSITY,
                             help="solid filament density, kg/m^3")),
    ("--shell-fraction", dict(type=float, default=0.0,
                              help="solid shell volume fraction (default 0: pure infill)"))]

# Each subcommand, in the order the parser lists them: its function, its help, its
# flags as (flag, add_argument options) in help order, and its mutually exclusive groups
# as (required, flags). _build_parser and _parse_plain both read this one table.
_COMMANDS = {
    "force": (cmd_force, "impact force for one scenario", _MOVING, ()),
    "force-stationary": (cmd_force_stationary, "impact force on a stationary aircraft", _BIRD, ()),
    "plan": (cmd_plan, "drop heights and scaled velocities per species", [
        *_REGISTRY, *_GRAVITY, *_CRUISE,
        ("--species", dict(action="append", help="species name (repeatable)")),
        ("--all", dict(action="store_true", help="plan every species in the registry")),
        ("--format", dict(help=_choices_help("output format", PLAN_FORMATS)))],
        [(False, ("--species", "--all"))]),
    "drop-velocity": (cmd_drop_velocity, "impact velocity from drop height or fall time", [
        *_GRAVITY,
        ("--height", dict(type=float, help="drop height, m")),
        ("--time", dict(type=float, help="recorded fall time, s")),
        ("--mass", dict(type=float, help="projectile mass, kg (drag model)")),
        ("--cd", dict(type=float, help="drag coefficient (drag model)")),
        ("--area", dict(type=float, help="frontal reference area, m^2 (drag model)")),
        ("--air-density", dict(type=float, help="air density, kg/m^3 (drag model; "
                                                f"default {DEFAULT_AIR_DENSITY:g})"))],
        [(True, ("--height", "--time"))]),
    "design": (cmd_design, "generate the five-projectile descriptor set", [
        *_PROJECTILE,
        ("--out", dict(help="directory for projectile_sn*.json files (default: stdout)"))], ()),
    "matrix": (cmd_matrix, "generate the drop-test matrix", [
        ("--iterations", dict(type=int, default=DEFAULT_ITERATIONS,
                              help=f"iterations per scenario (default {DEFAULT_ITERATIONS})")),
        ("--out", dict(help="output JSON path (default: stdout)"))], ()),
    "analyze": (cmd_analyze, "conformance report from measured forces", [
        *_GRAVITY, *_CRUISE, *_PROJECTILE,
        ("--measurements", dict(help="measurements CSV path")),
        ("--matrix", dict(help="matrix JSON path (default: built-in matrix)")),
        ("--split", dict(help=_choices_help("velocity split convention",
                                            [s.value for s in VelocitySplit]))),
        ("--use-nominal", dict(action="store_true",
                               help="use stored nominal velocities instead of sqrt(2*g*h)")),
        ("--materials", dict(help="materials CSV path (default: built-in)")),
        ("--strict", dict(action="store_true",
                          help="unknown scenario ids in the measurements are errors")),
        ("--format", dict(help=_choices_help("report format", REPORT_FORMATS))),
        ("--out", dict(help="report path (default: stdout)"))], ()),
    "check-cert": (cmd_check_cert, "compare a force against certification limits", [
        ("--force", dict(type=float, required=True, help="impact force, N")),
        ("--case", dict(required=True,
                        help=f"certification case: {' or '.join(CERTIFICATION_CASES)}")),
        ("--single-limit", dict(type=float, default=DEFAULT_LIMITS.single_bird_force,
                                help="single-bird threshold, N "
                                     f"(default {DEFAULT_LIMITS.single_bird_force:g})")),
        ("--flock-limit", dict(type=float, default=DEFAULT_LIMITS.flock_force,
                               help="flock threshold, N "
                                    f"(default {DEFAULT_LIMITS.flock_force:g})"))], ()),
    "sweep": (cmd_sweep, "force sensitivity to one scenario parameter", [
        *_MOVING,
        ("--param", dict(required=True,
                         help="scenario field to vary: " + ", ".join(ImpactScenario._fields))),
        ("--values", dict(required=True, help="comma-separated values")),
        ("--out", dict(help="output CSV path (default: stdout)"))], ()),
}


def _build_parser():
    """The CLI's argparse parser."""
    import argparse  # a plain argv (see _parse_plain) never needs it

    parser = argparse.ArgumentParser(
        prog="birdstrike",
        description="Bird-strike impact force model and drop-test engineering toolkit.",
    )
    parser.add_argument("--config", help=f"config file path (default: ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, flags, groups) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        group_of = {}
        for required, members in groups:
            group = p.add_mutually_exclusive_group(required=required)
            group_of.update(dict.fromkeys(members, group))
        for flag, options in flags:
            group_of.get(flag, p).add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def _parse_plain(argv):
    """The namespace the parser gives a plain argv; None for any other argv.

    A plain argv is a command, then exact flags of that command, each value flag followed
    by one value that does not start with "-". Every required flag and group is given and
    no exclusive group twice. Everything else (--help, an error, an abbreviation,
    --flag=value, a negative number, --config) goes to argparse and its messages.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, flags, groups = _COMMANDS[argv[0]]
    declared, given = dict(flags), {}
    words = iter(argv[1:])
    for flag in words:
        options = declared.get(flag)
        if options is None:
            return None
        action = options.get("action")
        if action == "store_true":
            given[flag] = True
            continue
        text = next(words, "-")  # a missing value is declined as a "-" one is
        if text.startswith("-"):
            return None
        try:
            value = options.get("type", str)(text)
        except ValueError:
            return None
        given[flag] = [*given.get(flag, ()), value] if action == "append" else value
    if any(options.get("required") and flag not in given for flag, options in flags):
        return None
    for required, members in groups:
        count = sum(flag in given for flag in members)
        if count > 1 or required and not count:
            return None
    args = SimpleNamespace(config=None, command=argv[0], func=func)
    for flag, options in flags:
        default = False if options.get("action") == "store_true" else options.get("default")
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
        config = load_config(config_path) if config_path else {}
        # A config value fills a flag the command has but was not given.
        for key, dest in CONFIG_KEYS.items():
            if key in config and getattr(args, dest, False) is None:
                setattr(args, dest, config[key])
        with warnings.catch_warnings():
            # the library's data-quality warnings; -W error still turns any other into an error
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = _note
            return args.func(args)
    except InvalidParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (BirdstrikeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
