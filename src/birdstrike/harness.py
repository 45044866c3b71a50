"""Drop-test experiment harness.

Builds the test matrix (seven cases, nine scenarios, fifteen iterations each
by default), ingests per-iteration force measurements, computes theoretical
reference forces and renders theory-vs-experiment conformance reports:

    % error       = (theoretical - experimental) * 100 / theoretical
    % conformance = 100 - % error
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import warnings
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Mapping, Sequence

from ._table import read_json, read_table
from .errors import InvalidParameterError, ParseError, require
from .impact import ImpactScenario, _force_any_speed
from .kinematics import (DEFAULT_SCALE_FACTOR, GRAVITY_PRESETS, GRAVITY_STANDARD,
                         ideal_impact_velocity)
from .materials import CRUISE_SPEED, MaterialSpec, builtin_materials
from .projectile import ProjectileSpec, generate_projectile_set
from .species import bundled_species_registry, find_species

DEFAULT_ITERATIONS = 15
BASELINE_SPECIES = "Starling"

MEASUREMENTS_CSV_HEADER = ("scenario_id", "iteration", "force_n")
MEASUREMENTS_VELOCITY_COLUMN = "impact_velocity_m_s"
_MEASUREMENTS_COLUMNS = tuple(zip(MEASUREMENTS_CSV_HEADER, (str.strip, int, float)))
_MEASUREMENTS_VELOCITY = ((MEASUREMENTS_VELOCITY_COLUMN, float),)

REPORT_CSV_HEADER = (
    "scenario_id",
    "theoretical_n",
    "experimental_mean_n",
    "experimental_std_n",
    "percent_error",
    "percent_conformance",
)

# Stored nominal velocities are print-rounded; gaps beyond this are flagged
# as genuine inconsistencies rather than rounding.
NOMINAL_VELOCITY_TOLERANCE = 0.05  # m/s


@dataclass(frozen=True)
class TestScenario:
    """One row of the test matrix."""

    id: str
    case_number: int
    projectile_serial: int
    drop_height: float              # m
    nominal_impact_velocity: float  # m/s, stored verbatim, see nominal_velocity_mismatches
    impact_angle: float             # degrees
    specimen_material: str
    iterations: int

    def __post_init__(self) -> None:
        for name in ("id", "specimen_material"):  # a matrix JSON may hold any value
            value = getattr(self, name)
            if not isinstance(value, str):
                raise InvalidParameterError(f"{name} must be a string, got {value!r}")
        require("case_number", self.case_number, 1, 7, integer=True)
        require("projectile_serial", self.projectile_serial, 1, 5, integer=True)
        require("drop_height", self.drop_height, above=True)
        require("nominal_impact_velocity", self.nominal_impact_velocity)
        require("impact_angle", self.impact_angle, 0.0, 90.0, above=True)
        require("iterations", self.iterations, 1, integer=True)


@dataclass(frozen=True)
class TestMatrix:
    scenarios: tuple[TestScenario, ...]
    iterations_per_scenario: int = DEFAULT_ITERATIONS
    _by_id: dict[str, TestScenario] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require("iterations_per_scenario", self.iterations_per_scenario, 1, integer=True)
        if not self.scenarios:
            raise InvalidParameterError("a test matrix needs at least one scenario")
        by_id = {}
        for scenario in self.scenarios:
            if scenario.id in by_id:
                raise InvalidParameterError(f"duplicate scenario id {scenario.id!r}")
            by_id[scenario.id] = scenario
        object.__setattr__(self, "_by_id", by_id)

    @property
    def total_iterations(self) -> int:
        return sum(scenario.iterations for scenario in self.scenarios)

    @property
    def case_numbers(self) -> set[int]:
        return {scenario.case_number for scenario in self.scenarios}

    def scenario(self, scenario_id: str) -> TestScenario:
        try:
            return self._by_id[scenario_id]
        except KeyError:
            raise KeyError(f"unknown scenario id {scenario_id!r}") from None


# Default matrix rows: the shared baseline plus one variant per case (case 2
# has two). Nominal velocities are the published values, kept verbatim.
_ALUMINIUM = "Aluminium-2024-T3"
_DEFAULT_ROWS = (
    # id, case, serial, drop height, nominal velocity, angle, specimen
    ("baseline", 1, 1, 2.8, 7.49, 90.0, _ALUMINIUM),
    ("1", 1, 3, 2.8, 7.49, 90.0, _ALUMINIUM),
    ("2.1", 2, 1, 2.0, 6.44, 90.0, _ALUMINIUM),
    ("2.2", 2, 1, 1.5, 5.47, 90.0, _ALUMINIUM),
    ("3", 3, 2, 2.8, 7.49, 90.0, _ALUMINIUM),
    ("4", 4, 4, 2.8, 7.49, 90.0, _ALUMINIUM),
    ("5", 5, 1, 2.8, 7.49, 50.0, _ALUMINIUM),
    ("6", 6, 1, 2.8, 7.49, 90.0, "CFRP"),
    ("7", 7, 5, 2.8, 7.49, 90.0, _ALUMINIUM),
)


def build_test_matrix(
    projectiles: Sequence[ProjectileSpec] | None = None,
    materials: Sequence[MaterialSpec] | None = None,
    iterations_per_scenario: int = DEFAULT_ITERATIONS,
) -> TestMatrix:
    """Assemble the test matrix, validating projectile serials and materials.

    The default configuration yields 9 scenarios across 7 cases, 135
    iterations in total.
    """
    require("iterations_per_scenario", iterations_per_scenario, 1, integer=True)
    if projectiles is None:
        projectiles = generate_projectile_set(
            find_species(bundled_species_registry(), BASELINE_SPECIES))
    materials = list(materials) if materials is not None else builtin_materials()
    known_serials = {spec.serial for spec in projectiles}
    known_materials = {material.name for material in materials}
    scenarios = []
    for scenario_id, case, serial, height, velocity, angle, specimen in _DEFAULT_ROWS:
        if serial not in known_serials:
            raise InvalidParameterError(
                f"scenario {scenario_id!r} references unknown projectile serial {serial}"
            )
        if specimen not in known_materials:
            raise InvalidParameterError(
                f"scenario {scenario_id!r} references unknown material {specimen!r}"
            )
        scenarios.append(
            TestScenario(scenario_id, case, serial, height, velocity, angle,
                         specimen, iterations_per_scenario)
        )
    return TestMatrix(tuple(scenarios), iterations_per_scenario)


def matrix_to_json(matrix: TestMatrix) -> str:
    """Deterministic JSON rendering (identical matrices render byte-identical)."""
    payload = {
        "iterations_per_scenario": matrix.iterations_per_scenario,
        "scenarios": [
            {
                "id": s.id,
                "case_number": s.case_number,
                "projectile_serial": s.projectile_serial,
                "drop_height_m": s.drop_height,
                "nominal_impact_velocity_m_s": s.nominal_impact_velocity,
                "impact_angle_deg": s.impact_angle,
                "specimen_material": s.specimen_material,
                "iterations": s.iterations,
            }
            for s in matrix.scenarios
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def write_matrix(matrix: TestMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(matrix_to_json(matrix))


def read_matrix(path) -> TestMatrix:
    def build(payload) -> TestMatrix:
        scenarios = tuple(
            TestScenario(
                id=row["id"],
                case_number=row["case_number"],
                projectile_serial=row["projectile_serial"],
                drop_height=row["drop_height_m"],
                nominal_impact_velocity=row["nominal_impact_velocity_m_s"],
                impact_angle=row["impact_angle_deg"],
                specimen_material=row["specimen_material"],
                iterations=row["iterations"],
            )
            for row in payload["scenarios"]
        )
        return TestMatrix(scenarios, payload["iterations_per_scenario"])

    return read_json(path, build)


def nominal_velocity_mismatches(
    matrix: TestMatrix, gravity: float = GRAVITY_PRESETS["paper"]
) -> dict[str, tuple[float, float]]:
    """Scenarios whose stored nominal velocity disagrees with sqrt(2*g*h).

    Returns {scenario_id: (nominal, recomputed)}. With the default matrix and
    g = 10 only scenario 2.1 is flagged: its published velocity was carried
    over from the species plan instead of being recomputed for the 2.0 m drop.
    """
    mismatches = {}
    for scenario in matrix.scenarios:
        recomputed = ideal_impact_velocity(scenario.drop_height, gravity)
        if abs(recomputed - scenario.nominal_impact_velocity) > NOMINAL_VELOCITY_TOLERANCE:
            mismatches[scenario.id] = (scenario.nominal_impact_velocity, recomputed)
    return mismatches


class VelocitySplit(str, Enum):
    """How the drop velocity is split between bird and aircraft speed.

    The force model needs both terms but a drop only realises their sum, so
    the split is a modelling convention:

    - SCALED_CRUISE: aircraft speed is the cruise speed divided by the scale
      factor (6 m/s at 1:15), the bird gets the remainder. When the drop
      velocity is below the scaled cruise speed the whole velocity is treated
      as aircraft speed (equivalent to the stationary model at 90 deg).
    - ALL_AIRCRAFT: the whole drop velocity is the aircraft speed.
    """

    SCALED_CRUISE = "scaled-cruise"
    ALL_AIRCRAFT = "all-aircraft"


def theoretical_reference(
    scenario: TestScenario,
    projectile: ProjectileSpec,
    specimen: MaterialSpec,
    gravity: float = GRAVITY_STANDARD,
    split: VelocitySplit = VelocitySplit.SCALED_CRUISE,
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    cruise_speed: float = CRUISE_SPEED,
    use_nominal_velocity: bool = False,
) -> float:
    """Theoretical force for one scenario, in newtons.

    The impact velocity comes from the drop height (or the stored nominal
    value when use_nominal_velocity is set), is split into bird and aircraft
    speeds per the chosen convention, and is fed to the force model with the
    projectile's mass, length and effective density and the specimen density.
    An aircraft speed of 0 (cruise_speed 0) selects the stationary-aircraft model.
    """
    require("gravity", gravity, above=True)
    require("scale_factor", scale_factor, 1.0)
    require("cruise_speed", cruise_speed)
    if projectile.mass == 0:
        return 0.0
    velocity = (
        scenario.nominal_impact_velocity
        if use_nominal_velocity
        else ideal_impact_velocity(scenario.drop_height, gravity)
    )
    if split is VelocitySplit.ALL_AIRCRAFT:
        aircraft_speed = velocity
    else:
        aircraft_speed = min(cruise_speed / scale_factor, velocity)
    bird_speed = velocity - aircraft_speed
    model_scenario = ImpactScenario(
        bird_mass=projectile.mass,
        bird_length=projectile.shape.length,
        bird_density=projectile.effective_density,
        bird_speed=bird_speed,
        aircraft_speed=aircraft_speed,
        aircraft_density=specimen.density,
        impact_angle=scenario.impact_angle,
    )
    return _force_any_speed(model_scenario)


@dataclass(frozen=True)
class MeasurementSet:
    """Per-iteration force readings for one scenario."""

    scenario_id: str
    forces: tuple[float, ...]                          # N
    impact_velocities: tuple[float, ...] | None = None  # m/s, optional

    def __post_init__(self) -> None:
        if not self.forces:
            raise InvalidParameterError(f"scenario {self.scenario_id!r}: forces must be non-empty")
        for force in self.forces:
            if not 0.0 <= force < math.inf:  # once per row: call only to raise
                require("force", force, context=f"scenario {self.scenario_id!r}")
        for velocity in self.impact_velocities or ():
            if not 0.0 <= velocity < math.inf:
                require("impact_velocity", velocity, context=f"scenario {self.scenario_id!r}")


def ingest_measurements(
    path, matrix: TestMatrix | None = None, strict: bool = False
) -> list[MeasurementSet]:
    """Read a measurements CSV, grouped by scenario in first-appearance order.

    Forces and velocities must be finite and >= 0. With a matrix supplied,
    each of its scenarios in the file must have rows numbered 1..iterations
    once each, and unknown scenario ids warn (or raise in strict mode).
    """
    forces: dict[str, list[float]] = {}
    velocities: dict[str, list[float]] = {}
    # Per matrix scenario, one flag per iteration number seen (a list of the
    # numbers would hold an int per row); it also tells unknown ids apart. The
    # flags grow with the rows (to twice the highest iteration yet, at most the
    # declared count), so a huge declared count allocates nothing up front.
    declared = {} if matrix is None else {s.id: s.iterations for s in matrix.scenarios}
    seen = {scenario_id: bytearray(1) for scenario_id in declared}
    # Per scenario id, on first sight: (its flags, or None when unknown or with
    # no matrix; forces.append; velocities.append, or None without that column),
    # so a row costs one dict lookup.
    entries: dict[str, tuple] = {}
    row_no = 0
    try:
        for row_no, cells in read_table(path, _MEASUREMENTS_COLUMNS, _MEASUREMENTS_VELOCITY):
            scenario_id, iteration, force = cells[0], cells[1], cells[2]
            if not 0.0 <= force < math.inf:  # once per row: call only to raise
                require("force_n", force)
            entry = entries.get(scenario_id)
            if entry is None:
                add_velocity = None
                if len(cells) > len(_MEASUREMENTS_COLUMNS):
                    add_velocity = velocities.setdefault(scenario_id, []).append
                entry = entries[scenario_id] = (
                    seen.get(scenario_id), forces.setdefault(scenario_id, []).append, add_velocity)
            flags, add_force, add_velocity = entry
            if flags is not None:
                if 0 < iteration < len(flags) and not flags[iteration]:
                    flags[iteration] = 1
                elif len(flags) <= iteration <= declared[scenario_id]:
                    flags += bytes(min(2 * iteration, declared[scenario_id] + 1) - len(flags))
                    flags[iteration] = 1
                else:
                    raise ParseError(
                        f"{path}: row {row_no}: scenario {scenario_id!r}: iteration "
                        f"{iteration} repeats or is outside 1..{declared[scenario_id]}"
                    )
            elif matrix is not None:
                message = f"{path}: row {row_no}: scenario id {scenario_id!r} not in matrix"
                if strict:
                    raise ParseError(message)
                warnings.warn(message, stacklevel=2)
            add_force(force)
            if add_velocity is not None:
                velocity = cells[3]
                if not 0.0 <= velocity < math.inf:
                    require(MEASUREMENTS_VELOCITY_COLUMN, velocity)
                add_velocity(velocity)
    except InvalidParameterError as exc:
        raise ParseError(f"{path}: row {row_no}: {exc}") from None
    if matrix is not None:
        for scenario_id, values in forces.items():
            try:
                expected = matrix.scenario(scenario_id).iterations
            except KeyError:
                continue
            if len(values) != expected:
                raise ParseError(f"{path}: scenario {scenario_id!r} has {len(values)} "
                                 f"iterations, matrix expects {expected}")
    return [
        MeasurementSet(scenario_id, tuple(values),
                       tuple(velocities[scenario_id]) if velocities else None)
        for scenario_id, values in forces.items()
    ]


def scenario_stats(measurement: MeasurementSet) -> tuple[float, float]:
    """Arithmetic mean and sample (n-1) standard deviation of the forces.

    Both come from math.fsum, so they are the same bits on every Python
    version: the mean is fsum/n (equal to statistics.fmean), and the standard
    deviation uses the corrected two-pass sum of squares
    fsum(d*d) - fsum(d)**2/n with d = force - mean, which cancels the rounding
    of the mean and gives exactly 0 for constant forces. In seeded tests it is
    within 1 ULP of the exact value when the forces lie within a factor 2 of
    their mean, as a campaign's do, and within 2 ULP on forces spanning six
    decades; statistics.stdev may differ from it in the last digit. A single
    iteration yields standard deviation 0 by convention.

    Both are finite for any finite forces: where a sum would overflow, they
    come from the forces scaled by 2**-k, which is exact, and are scaled back.
    """
    forces = measurement.forces
    n = len(forces)
    try:
        mean = math.fsum(forces) / n
        if n == 1:
            return mean, 0.0
        deviations = list(map(operator.sub, forces, repeat(mean, n)))
        drift = math.fsum(deviations)
        squares = math.fsum(map(operator.mul, deviations, deviations))
        std = math.sqrt(max(squares - drift * drift / n, 0.0) / (n - 1))
        if math.isfinite(std):
            return mean, std
    except OverflowError:
        pass
    k = math.frexp(max(forces))[1]
    scaled = MeasurementSet(measurement.scenario_id, tuple(math.ldexp(f, -k) for f in forces))
    mean, std = scenario_stats(scaled)
    return math.ldexp(mean, k), math.ldexp(std, k)


def percent_error(theoretical: float, experimental: float) -> float:
    """Signed error (theoretical - experimental)*100/theoretical.

    Where (theoretical - experimental)*100 would overflow, the error is
    (theoretical - experimental)/theoretical*100 instead; an error beyond
    float range raises InvalidParameterError, so the result is always finite.
    """
    require("theoretical", theoretical, above=True)
    require("experimental", experimental)
    error = (theoretical - experimental) * 100.0 / theoretical
    if not math.isfinite(error):
        error = (theoretical - experimental) / theoretical * 100.0
        if not math.isfinite(error):
            raise InvalidParameterError(
                f"percent error of {experimental!r} N against {theoretical!r} N "
                "is beyond float range")
    return error


@dataclass(frozen=True)
class ScenarioConformance:
    scenario_id: str
    theoretical_force: float      # N
    experimental_mean: float      # N
    experimental_std: float       # N
    percent_error: float          # signed
    percent_conformance: float    # 100 - percent_error, may exceed 100
    percent_conformance_abs: float  # 100 - |percent_error|, secondary metric


@dataclass(frozen=True)
class ConformanceReport:
    scenarios: tuple[ScenarioConformance, ...]
    overall_mean_conformance: float
    overall_mean_conformance_abs: float


def conformance_report(
    matrix: TestMatrix,
    references: Mapping[str, float],
    measurements: Sequence[MeasurementSet],
) -> ConformanceReport:
    """Per-scenario and overall conformance between theory and measurement."""
    by_id = {measurement.scenario_id: measurement for measurement in measurements}
    rows = []
    for scenario in matrix.scenarios:
        if scenario.id not in references:
            raise InvalidParameterError(f"no theoretical reference for scenario {scenario.id!r}")
        if scenario.id not in by_id:
            raise InvalidParameterError(f"no measurements for scenario {scenario.id!r}")
        theoretical = references[scenario.id]
        mean, std = scenario_stats(by_id[scenario.id])
        try:
            error = percent_error(theoretical, mean)
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"scenario {scenario.id!r}: {exc}") from None
        rows.append(
            ScenarioConformance(scenario.id, theoretical, mean, std, error,
                                100.0 - error, 100.0 - abs(error))
        )
    overall = _mean([row.percent_conformance for row in rows])
    overall_abs = _mean([row.percent_conformance_abs for row in rows])
    return ConformanceReport(tuple(rows), overall, overall_abs)


def _mean(values: list[float]) -> float:
    """fsum(values)/len(values), finite for any finite values: where the sum
    would overflow, it is taken over the values scaled by 2**-k and scaled back."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        k = len(values).bit_length()
        return math.ldexp(math.fsum(math.ldexp(v, -k) for v in values) / len(values), k)


def render_report_csv(report: ConformanceReport) -> str:
    """CSV rendering: one row per scenario plus a final OVERALL row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REPORT_CSV_HEADER)
    for row in report.scenarios:
        writer.writerow(
            [
                row.scenario_id,
                repr(row.theoretical_force),
                repr(row.experimental_mean),
                repr(row.experimental_std),
                repr(row.percent_error),
                repr(row.percent_conformance),
            ]
        )
    writer.writerow(["OVERALL", "", "", "", "", repr(report.overall_mean_conformance)])
    return buffer.getvalue()


def render_report_json(report: ConformanceReport) -> str:
    """JSON rendering mirroring the CSV fields plus the secondary abs metric."""
    payload = {
        "scenarios": [
            {
                "scenario_id": row.scenario_id,
                "theoretical_n": row.theoretical_force,
                "experimental_mean_n": row.experimental_mean,
                "experimental_std_n": row.experimental_std,
                "percent_error": row.percent_error,
                "percent_conformance": row.percent_conformance,
                "percent_conformance_abs": row.percent_conformance_abs,
            }
            for row in report.scenarios
        ],
        "overall_mean_conformance": report.overall_mean_conformance,
        "overall_mean_conformance_abs": report.overall_mean_conformance_abs,
    }
    return json.dumps(payload, indent=2) + "\n"
