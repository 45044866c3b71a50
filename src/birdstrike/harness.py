"""Drop-test experiment harness.

The constant test matrix (7 cases, 9 scenarios, 15 iterations each by
default), ingest of per-iteration force measurements, theoretical reference
forces and theory-vs-experiment conformance reports:

    % error       = (theoretical - experimental) * 100 / theoretical
    % conformance = 100 - % error
"""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Mapping, Sequence
from contextlib import suppress
from enum import Enum
from itertools import repeat

from ._record import NON_NEGATIVE, POSITIVE, TEXT, Record
from .errors import InvalidParameterError, ParseError, require
from .impact import ImpactScenario, _force_any_speed
from .kinematics import (DEFAULT_SCALE_FACTOR, GRAVITY_PRESETS, GRAVITY_STANDARD,
                         ideal_impact_velocity)
from .materials import CRUISE_SPEED, MaterialSpec, find_material
from .projectile import ProjectileSpec

DEFAULT_ITERATIONS = 15

_MEASUREMENTS_COLUMNS = (("scenario_id", str.strip), ("iteration", int), ("force_n", float))
_MEASUREMENTS_VELOCITY = (("impact_velocity_m_s", float),)

# Stored nominal velocities are print-rounded; gaps beyond this are flagged
# as genuine inconsistencies rather than rounding.
NOMINAL_VELOCITY_TOLERANCE = 0.05  # m/s


class TestScenario(Record):
    """One row of the test matrix."""

    id: str
    case_number: int
    projectile_serial: int
    drop_height: float              # m
    nominal_impact_velocity: float  # m/s, stored verbatim, see nominal_velocity_mismatches
    impact_angle: float             # degrees
    specimen_material: str
    iterations: int
    _ranges = dict(id=TEXT, specimen_material=TEXT, case_number=(1, 7, False),
                   projectile_serial=(1, 5, False), drop_height=POSITIVE,
                   nominal_impact_velocity=NON_NEGATIVE, impact_angle=(0.0, 90.0, True),
                   iterations=(1, math.inf, False))


# The matrix JSON file format: each TestScenario field and its key, in file order.
_SCENARIO_KEYS = dict(zip(TestScenario._fields, (
    "id", "case_number", "projectile_serial", "drop_height_m", "nominal_impact_velocity_m_s",
    "impact_angle_deg", "specimen_material", "iterations")))


def _rows_by_id(rows, row_class, what: str, row_id) -> dict:
    """The rows of a matrix or a report by id: at least one, each a row_class, no id twice."""
    if not rows:
        raise InvalidParameterError(f"a {what} needs at least one scenario")
    by_id = {}
    for row in rows:
        if not isinstance(row, row_class):
            raise InvalidParameterError(f"a {what} holds {row_class.__name__} rows, got {row!r}")
        key = row_id(row)
        if key in by_id:
            raise InvalidParameterError(f"duplicate scenario id {key!r}")
        by_id[key] = row
    return by_id


class TestMatrix(Record):
    scenarios: tuple[TestScenario, ...]

    def __post_init__(self) -> None:
        by_id = _rows_by_id(self.scenarios, TestScenario, "test matrix", operator.attrgetter("id"))
        self.__dict__.update(_by_id=by_id)

    def scenario(self, scenario_id: str) -> TestScenario:
        try:
            return self._by_id[scenario_id]
        except KeyError:
            raise InvalidParameterError(f"unknown scenario id {scenario_id!r}") from None


# Default matrix rows: the shared baseline plus one variant per case (case 2
# has two). Nominal velocities are the published values, kept verbatim. A test
# holds each serial to the projectile set and each specimen to the built-ins.
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


def build_test_matrix(iterations_per_scenario: int = DEFAULT_ITERATIONS) -> TestMatrix:
    """The paper's test matrix, built from the constant table _DEFAULT_ROWS.

    It has 9 scenarios across 7 cases, 135 iterations in total by default.
    """
    require("iterations_per_scenario", iterations_per_scenario, 1, integer=True)
    scenarios = tuple(TestScenario(*row, iterations_per_scenario) for row in _DEFAULT_ROWS)
    return TestMatrix(scenarios)


def matrix_to_json(matrix: TestMatrix) -> str:
    """Deterministic JSON rendering (identical matrices render byte-identical)."""
    from ._table import render_json
    return render_json({
        "scenarios": [{key: getattr(scenario, field) for field, key in _SCENARIO_KEYS.items()}
                      for scenario in matrix.scenarios],
    })


def read_matrix(path) -> TestMatrix:
    from ._table import read_json

    def build(payload) -> TestMatrix:
        scenarios = tuple(TestScenario(*[row[key] for key in _SCENARIO_KEYS.values()])
                          for row in payload["scenarios"])
        return TestMatrix(scenarios)

    return read_json(path, build)


def nominal_velocity_mismatches(
    matrix: TestMatrix, gravity: float = GRAVITY_PRESETS["paper"]
) -> dict[str, tuple[float, float]]:
    """Scenarios whose stored nominal velocity disagrees with sqrt(2*g*h).

    Returns {scenario_id: (nominal, recomputed)}. With the default matrix and
    g = 10 only scenario 2.1 is flagged: its published velocity was carried
    over from the species plan instead of being recomputed for the 2.0 m drop.
    A drop height whose sqrt(2*g*h) leaves float range raises, naming its scenario.
    """
    require("gravity", gravity, above=True)
    mismatches = {}
    for scenario in matrix.scenarios:
        try:
            recomputed = ideal_impact_velocity(scenario.drop_height, gravity)
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"scenario {scenario.id!r}: {exc}") from None
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
    split: VelocitySplit | str = VelocitySplit.SCALED_CRUISE,
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
    split = _check_reference_settings(gravity, split, scale_factor, cruise_speed)
    if projectile.mass == 0:
        return 0.0
    if use_nominal_velocity:
        velocity = scenario.nominal_impact_velocity
    else:
        velocity = ideal_impact_velocity(scenario.drop_height, gravity)
    cap = math.inf if split is VelocitySplit.ALL_AIRCRAFT else cruise_speed / scale_factor
    aircraft_speed = min(cap, velocity)  # all-aircraft: an unbounded aircraft share
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


def _check_reference_settings(gravity, split, scale_factor, cruise_speed) -> VelocitySplit:
    """theoretical_reference's checks of the settings, split first; analyze makes them first."""
    if split not in tuple(VelocitySplit):  # a member, or its value: members are strs
        raise InvalidParameterError(
            f"velocity_split must be one of {[s.value for s in VelocitySplit]}, got {split!r}")
    require("gravity", gravity, above=True)
    require("scale_factor", scale_factor, 1.0)
    require("cruise_speed", cruise_speed)
    return VelocitySplit(split)


class MeasurementSet(Record):
    """Per-iteration force readings for one scenario."""

    scenario_id: str
    forces: tuple[float, ...]                          # N
    impact_velocities: tuple[float, ...] | None = None  # m/s, optional
    _ranges = dict(scenario_id=TEXT)

    def __post_init__(self) -> None:
        if not self.forces:
            raise InvalidParameterError(f"scenario {self.scenario_id!r}: forces must be non-empty")
        if self.impact_velocities is not None and len(self.impact_velocities) != len(self.forces):
            raise InvalidParameterError(
                f"scenario {self.scenario_id!r}: {len(self.impact_velocities)} impact velocities "
                f"for {len(self.forces)} forces")
        for force in self.forces:  # the guard rule of errors.require
            if not (force.__class__ is float and 0.0 <= force < math.inf):
                require("force", force, context=f"scenario {self.scenario_id!r}")
        for velocity in self.impact_velocities or ():
            if not (velocity.__class__ is float and 0.0 <= velocity < math.inf):
                require("impact_velocity", velocity, context=f"scenario {self.scenario_id!r}")


def ingest_measurements(path, matrix: TestMatrix, strict: bool = False) -> list[MeasurementSet]:
    """Read a measurements CSV, grouped by scenario in first-appearance order.

    Forces and velocities must be finite and >= 0. Every row is checked against
    the matrix: each of its scenarios in the file must have rows numbered
    1..iterations once each, and unknown scenario ids warn (or raise in strict mode).
    Ingest holds one copy of the data: each scenario's lists go once its set is built.
    """
    from ._table import read_batches
    # Per scenario id, from its first row: (one flag per iteration number seen, or
    # None for an id not in the matrix; forces; velocities, or None without that
    # column). The flags grow with the rows, to twice the highest iteration yet and
    # at most the declared count: nothing is allocated up front, but one row's
    # iteration sizes them, and a zeroed block of the added size is made first, so
    # a matrix declaring 10**9 iterations lets one row take about 2 GB.
    entries: dict[str, tuple] = {}
    row_no = 0
    try:
        for numbers, columns in read_batches(path, _MEASUREMENTS_COLUMNS, _MEASUREMENTS_VELOCITY):
            if len(columns) == len(_MEASUREMENTS_COLUMNS):
                columns.append(repeat(None))  # no velocity column
            for row_no, scenario_id, iteration, force, velocity in zip(numbers, *columns):
                if not 0.0 <= force < math.inf:  # once per row: call only to raise
                    require("force_n", force)
                entry = entries.get(scenario_id)
                if entry is None:
                    entry = entries[scenario_id] = (
                        bytearray(1) if scenario_id in matrix._by_id else None, [],
                        None if velocity is None else [])
                flags, forces, velocities = entry
                if flags is None:
                    message = f"{path}: row {row_no}: scenario id {scenario_id!r} not in matrix"
                    if strict:
                        raise ParseError(message)
                    warnings.warn(message, stacklevel=2)
                elif 0 < iteration < len(flags) and not flags[iteration]:
                    flags[iteration] = 1
                else:
                    declared = matrix._by_id[scenario_id].iterations
                    if not len(flags) <= iteration <= declared:
                        raise ParseError(f"{path}: row {row_no}: scenario {scenario_id!r}: "
                                         f"iteration {iteration} repeats or is outside "
                                         f"1..{declared}")
                    try:
                        flags += bytes(min(2 * iteration, declared + 1) - len(flags))
                    except (OverflowError, MemoryError):
                        raise ParseError(f"{path}: row {row_no}: scenario {scenario_id!r}: "
                                         f"iteration {iteration} is too large to check "
                                         "for repeats") from None
                    flags[iteration] = 1
                forces.append(force)
                if velocities is not None:
                    if not 0.0 <= velocity < math.inf:
                        require("impact_velocity_m_s", velocity)
                    velocities.append(velocity)
    except InvalidParameterError as exc:
        raise ParseError(f"{path}: row {row_no}: {exc}") from None
    measurements = []
    for scenario_id in list(entries):
        flags, forces, velocities = entries.pop(scenario_id)
        if flags is not None:
            expected = matrix.scenario(scenario_id).iterations
            if len(forces) != expected:
                raise ParseError(f"{path}: scenario {scenario_id!r} has {len(forces)} "
                                 f"iterations, matrix expects {expected}")
        measurements.append(_checked_measurement_set(
            scenario_id, tuple(forces), None if velocities is None else tuple(velocities)))
    return measurements


def _checked_measurement_set(scenario_id: str, forces: tuple[float, ...],
                             velocities: tuple[float, ...] | None) -> MeasurementSet:
    """A MeasurementSet built without __post_init__, whose forces and velocities
    ingest_measurements has already checked row by row."""
    measurement = object.__new__(MeasurementSet)
    measurement.__dict__.update(scenario_id=scenario_id, forces=forces,
                                impact_velocities=velocities)
    return measurement


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
    if not (theoretical.__class__ is float and 0.0 < theoretical < math.inf  # guard rule
            and experimental.__class__ is float and 0.0 <= experimental < math.inf):
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


class ScenarioConformance(Record):
    scenario_id: str
    theoretical_force: float  # N
    experimental_mean: float  # N
    experimental_std: float   # N
    _ranges = dict(scenario_id=TEXT, experimental_std=NON_NEGATIVE)

    def __post_init__(self) -> None:  # a row is built only with a finite percent error
        percent_error(self.theoretical_force, self.experimental_mean)

    @property
    def percent_error(self) -> float:  # signed
        return percent_error(self.theoretical_force, self.experimental_mean)

    @property
    def percent_conformance(self) -> float:  # 100 - percent_error, may exceed 100
        return 100.0 - self.percent_error

    @property
    def percent_conformance_abs(self) -> float:  # 100 - |percent_error|, secondary metric
        return 100.0 - abs(self.percent_error)


# The report file format: each ScenarioConformance value's attribute and its key, in file order.
_REPORT_KEYS = dict(scenario_id="scenario_id", theoretical_force="theoretical_n",
                    experimental_mean="experimental_mean_n", experimental_std="experimental_std_n",
                    percent_error="percent_error", percent_conformance="percent_conformance",
                    percent_conformance_abs="percent_conformance_abs")
REPORT_CSV_HEADER = tuple(_REPORT_KEYS.values())[:-1]  # the CSV has no abs column


class ConformanceReport(Record):
    scenarios: tuple[ScenarioConformance, ...]

    def __post_init__(self) -> None:
        _rows_by_id(self.scenarios, ScenarioConformance, "conformance report",
                    operator.attrgetter("scenario_id"))

    @property
    def overall_mean_conformance(self) -> float:
        return _mean([row.percent_conformance for row in self.scenarios])

    @property
    def overall_mean_conformance_abs(self) -> float:
        return _mean([row.percent_conformance_abs for row in self.scenarios])


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
        mean, std = scenario_stats(by_id[scenario.id])
        try:
            rows.append(ScenarioConformance(scenario.id, references[scenario.id], mean, std))
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"scenario {scenario.id!r}: {exc}") from None
    return ConformanceReport(tuple(rows))


def _mean(values: list[float]) -> float:
    """fsum(values)/len(values), finite for any finite values: where the sum
    would overflow, it is taken over the values scaled by 2**-k and scaled back."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        k = len(values).bit_length()
        return math.ldexp(math.fsum(math.ldexp(v, -k) for v in values) / len(values), k)


def analyze(matrix: TestMatrix, projectiles: Sequence[ProjectileSpec],
            materials: Sequence[MaterialSpec], measurements_path, *, gravity=GRAVITY_STANDARD,
            split=VelocitySplit.SCALED_CRUISE, scale_factor=DEFAULT_SCALE_FACTOR,
            cruise_speed=CRUISE_SPEED, use_nominal_velocity=False,
            strict=False) -> tuple[ConformanceReport, dict[str, tuple[float, float]]]:
    """Run analyze's stages (settings, velocities, each scenario's material and reference,
    ingest, report) for the report and nominal_velocity_mismatches, {} unless g = 10. A
    stage's InvalidParameterError becomes one whose .inputs names the arguments it read."""
    prefix, inputs = "", ()
    try:
        split = _check_reference_settings(gravity, split, scale_factor, cruise_speed)
        try:
            mismatches = nominal_velocity_mismatches(matrix, gravity)
            if not math.isclose(gravity, GRAVITY_PRESETS["paper"]):
                mismatches = {}  # every matrix tabulates its nominal velocities at g = 10
        except InvalidParameterError:
            with suppress(InvalidParameterError):  # blame the matrix only if the built-in passes
                nominal_velocity_mismatches(build_test_matrix(), gravity)
                inputs = ("matrix",)
            raise
        by_serial = {spec.serial: spec for spec in projectiles}
        references = {}
        for scenario in matrix.scenarios:
            prefix, inputs = f"scenario {scenario.id!r}: ", ("matrix", "materials")
            material = find_material(materials, scenario.specimen_material)
            inputs += ("projectiles",)
            serial = scenario.projectile_serial
            if serial not in by_serial:
                raise InvalidParameterError(f"unknown projectile serial {serial}")
            references[scenario.id] = reference = theoretical_reference(
                scenario, by_serial[serial], material, gravity, split, scale_factor,
                cruise_speed, use_nominal_velocity)
            require("theoretical", reference, above=True)  # as the report's percent_error needs
        prefix, inputs = "", ("measurements_path",)
        report = conformance_report(matrix, references,
                                    ingest_measurements(measurements_path, matrix, strict))
    except InvalidParameterError as exc:
        error = InvalidParameterError(f"{prefix}{exc}")
        error.inputs = inputs
        raise error from exc
    return report, mismatches


def render_report_csv(report: ConformanceReport) -> str:
    """CSV rendering: one row per scenario plus a final OVERALL row."""
    from ._table import render_csv
    rows, numbers = [REPORT_CSV_HEADER], tuple(_REPORT_KEYS)[1:len(REPORT_CSV_HEADER)]
    for row in report.scenarios:
        rows.append([row.scenario_id, *[repr(getattr(row, number)) for number in numbers]])
    rows.append(["OVERALL", *[""] * (len(REPORT_CSV_HEADER) - 2),
                 repr(report.overall_mean_conformance)])
    return render_csv(rows)


def render_report_json(report: ConformanceReport) -> str:
    """JSON rendering mirroring the CSV fields plus the secondary abs metric."""
    from ._table import render_json
    return render_json({
        "scenarios": [{key: getattr(row, field) for field, key in _REPORT_KEYS.items()}
                      for row in report.scenarios],
        "overall_mean_conformance": report.overall_mean_conformance,
        "overall_mean_conformance_abs": report.overall_mean_conformance_abs,
    })
