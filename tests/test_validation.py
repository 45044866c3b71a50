"""One range check for every physical input of a function, and for the forces
and velocities of a MeasurementSet.

Each row names a function with numeric inputs (or MeasurementSet, which checks
its forces and velocities in __post_init__), a valid set of keyword arguments,
the values on the edge of the domain that must still be accepted, and one
out-of-range value per input. NaN, +inf, -inf and the out-of-range value must
each raise InvalidParameterError whose message starts with "{name} must be".
The ranges of every record's fields are checked by the differential test in
test_record_checks.py.
"""

import math
import re

import pytest

from birdstrike.errors import InvalidParameterError
from birdstrike.harness import (
    MeasurementSet,
    TestScenario as Scenario,  # aliased so pytest does not try to collect it
    build_test_matrix,
    nominal_velocity_mismatches,
    percent_error,
    theoretical_reference,
)
from birdstrike.impact import (
    ImpactScenario,
    check_certification,
    impact_force_stationary,
    sensitivity_table,
)
from birdstrike.kinematics import (
    DragParams,
    drag_fall_distance,
    fall_time_for_drop,
    ideal_impact_velocity,
    impact_velocity_from_drop,
    impact_velocity_from_timing,
    make_drop_plan,
    required_drop_height,
)
from birdstrike.materials import ALUMINIUM_2024_T3
from birdstrike.projectile import (
    cylinder_radius_for,
    effective_density,
    generate_projectile_set,
    round_sig,
)
from birdstrike.species import BirdSpecies

from valid_records import INSTANCES

BY_NAME = {cls.__name__: record for cls, record in INSTANCES.items()}
STARLING, SCENARIO = INSTANCES[BirdSpecies], INSTANCES[ImpactScenario]
DRAG = DragParams(0.0108, 1.15, 3.14159e-4)
MATRIX_ROW = Scenario("baseline", 1, 1, 2.8, 7.49, 90.0, "Aluminium-2024-T3", 15)
PROJECTILE = generate_projectile_set(STARLING)[0]


ROWS = {
    "impact_force_stationary": (
        impact_force_stationary,
        {k: v for k, v in SCENARIO._asdict().items() if k != "aircraft_speed"},
        dict(bird_mass=0.0, impact_angle=0.0),
        dict(bird_mass=-1.0, bird_speed=-1.0, bird_length=0.0, bird_density=0.0,
             aircraft_density=0.0, impact_angle=91.0),
    ),
    "sensitivity_table": (
        lambda bird_mass: sensitivity_table(SCENARIO, "bird_mass", [bird_mass]),
        dict(bird_mass=0.1), dict(bird_mass=0.0), dict(bird_mass=-1.0),
    ),
    "check_certification": (
        lambda force: check_certification(force, "single-bird"),
        dict(force=100.0), dict(force=0.0), dict(force=-1.0),
    ),
    "ideal_impact_velocity": (
        ideal_impact_velocity, dict(height=2.8, gravity=9.81), dict(height=0.0),
        dict(height=-1.0, gravity=0.0),
    ),
    "required_drop_height": (
        required_drop_height, dict(bird_speed=22.35, aircraft_speed=90.0, gravity=9.81),
        dict(bird_speed=0.0),
        dict(bird_speed=-1.0, aircraft_speed=-1.0, gravity=-9.81),
    ),
    "make_drop_plan": (
        make_drop_plan, dict(bird_speed=22.35, aircraft_speed=90.0, scale_factor=15.0,
                             gravity=9.81),
        dict(scale_factor=1.0),
        dict(bird_speed=-1.0, aircraft_speed=-1.0, scale_factor=0.99, gravity=0.0),
    ),
    "drag_fall_distance": (
        lambda time: drag_fall_distance(time, DRAG), dict(time=0.7), dict(time=0.0),
        dict(time=-1.0),
    ),
    "impact_velocity_from_timing": (
        lambda time: impact_velocity_from_timing(time, DRAG), dict(time=0.7), dict(time=0.0),
        dict(time=-1.0),
    ),
    "fall_time_for_drop": (
        lambda height: fall_time_for_drop(height, DRAG), dict(height=2.8), dict(height=0.0),
        dict(height=-1.0),
    ),
    "impact_velocity_from_drop": (
        lambda height: impact_velocity_from_drop(height, DRAG), dict(height=2.8),
        dict(height=0.0), dict(height=-1.0),
    ),
    "round_sig": (
        lambda digits: round_sig(0.0115, digits), dict(digits=2), dict(digits=1),
        dict(digits=0),
    ),
    "cylinder_radius_for": (
        cylinder_radius_for, dict(mass=0.085, body_density=1230.0, length=0.22), {},
        dict(mass=0.0, body_density=0.0, length=-1.0),
    ),
    "effective_density": (
        effective_density, dict(solid_density=1040.0, infill_fraction=0.15, shell_fraction=0.1),
        dict(infill_fraction=0.0, shell_fraction=1.0),
        dict(solid_density=0.0, infill_fraction=1.5, shell_fraction=-0.1),
    ),
    "generate_projectile_set": (
        lambda solid_density, shell_fraction: generate_projectile_set(
            STARLING, solid_density, shell_fraction),
        dict(solid_density=1040.0, shell_fraction=0.0), dict(shell_fraction=1.0),
        dict(solid_density=-1.0, shell_fraction=1.5),
    ),
    "build_test_matrix": (
        lambda iterations_per_scenario: build_test_matrix(
            iterations_per_scenario=iterations_per_scenario),
        dict(iterations_per_scenario=15), dict(iterations_per_scenario=1),
        dict(iterations_per_scenario=0),
    ),
    "theoretical_reference": (
        lambda **options: theoretical_reference(MATRIX_ROW, PROJECTILE, ALUMINIUM_2024_T3,
                                                use_nominal_velocity=True, **options),
        dict(gravity=9.81, scale_factor=15.0, cruise_speed=90.0),
        dict(scale_factor=1.0),
        dict(gravity=-1.0, scale_factor=0.0, cruise_speed=-1.0),
    ),
    "nominal_velocity_mismatches": (
        lambda gravity: nominal_velocity_mismatches(build_test_matrix(), gravity),
        dict(gravity=10.0), {}, dict(gravity=0.0),
    ),
    "MeasurementSet force": (
        lambda force: MeasurementSet("x", (1.0, force)), dict(force=5.0), dict(force=0.0),
        dict(force=-1.0),
    ),
    "MeasurementSet impact_velocity": (
        lambda impact_velocity: MeasurementSet("x", (1.0,), (impact_velocity,)),
        dict(impact_velocity=7.3), dict(impact_velocity=0.0), dict(impact_velocity=-7.3),
    ),
    "percent_error": (
        percent_error, dict(theoretical=10.0, experimental=9.0), dict(experimental=0.0),
        dict(theoretical=0.0, experimental=-1.0),
    ),
}


@pytest.mark.parametrize("build, valid, edges, bad", ROWS.values(), ids=ROWS.keys())
def test_range_check(build, valid, edges, bad):
    build(**valid)
    for name, value in edges.items():
        build(**{**valid, name: value})
    for name, out_of_range in bad.items():
        for value in (math.nan, math.inf, -math.inf, True, out_of_range):
            with pytest.raises(InvalidParameterError, match=f"^{name} must be"):
                build(**{**valid, name: value})




# The counts of a test matrix, a projectile serial and round_sig's digits must
# be ints: a float such as 2.0 or a bool would otherwise pass the range check.
# Each case is a row of ROWS, or a record's valid instance in valid_records.py, and a field.
INTEGER_FIELDS = [("TestScenario", "case_number"), ("TestScenario", "projectile_serial"),
                  ("TestScenario", "iterations"), ("build_test_matrix", "iterations_per_scenario"),
                  ("ProjectileSpec", "serial"), ("round_sig", "digits")]


@pytest.mark.parametrize("row, name", INTEGER_FIELDS, ids=map(" ".join, INTEGER_FIELDS))
@pytest.mark.parametrize("value", [2.0, 1.5, True, "2"])
def test_count_must_be_an_integer(row, name, value):
    build, valid, _, _ = ROWS[row] if row in ROWS else (BY_NAME[row]._replace, {}, {}, {})
    message = re.escape(f"{name} must be an integer, got {value!r}")
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        build(**{**valid, name: value})
