"""One range check for every physical input.

Each row names a public constructor or function with numeric inputs, a valid
set of keyword arguments, the values on the edge of the domain that must
still be accepted, and one out-of-range value per input. NaN, +inf, -inf and
the out-of-range value must each raise InvalidParameterError whose message
starts with "{name} must be".
"""

import math
import re

import pytest

from birdstrike.errors import InvalidParameterError
from birdstrike.harness import (
    MeasurementSet,
    TestMatrix as Matrix,  # aliased so pytest does not try to collect them
    TestScenario as Scenario,
    build_test_matrix,
    nominal_velocity_mismatches,
    percent_error,
    theoretical_reference,
)
from birdstrike.impact import (
    CertificationLimits,
    ImpactScenario,
    check_certification,
    impact_force_stationary,
    scale_scenario,
    sensitivity_table,
)
from birdstrike.kinematics import (
    DragParams,
    DropPlan,
    drag_fall_distance,
    fall_time_for_drop,
    ideal_impact_velocity,
    impact_velocity_from_drop,
    impact_velocity_from_timing,
    make_drop_plan,
    required_drop_height,
)
from birdstrike.materials import ALUMINIUM_2024_T3, MaterialSpec
from birdstrike.projectile import (
    Cylinder,
    Ellipsoid,
    ProjectileSpec,
    cylinder_radius_for,
    effective_density,
    generate_projectile_set,
    round_sig,
)
from birdstrike.species import BirdSpecies

STARLING = BirdSpecies("Starling", 0.085, 0.22, 1230.0, 22.35)
SCENARIO = ImpactScenario(0.085, 0.22, 1230.0, 22.35, 90.0, 2780.0, 90.0)
SCENARIO_FIELDS = dict(bird_mass=0.085, bird_length=0.22, bird_density=1230.0, bird_speed=22.35,
                       aircraft_speed=90.0, aircraft_density=2780.0, impact_angle=90.0)
DRAG = DragParams(0.0108, 1.15, 3.14159e-4)
CYLINDER = Cylinder(0.01, 0.22)
MATRIX_ROW = Scenario("baseline", 1, 1, 2.8, 7.49, 90.0, "Aluminium-2024-T3", 15)
PROJECTILE = generate_projectile_set(STARLING)[0]


def scenario_row(**fields):
    return Scenario(**{"id": "x", "case_number": 1, "projectile_serial": 1,
                           "specimen_material": "Aluminium-2024-T3", **fields})


def spec_row(**fields):
    fields.setdefault("mass", fields["effective_density"] * CYLINDER.volume())
    return ProjectileSpec(shape=CYLINDER, varying_factor="x", **fields)


ROWS = {
    "ImpactScenario": (
        ImpactScenario, SCENARIO_FIELDS,
        dict(bird_mass=0.0, impact_angle=0.0),
        dict(bird_mass=-1.0, bird_length=0.0, bird_density=0.0, bird_speed=-1.0,
             aircraft_speed=-1.0, aircraft_density=0.0, impact_angle=90.5),
    ),
    "impact_force_stationary": (
        impact_force_stationary,
        {k: v for k, v in SCENARIO_FIELDS.items() if k != "aircraft_speed"},
        dict(bird_mass=0.0, impact_angle=0.0),
        dict(bird_mass=-1.0, bird_speed=-1.0, bird_length=0.0, bird_density=0.0,
             aircraft_density=0.0, impact_angle=91.0),
    ),
    "scale_scenario": (
        lambda velocity_factor: scale_scenario(SCENARIO, velocity_factor),
        dict(velocity_factor=2.0), {}, dict(velocity_factor=0.0),
    ),
    "sensitivity_table": (
        lambda bird_mass: sensitivity_table(SCENARIO, "bird_mass", [bird_mass]),
        dict(bird_mass=0.1), dict(bird_mass=0.0), dict(bird_mass=-1.0),
    ),
    "CertificationLimits": (
        CertificationLimits, {}, {},
        dict(single_bird_force=0.0, flock_force=-1.0),
    ),
    "check_certification": (
        lambda force: check_certification(force, "single-bird"),
        dict(force=100.0), dict(force=0.0), dict(force=-1.0),
    ),
    "DropPlan": (
        DropPlan, dict(species_name="x", original_impact_velocity=15.0, original_drop_height=11.0,
                       scale_factor=1.0, scaled_impact_velocity=15.0, scaled_drop_height=11.0,
                       gravity=9.81),
        {},
        dict(original_impact_velocity=-1.0, original_drop_height=-1.0, scale_factor=0.5,
             scaled_impact_velocity=-1.0, scaled_drop_height=-1.0, gravity=0.0),
    ),
    "DragParams": (
        DragParams, dict(projectile_mass=0.0108, drag_coefficient=1.15, reference_area=3e-4),
        {},
        dict(projectile_mass=0.0, drag_coefficient=0.0, reference_area=-1.0, air_density=0.0,
             gravity=0.0),
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
    "Cylinder": (Cylinder, dict(radius=0.01, height=0.22), {}, dict(radius=0.0, height=-1.0)),
    "Ellipsoid": (Ellipsoid, dict(a=0.1, b=0.01, c=0.01), {}, dict(a=-1.0, b=0.0, c=0.0)),
    "ProjectileSpec": (
        spec_row, dict(serial=1, solid_material_density=1040.0, infill_fraction=0.15,
                       effective_density=156.0),
        dict(infill_fraction=1.0, effective_density=0.0),
        dict(serial=0, solid_material_density=0.0, infill_fraction=1.5,
             effective_density=-1.0, mass=-1.0),
    ),
    "BirdSpecies": (
        lambda **fields: BirdSpecies("x", **fields),
        dict(mass=0.085, length=0.22, body_density=1230.0, flight_speed=22.35),
        dict(flight_speed=0.0),
        dict(mass=0.0, length=0.0, body_density=-1.0, flight_speed=-1.0),
    ),
    "MaterialSpec": (
        lambda **fields: MaterialSpec("x", **fields), dict(density=2780.0, thickness=0.002), {},
        dict(density=0.0, thickness=0.0),
    ),
    "TestScenario": (
        scenario_row, dict(drop_height=2.8, nominal_impact_velocity=7.49, impact_angle=90.0,
                           iterations=15),
        dict(nominal_impact_velocity=0.0, iterations=1),
        dict(case_number=8, projectile_serial=0, drop_height=0.0, nominal_impact_velocity=-1.0,
             impact_angle=0.0, iterations=0),
    ),
    # A JSON matrix can hold ints too large for a float; they must not
    # escape as OverflowError. Ints that a float can hold are accepted.
    "TestScenario int beyond float range": (
        scenario_row, dict(drop_height=2.8, nominal_impact_velocity=7.49, impact_angle=90.0,
                           iterations=15),
        dict(drop_height=10**300, iterations=10**300),
        dict(drop_height=10**400, iterations=10**400),
    ),
    "TestMatrix": (
        lambda iterations_per_scenario: Matrix((MATRIX_ROW,), iterations_per_scenario),
        dict(iterations_per_scenario=15), dict(iterations_per_scenario=1),
        dict(iterations_per_scenario=0),
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
        for value in (math.nan, math.inf, -math.inf, out_of_range):
            with pytest.raises(InvalidParameterError, match=f"^{name} must be"):
                build(**{**valid, name: value})




# The counts of a test matrix must be ints: a float such as 2.0 or a bool
# would otherwise pass the range check. Each case is a row of ROWS and a field.
INTEGER_FIELDS = [("TestScenario", "case_number"), ("TestScenario", "projectile_serial"),
                  ("TestScenario", "iterations"), ("TestMatrix", "iterations_per_scenario"),
                  ("build_test_matrix", "iterations_per_scenario")]


@pytest.mark.parametrize("row, name", INTEGER_FIELDS, ids=map(" ".join, INTEGER_FIELDS))
@pytest.mark.parametrize("value", [2.0, 1.5, True, "2"])
def test_count_must_be_an_integer(row, name, value):
    build, valid, _, _ = ROWS[row]
    message = re.escape(f"{name} must be an integer, got {value!r}")
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        build(**{**valid, name: value})
