"""The records keep the value semantics they had as frozen dataclasses.

Every record class is covered: its repr (the strings below are the ones the
dataclass versions printed), hash over the field values, == only within one
class, no assignment or deletion, and _replace validating again.
"""

import argparse
import math
import re

import pytest

from birdstrike._record import Record
from birdstrike.cli import _build_parser
from birdstrike.errors import InvalidParameterError
from birdstrike.harness import ConformanceReport, MeasurementSet, ScenarioConformance
from birdstrike.harness import TestMatrix as Matrix  # aliased so pytest does not collect them
from birdstrike.harness import TestScenario as Scenario
from birdstrike.impact import (CertificationLimits, CertificationVerdict, ImpactResult,
                               ImpactScenario, SensitivityRow, sensitivity_table)
from birdstrike.kinematics import DragParams, DropPlan, PublishedPlan, terminal_velocity
from birdstrike.materials import MaterialSpec
from birdstrike.projectile import Cylinder, Ellipsoid, ProjectileSpec
from birdstrike.species import BirdSpecies

ROW = ScenarioConformance("s", 19.0, 18.0, 0.5, 5.0, 95.0, 95.0)
ROW_REPR = ("ScenarioConformance(scenario_id='s', theoretical_force=19.0, experimental_mean=18.0, "
            "experimental_std=0.5, percent_error=5.0, percent_conformance=95.0, "
            "percent_conformance_abs=95.0)")
ELLIPSOID = Ellipsoid(0.11, 0.02, 0.02)
MATRIX = Matrix((Scenario("1", 1, 3, 2.8, 7.49, 90.0, "CFRP", 2),), 2)
SCENARIO = ImpactScenario(0.085, 0.22, 1230.0, 22.35, 90.0, 2780.0, 90.0)

RECORDS = [
    (SCENARIO,
     "ImpactScenario(bird_mass=0.085, bird_length=0.22, bird_density=1230.0, bird_speed=22.35, "
     "aircraft_speed=90.0, aircraft_density=2780.0, impact_angle=90.0)"),
    (ImpactResult(1, 2, 3, 4),
     "ImpactResult(total_speed=1, kinetic_energy=2, penetration_depth=3, force=4)"),
    (CertificationLimits(), "CertificationLimits(single_bird_force=2255.0, flock_force=4819.0)"),
    (CertificationVerdict("flock", 10.0, 4819.0, True, 4809.0),
     "CertificationVerdict(case='flock', force=10.0, limit=4819.0, passed=True, margin=4809.0)"),
    (SensitivityRow(1.5, 20.0, -2.5), "SensitivityRow(value=1.5, force=20.0, percent_change=-2.5)"),
    (DropPlan("Starling", 112.35, 631.0, 15.0, 7.49, 2.8, 10.0),
     "DropPlan(species_name='Starling', original_impact_velocity=112.35, "
     "original_drop_height=631.0, scale_factor=15.0, scaled_impact_velocity=7.49, scaled_drop_height=2.8, gravity=10.0)"),
    (DragParams(0.1, 1.0, 0.01),
     "DragParams(projectile_mass=0.1, drag_coefficient=1.0, reference_area=0.01, "
     "air_density=1.225, gravity=9.80665)"),
    (PublishedPlan(103.41, 535.0, 6.89, 2.4),
     "PublishedPlan(original_velocity=103.41, original_height=535.0, scaled_velocity=6.89, "
     "scaled_height=2.4)"),
    (Scenario("baseline", 1, 1, 2.8, 7.49, 90.0, "CFRP", 15),
     "TestScenario(id='baseline', case_number=1, projectile_serial=1, drop_height=2.8, "
     "nominal_impact_velocity=7.49, impact_angle=90.0, specimen_material='CFRP', iterations=15)"),
    (MATRIX,
     "TestMatrix(scenarios=(TestScenario(id='1', case_number=1, projectile_serial=3, "
     "drop_height=2.8, nominal_impact_velocity=7.49, impact_angle=90.0, "
     "specimen_material='CFRP', iterations=2),), iterations_per_scenario=2)"),
    (MeasurementSet("s", (1.0, 2.5), (7.0, 7.5)),
     "MeasurementSet(scenario_id='s', forces=(1.0, 2.5), impact_velocities=(7.0, 7.5))"),
    (ROW, ROW_REPR),
    (ConformanceReport((ROW,), 95.0, 95.0),
     f"ConformanceReport(scenarios=({ROW_REPR},), overall_mean_conformance=95.0, "
     "overall_mean_conformance_abs=95.0)"),
    (Cylinder(0.02, 0.22), "Cylinder(radius=0.02, height=0.22)"),
    (ELLIPSOID, "Ellipsoid(a=0.11, b=0.02, c=0.02)"),
    (ProjectileSpec(5, ELLIPSOID, 1040.0, 0.15, 156.0, "Bird shape"),
     "ProjectileSpec(serial=5, shape=Ellipsoid(a=0.11, b=0.02, c=0.02), "
     "solid_material_density=1040.0, infill_fraction=0.15, effective_density=156.0, "
     "varying_factor='Bird shape')"),
    (BirdSpecies("Starling", 0.085, 0.22, 1230.0, 22.35),
     "BirdSpecies(name='Starling', mass=0.085, length=0.22, body_density=1230.0, "
     "flight_speed=22.35)"),
    (MaterialSpec("CFRP", 1167.6, 0.002),
     "MaterialSpec(name='CFRP', density=1167.6, thickness=0.002)"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


def values(record):
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_class_is_covered():
    assert sorted(IDS) == sorted(cls.__name__ for cls in Record.__subclasses__())
    assert len(IDS) == 18


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_hash_and_equality_over_the_fields(record, _):
    twin = type(record)(*values(record))
    assert twin == record and not twin != record and twin is not record
    assert hash(record) == hash(twin) == hash(values(record))
    assert record._asdict() == dict(zip(record._fields, values(record)))
    assert record != values(record)


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(record, _):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equality_is_per_class():
    assert ImpactResult(1, 2, 3, 4) != (1, 2, 3, 4)
    assert (1, 2, 3, 4) != ImpactResult(1, 2, 3, 4)
    assert ImpactResult(1.0, 2.0, 3.0, 4.0) != PublishedPlan(1.0, 2.0, 3.0, 4.0)
    assert ImpactResult.__eq__(ImpactResult(1, 2, 3, 4), (1, 2, 3, 4)) is NotImplemented


def test_replace_validates_again():
    assert SCENARIO._replace(bird_mass=0.1) == ImpactScenario(0.1, *values(SCENARIO)[1:])
    with pytest.raises(InvalidParameterError, match="^bird_mass must be >= 0, got nan$"):
        SCENARIO._replace(bird_mass=math.nan)
    with pytest.raises(InvalidParameterError, match="duplicate scenario id"):
        MATRIX._replace(scenarios=MATRIX.scenarios * 2)
    with pytest.raises(TypeError):
        SCENARIO._replace(wingspan=1.0)


def test_replace_recomputes_drag_caches():
    params = DragParams(0.1, 1.0, 0.01)
    moon = params._replace(gravity=1.62)
    fresh = DragParams(0.1, 1.0, 0.01, gravity=1.62)
    assert terminal_velocity(moon) == terminal_velocity(fresh) != terminal_velocity(params)
    assert moon._distance_scale == fresh._distance_scale != params._distance_scale
    with pytest.raises(InvalidParameterError, match="^fall-distance scale"):
        DragParams(1e299, 1e-4, 1e-4, 1.0, 1e-10)._replace(projectile_mass=1e300)


def test_matrix_lookup_table_is_not_a_field():
    assert MATRIX._fields == ("scenarios", "iterations_per_scenario")
    assert MATRIX.scenario("1") is MATRIX.scenarios[0]
    assert MATRIX._replace(iterations_per_scenario=3).scenario("1") is MATRIX.scenarios[0]


def test_scenario_fields_are_the_sweep_parameters():
    fields = ("bird_mass", "bird_length", "bird_density", "bird_speed", "aircraft_speed",
              "aircraft_density", "impact_angle")
    assert ImpactScenario._fields == fields
    (commands,) = [action for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    (param,) = [action for action in commands.choices["sweep"]._actions if action.dest == "param"]
    assert param.help == "scenario field to vary: " + ", ".join(fields)
    with pytest.raises(InvalidParameterError, match=re.escape(f"choose from {sorted(fields)}")):
        sensitivity_table(SCENARIO, "wingspan", [1.0])
