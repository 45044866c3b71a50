"""One valid instance of every record class, with its repr, and one random valid scenario.

The reprs are the ones the dataclass versions printed (ReferenceSettings never
was a dataclass; its split prints as the member it stores). test_records
checks each record's value semantics on these instances, and test_record_checks
builds each range-checked record from its instance's fields. random_scenario
is the one draw of a random ImpactScenario that the model tests and the
acceptance criteria share. This file is not collected by pytest (its name does
not start with test_).
"""

from birdstrike.harness import (ConformanceReport, MeasurementSet, ReferenceSettings,
                                ScenarioConformance)
from birdstrike.harness import TestMatrix, TestScenario
from birdstrike.impact import (CertificationLimits, CertificationVerdict, ImpactResult,
                               ImpactScenario, SensitivityRow)
from birdstrike.kinematics import DragParams, DropPlan
from birdstrike.materials import MaterialSpec
from birdstrike.projectile import Cylinder, Ellipsoid, ProjectileSpec
from birdstrike.species import BirdSpecies

ROW = ScenarioConformance("s", 20.0, 19.0, 0.5)
ROW_REPR = ("ScenarioConformance(scenario_id='s', theoretical_force=20.0, experimental_mean=19.0, "
            "experimental_std=0.5)")
ELLIPSOID = Ellipsoid(0.11, 0.02, 0.02)

RECORDS = [
    (ImpactScenario(0.085, 0.22, 1230.0, 22.35, 90.0, 2780.0, 90.0),
     "ImpactScenario(bird_mass=0.085, bird_length=0.22, bird_density=1230.0, bird_speed=22.35, "
     "aircraft_speed=90.0, aircraft_density=2780.0, impact_angle=90.0)"),
    (ImpactResult(1, 2, 3, 4),
     "ImpactResult(total_speed=1, kinetic_energy=2, penetration_depth=3, force=4)"),
    (CertificationLimits(), "CertificationLimits(single_bird_force=2255.0, flock_force=4819.0)"),
    (CertificationVerdict("flock", 10.0, 4819.0),
     "CertificationVerdict(case='flock', force=10.0, limit=4819.0)"),
    (SensitivityRow(1.5, 20.0, -2.5), "SensitivityRow(value=1.5, force=20.0, percent_change=-2.5)"),
    (DropPlan("Starling", 22.35, 90.0, 15.0, 10.0),
     "DropPlan(species_name='Starling', bird_speed=22.35, aircraft_speed=90.0, "
     "scale_factor=15.0, gravity=10.0)"),
    (DragParams(0.1, 1.0, 0.01),
     "DragParams(projectile_mass=0.1, drag_coefficient=1.0, reference_area=0.01, "
     "air_density=1.225, gravity=9.80665)"),
    (TestScenario("baseline", 1, 1, 2.8, 7.49, 90.0, "CFRP", 15),
     "TestScenario(id='baseline', case_number=1, projectile_serial=1, drop_height=2.8, "
     "nominal_impact_velocity=7.49, impact_angle=90.0, specimen_material='CFRP', iterations=15)"),
    (TestMatrix((TestScenario("1", 1, 3, 2.8, 7.49, 90.0, "CFRP", 2),)),
     "TestMatrix(scenarios=(TestScenario(id='1', case_number=1, projectile_serial=3, "
     "drop_height=2.8, nominal_impact_velocity=7.49, impact_angle=90.0, "
     "specimen_material='CFRP', iterations=2),))"),
    (MeasurementSet("s", (1.0, 2.5), (7.0, 7.5)),
     "MeasurementSet(scenario_id='s', forces=(1.0, 2.5), impact_velocities=(7.0, 7.5))"),
    (ROW, ROW_REPR),
    (ConformanceReport((ROW,)), f"ConformanceReport(scenarios=({ROW_REPR},))"),
    (ReferenceSettings(10.0, "all-aircraft", 20.0, 0.0, True),
     "ReferenceSettings(gravity=10.0, split=<VelocitySplit.ALL_AIRCRAFT: 'all-aircraft'>, "
     "scale_factor=20.0, cruise_speed=0.0, use_nominal_velocity=True)"),
    (Cylinder(0.02, 0.22), "Cylinder(radius=0.02, height=0.22)"),
    (ELLIPSOID, "Ellipsoid(a=0.11, b=0.02, c=0.02)"),
    (ProjectileSpec(5, ELLIPSOID, 1040.0, 0.15, 0.0, "Bird shape"),
     "ProjectileSpec(serial=5, shape=Ellipsoid(a=0.11, b=0.02, c=0.02), "
     "solid_material_density=1040.0, infill_fraction=0.15, shell_fraction=0.0, "
     "varying_factor='Bird shape')"),
    (BirdSpecies("Starling", 0.085, 0.22, 1230.0, 22.35),
     "BirdSpecies(name='Starling', mass=0.085, length=0.22, body_density=1230.0, "
     "flight_speed=22.35)"),
    (MaterialSpec("CFRP", 1167.6), "MaterialSpec(name='CFRP', density=1167.6)"),
]
INSTANCES = {type(record): record for record, _ in RECORDS}


def random_scenario(rng):
    """A valid ImpactScenario drawn from rng, with an aircraft speed above 0."""
    return ImpactScenario(
        bird_mass=rng.uniform(0.01, 10.0),
        bird_length=rng.uniform(0.05, 1.5),
        bird_density=rng.uniform(500.0, 2000.0),
        bird_speed=rng.uniform(0.0, 60.0),
        aircraft_speed=rng.uniform(0.1, 150.0),
        aircraft_density=rng.uniform(800.0, 8000.0),
        impact_angle=rng.uniform(0.0, 90.0),
    )
