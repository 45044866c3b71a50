"""Acceptance suite: one test per release criterion, each printing a PASS line.

Every tolerance is pinned here. Expected values are frozen from the published
reference tables or computed with the independent oracles in oracles.py.
"""

import csv
import io
import math
import random
import time
from dataclasses import replace

import pytest

from birdstrike.cli import main
from birdstrike.harness import (
    MeasurementSet,
    TestMatrix as Matrix,
    TestScenario as Scenario,
    build_test_matrix,
    conformance_report,
)
from birdstrike.impact import (
    ImpactScenario,
    check_certification,
    impact_force,
    impact_force_stationary,
    scale_scenario,
)
from birdstrike.kinematics import (DragParams, impact_velocity_from_drop,
                                  impact_velocity_from_timing)
from birdstrike.projectile import (
    Ellipsoid,
    cylinder_radius_for,
    generate_projectile_set,
    round_sig,
)
from birdstrike.species import bundled_species_registry, find_species

from oracles import drag_factor, rk4_fall_samples

# Published reference drop plans: species -> (original velocity m/s,
# original height m, scaled velocity m/s, scaled height m)
PUBLISHED_PLAN_TABLE = {
    "Common Grackle": (103.41, 535.0, 6.89, 2.4),
    "Starling": (112.35, 631.0, 7.49, 2.8),
    "House Sparrow": (102.77, 528.0, 6.85, 2.3),
    "Mallard": (119.06, 709.0, 7.94, 3.1),
    "Turkey Vulture": (116.82, 708.0, 7.79, 3.0),
    "Laughing Gull": (96.70, 467.0, 6.44, 2.0),
    "Bald Eagle": (110.12, 606.0, 7.34, 2.7),
    "Canada Goose": (107.88, 582.0, 7.19, 2.6),
    "Rock Dove": (126.11, 795.0, 8.40, 3.5),
    "Ring-billed Gull": (107.88, 582.0, 7.19, 2.6),
    "Herring Gull": (107.88, 582.0, 7.19, 2.6),
}

# Published per-species cylinder geometry: species -> (radius m, height m)
PUBLISHED_GEOMETRY_TABLE = {
    "Common Grackle": (0.01, 0.31),
    "Starling": (0.01, 0.22),
    "House Sparrow": (0.007, 0.16),
    "Mallard": (0.03, 0.57),
    "Turkey Vulture": (0.03, 0.72),
    "Laughing Gull": (0.02, 0.43),
    "Bald Eagle": (0.06, 0.90),
    "Canada Goose": (0.05, 0.92),
    "Rock Dove": (0.02, 0.33),
    "Ring-billed Gull": (0.02, 0.48),
    "Herring Gull": (0.03, 0.66),
}

BASE_SCENARIO = ImpactScenario(
    bird_mass=0.085,
    bird_length=0.22,
    bird_density=1230.0,
    bird_speed=22.35,
    aircraft_speed=90.0,
    aircraft_density=2780.0,
    impact_angle=90.0,
)


def report(number, text):
    print(f"criterion {number:>2} PASS: {text}")


def run_plan_csv(capsys):
    started = time.perf_counter()
    code = main(["plan", "--all", "--gravity", "paper", "--format", "csv"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    return list(csv.DictReader(io.StringIO(out))), elapsed


def random_scenario(rng):
    return ImpactScenario(
        bird_mass=rng.uniform(0.01, 10.0),
        bird_length=rng.uniform(0.05, 1.5),
        bird_density=rng.uniform(500.0, 2000.0),
        bird_speed=rng.uniform(0.0, 60.0),
        aircraft_speed=rng.uniform(0.1, 150.0),
        aircraft_density=rng.uniform(800.0, 8000.0),
        impact_angle=rng.uniform(0.0, 90.0),
    )


def test_criterion_01_original_drop_heights(capsys):
    rows, elapsed = run_plan_csv(capsys)
    assert len(rows) == 11
    misses = []
    for row in rows:
        name = row["species"]
        published_height = PUBLISHED_PLAN_TABLE[name][1]
        computed = float(row["original_drop_height_m"])
        if abs(computed - published_height) > 1.0:
            misses.append(name)
            assert "708" in row["flags"] and "682" in row["flags"], name
        elif name != "Turkey Vulture":
            assert row["flags"] == "", name
    assert misses == ["Turkey Vulture"]
    assert elapsed < 1.0
    report(1, f"10/11 original heights within 1 m, Turkey Vulture flagged "
              f"({elapsed * 1000:.0f} ms)")


def test_criterion_02_scaled_columns(capsys):
    rows, _ = run_plan_csv(capsys)
    for row in rows:
        name = row["species"]
        if name == "Turkey Vulture":
            continue
        _, _, published_velocity, published_height = PUBLISHED_PLAN_TABLE[name]
        assert float(row["scaled_impact_velocity_m_s"]) == pytest.approx(
            published_velocity, abs=0.01
        ), name
        assert float(row["scaled_drop_height_m"]) == pytest.approx(
            published_height, abs=0.1
        ), name
    report(2, "scaled velocities within 0.01 m/s and heights within 0.1 m "
              "for all 10 comparable species")


def test_criterion_03_species_geometry():
    # The cylinder's height is the body length; its radius follows from mass and density.
    registry = bundled_species_registry()
    assert len(registry) == 11
    for species in registry:
        radius = cylinder_radius_for(species.mass, species.body_density, species.length)
        published_radius, published_height = PUBLISHED_GEOMETRY_TABLE[species.name]
        assert round_sig(radius, 2) == round_sig(published_radius, 2), species.name
        assert round_sig(species.length, 2) == round_sig(published_height, 2), species.name
    report(3, "all 11 published (radius, height) pairs reproduced at 2 significant figures")


def test_criterion_04_projectile_set_and_matrix_structure():
    starling = find_species(bundled_species_registry(), "Starling")
    specs = generate_projectile_set(starling)
    assert [spec.serial for spec in specs] == [1, 2, 3, 4, 5]
    sn1, sn2, sn3, sn4, sn5 = specs
    assert (sn1.shape.radius, sn1.shape.height, sn1.infill_fraction) == (0.01, 0.22, 0.15)
    assert (sn2.shape.radius, sn2.shape.height, sn2.infill_fraction) == (0.01, 0.22, 0.40)
    assert (sn3.shape.radius, sn3.shape.height) == (0.005, 0.22)
    assert (sn4.shape.radius, sn4.shape.height) == (0.01, 0.15)
    assert isinstance(sn5.shape, Ellipsoid)
    assert (sn5.shape.a, sn5.shape.b, sn5.shape.c) == (0.11, 0.01, 0.01)
    matrix = build_test_matrix()
    assert len(matrix.scenarios) == 9
    assert matrix.case_numbers == {1, 2, 3, 4, 5, 6, 7}
    assert matrix.total_iterations == 135
    report(4, "5 published projectile specs; matrix has 7 cases, 9 scenarios, 135 iterations")


def test_criterion_05_scaled_force_fraction():
    scaled = scale_scenario(BASE_SCENARIO, 1.0 / 15.0)
    ratio = impact_force(scaled).force / impact_force(BASE_SCENARIO).force
    assert ratio == pytest.approx(1.0 / 225.0, rel=1e-12)
    assert 100.0 * ratio == pytest.approx(0.4444, abs=5e-4)
    report(5, f"1:15 velocity scale gives force ratio {100 * ratio:.4f}% (= 1/225)")


def test_criterion_06_model_consistency_suite():
    rng = random.Random(2024)
    # energy/depth composition over 10,000 random scenarios
    for _ in range(10_000):
        scenario = random_scenario(rng)
        result = impact_force(scenario)
        sin_theta = math.sin(math.radians(scenario.impact_angle))
        recomposed = result.kinetic_energy * sin_theta / result.penetration_depth
        assert result.force == pytest.approx(recomposed, rel=1e-12, abs=1e-300)
    # linearity, inverse linearity and joint quadratic velocity scaling
    for _ in range(1000):
        scenario = random_scenario(rng)
        base_force = impact_force(scenario).force
        if base_force == 0:
            continue
        c = rng.uniform(0.1, 10.0)
        assert impact_force(replace(scenario, bird_mass=scenario.bird_mass * c)).force \
            == pytest.approx(c * base_force, rel=1e-12)
        assert impact_force(
            replace(scenario, aircraft_density=scenario.aircraft_density * c)
        ).force == pytest.approx(c * base_force, rel=1e-12)
        assert impact_force(replace(scenario, bird_length=scenario.bird_length * c)).force \
            == pytest.approx(base_force / c, rel=1e-12)
        assert impact_force(replace(scenario, bird_density=scenario.bird_density * c)).force \
            == pytest.approx(base_force / c, rel=1e-12)
        s = rng.uniform(0.05, 5.0)
        assert impact_force(scale_scenario(scenario, s)).force == pytest.approx(
            s * s * base_force, rel=1e-12
        )
    # stationary-model angle response: 30 degrees gives exactly 1/8 of head-on
    force_30 = impact_force_stationary(1.0, 10.0, 1.0, 1000.0, 1000.0, 30.0)
    force_90 = impact_force_stationary(1.0, 10.0, 1.0, 1000.0, 1000.0, 90.0)
    assert force_30 / force_90 == pytest.approx(0.125, rel=1e-12)
    report(6, "energy/depth composition (10,000 scenarios), linearity and quadratic "
              "velocity scaling at 1e-12; stationary sin^3 ratio 1/8 exact")


def test_criterion_07_drag_oracle_agreement():
    started = time.perf_counter()
    rng = random.Random(777)
    sample_times = [0.25 * k for k in range(1, 13)]  # 0.25 .. 3.0 s
    for _ in range(100):
        params = DragParams(
            projectile_mass=rng.uniform(0.01, 2.0),
            drag_coefficient=rng.uniform(0.3, 2.0),
            reference_area=rng.uniform(1e-4, 0.05),
            air_density=rng.uniform(0.9, 1.4),
            gravity=rng.uniform(9.0, 10.5),
        )
        k = drag_factor(params.projectile_mass, params.air_density,
                        params.drag_coefficient, params.reference_area)
        oracle = rk4_fall_samples(params.gravity, k, sample_times)
        for t, (_, oracle_velocity) in oracle.items():
            assert impact_velocity_from_timing(t, params) == pytest.approx(
                oracle_velocity, rel=1e-6
            )
    # vanishing drag limit recovers the drag-free velocity within 0.1%
    params = DragParams(projectile_mass=0.1, drag_coefficient=1e-9,
                        reference_area=0.01, air_density=1.225, gravity=10.0)
    assert impact_velocity_from_drop(2.8, params) == pytest.approx(
        math.sqrt(2.0 * 10.0 * 2.8), rel=1e-3
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(7, f"closed form within 1e-6 of fourth-order integration for 100 parameter "
              f"sets over [0, 3] s; zero-drag limit within 0.1% ({elapsed:.1f} s)")


def test_criterion_08_conformance_algebra():
    scenarios = (
        Scenario("a", 1, 1, 2.8, 7.49, 90.0, "Aluminium-2024-T3", 2),
        Scenario("b", 2, 1, 2.0, 6.44, 90.0, "Aluminium-2024-T3", 2),
    )
    matrix = Matrix(scenarios, 2)
    fixture = conformance_report(
        matrix,
        {"a": 10.0, "b": 10.0},
        [MeasurementSet("a", (9.0, 9.0)), MeasurementSet("b", (9.0, 10.0))],
    )
    assert [row.percent_conformance for row in fixture.scenarios] == [90.0, 95.0]
    assert fixture.overall_mean_conformance == 92.5
    rng = random.Random(31)
    for _ in range(1000):
        theoreticals = {"a": rng.uniform(1.0, 50.0), "b": rng.uniform(1.0, 50.0)}
        forces = {
            "a": tuple(rng.uniform(0.1, 60.0) for _ in range(3)),
            "b": tuple(rng.uniform(0.1, 60.0) for _ in range(3)),
        }
        factor = rng.uniform(0.01, 100.0)
        base = conformance_report(
            matrix, theoreticals,
            [MeasurementSet(key, value) for key, value in forces.items()],
        )
        scaled = conformance_report(
            matrix,
            {key: value * factor for key, value in theoreticals.items()},
            [
                MeasurementSet(key, tuple(f * factor for f in value))
                for key, value in forces.items()
            ],
        )
        for row_base, row_scaled in zip(base.scenarios, scaled.scenarios):
            assert row_scaled.percent_error == pytest.approx(
                row_base.percent_error, rel=1e-9, abs=1e-9
            )
        assert scaled.overall_mean_conformance == pytest.approx(
            base.overall_mean_conformance, rel=1e-9
        )
    report(8, "fixture gives conformances [90, 95] and overall 92.5 exactly; "
              "scaling invariance holds for 1000 random datasets")


def test_criterion_09_certification_thresholds():
    at_limit = check_certification(2255.0, "single-bird")
    assert at_limit.passed and at_limit.margin == 0.0
    above = check_certification(math.nextafter(2255.0, math.inf), "single-bird")
    assert not above.passed
    flock = check_certification(4819.0, "flock")
    assert flock.passed and flock.margin == 0.0
    assert not check_certification(math.nextafter(4819.0, math.inf), "flock").passed
    report(9, "2255 N single-bird and 4819 N flock thresholds pass at the boundary "
              "and fail one ulp above")


def test_criterion_10_documented_model_gaps_warned(capsys):
    # the published campaign deltas for density, specimen material and angle
    # are not reproducible from nominal parameters; sweep must say so
    base_flags = [
        "--mass", "0.085", "--length", "0.22", "--bird-density", "1230",
        "--aircraft-density", "2780", "--bird-speed", "22.35",
        "--aircraft-speed", "90", "--angle", "90",
    ]
    cases = {
        "aircraft_density": ("1167.6", ("-62%", "-58%")),
        "bird_density": ("1648.2", ("+40%", "0%")),
        "impact_angle": ("50", ("-40%", "-23%")),
    }
    for parameter, (value, fragments) in cases.items():
        code = main(["sweep", *base_flags, "--param", parameter, "--values", value])
        captured = capsys.readouterr()
        assert code == 0
        for fragment in fragments:
            assert fragment in captured.err, (parameter, fragment)
    report(10, "sweep warns that published campaign deltas (density +40%, "
               "specimen -62%, angle -40%) are not reproduced by the nominal model")
