import math
import random
from dataclasses import replace

import pytest

from birdstrike.errors import InvalidParameterError, StationaryAircraftError
from birdstrike.impact import (
    CertificationLimits,
    ImpactScenario,
    check_certification,
    impact_force,
    impact_force_stationary,
    scale_scenario,
    sensitivity_table,
)

BASE = ImpactScenario(
    bird_mass=0.085,
    bird_length=0.22,
    bird_density=1230.0,
    bird_speed=22.35,
    aircraft_speed=90.0,
    aircraft_density=2780.0,
    impact_angle=90.0,
)


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


def result(**fields):
    return impact_force(replace(BASE, **fields))


class TestTotalImpactSpeed:
    def test_starling_head_on(self):
        assert result().total_speed == pytest.approx(112.35, rel=1e-12)

    def test_grazing_angle_drops_bird_term(self):
        assert result(bird_speed=10.0, aircraft_speed=5.0, impact_angle=0.0).total_speed == 5.0


class TestKineticEnergy:
    def test_aircraft_only(self):
        energy = result(bird_mass=2.0, bird_speed=0.0, aircraft_speed=10.0).kinetic_energy
        assert energy == pytest.approx(100.0, rel=1e-12)

    def test_oblique(self):
        # 0.5 * 1 * (10*sin30 + 5)^2 = 50
        energy = result(bird_mass=1.0, bird_speed=10.0, aircraft_speed=5.0,
                        impact_angle=30.0).kinetic_energy
        assert energy == pytest.approx(50.0, rel=1e-12)

    def test_zero_mass(self):
        assert result(bird_mass=0.0).kinetic_energy == 0.0


class TestPenetrationDepth:
    def test_equal_densities_zero_bird_speed(self):
        depth = impact_force(ImpactScenario(1.0, 1.0, 1000.0, 0.0, 10.0, 1000.0, 90.0)
                             ).penetration_depth
        assert depth == pytest.approx(1.0, rel=1e-12)

    def test_starling_on_aluminium(self):
        # 0.22 * (1230/2780) * (112.35/90)
        assert impact_force(BASE).penetration_depth == pytest.approx(0.1215, abs=1e-4)

    def test_zero_aircraft_speed_is_singular(self):
        with pytest.raises(StationaryAircraftError):
            impact_force(ImpactScenario(1.0, 1.0, 1000.0, 5.0, 0.0, 1000.0, 90.0))


class TestImpactForce:
    def test_reference_value(self):
        result = impact_force(ImpactScenario(1.0, 1.0, 1000.0, 0.0, 10.0, 1000.0, 90.0))
        assert result.force == pytest.approx(50.0, rel=1e-12)
        assert result.total_speed == pytest.approx(10.0, rel=1e-12)
        assert result.kinetic_energy == pytest.approx(50.0, rel=1e-12)
        assert result.penetration_depth == pytest.approx(1.0, rel=1e-12)

    def test_zero_angle_zero_force(self):
        assert impact_force(replace(BASE, impact_angle=0.0)).force == 0.0

    def test_zero_mass_zero_force(self):
        assert impact_force(replace(BASE, bird_mass=0.0)).force == 0.0

    def test_all_fields_finite(self):
        rng = random.Random(7)
        for _ in range(100):
            result = impact_force(random_scenario(rng))
            for value in (result.total_speed, result.kinetic_energy,
                          result.penetration_depth, result.force):
                assert math.isfinite(value)
            assert result.kinetic_energy >= 0
            assert result.force >= 0

    def test_energy_depth_composition_10000_scenarios(self):
        # force == kinetic_energy * sin(theta) / depth, 1e-12 relative
        rng = random.Random(42)
        for _ in range(10_000):
            scenario = random_scenario(rng)
            result = impact_force(scenario)
            sin_theta = math.sin(math.radians(scenario.impact_angle))
            recomposed = result.kinetic_energy * sin_theta / result.penetration_depth
            assert result.force == pytest.approx(recomposed, rel=1e-12, abs=1e-300)

    def test_linear_in_mass_and_aircraft_density(self):
        rng = random.Random(1)
        for _ in range(500):
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

    def test_inverse_linear_in_length_and_bird_density(self):
        rng = random.Random(2)
        for _ in range(500):
            scenario = random_scenario(rng)
            base_force = impact_force(scenario).force
            if base_force == 0:
                continue
            c = rng.uniform(0.1, 10.0)
            assert impact_force(replace(scenario, bird_length=scenario.bird_length * c)).force \
                == pytest.approx(base_force / c, rel=1e-12)
            assert impact_force(
                replace(scenario, bird_density=scenario.bird_density * c)
            ).force == pytest.approx(base_force / c, rel=1e-12)

    def test_joint_velocity_scaling_is_quadratic(self):
        rng = random.Random(3)
        for _ in range(500):
            scenario = random_scenario(rng)
            base_force = impact_force(scenario).force
            if base_force == 0:
                continue
            s = rng.uniform(0.05, 5.0)
            scaled = scale_scenario(scenario, s)
            assert impact_force(scaled).force == pytest.approx(s * s * base_force, rel=1e-12)

    def test_monotone_in_angle(self):
        forces = [
            impact_force(replace(BASE, impact_angle=angle)).force
            for angle in range(0, 91, 5)
        ]
        assert forces[0] == 0.0
        assert all(a < b for a, b in zip(forces, forces[1:]))

    def test_force_vanishes_as_aircraft_speed_goes_to_zero(self):
        forces = [
            impact_force(replace(BASE, aircraft_speed=10.0 ** -k)).force
            for k in range(1, 10)
        ]
        assert all(a > b for a, b in zip(forces, forces[1:]))
        assert forces[-1] < 1e-6


class TestStationaryModel:
    def test_reference_value(self):
        assert impact_force_stationary(1.0, 10.0, 1.0, 1000.0, 1000.0, 90.0) == pytest.approx(
            50.0, rel=1e-12
        )

    def test_sin_cubed(self):
        assert impact_force_stationary(1.0, 10.0, 1.0, 1000.0, 1000.0, 30.0) == pytest.approx(
            6.25, rel=1e-12
        )

    def test_zero_speed(self):
        assert impact_force_stationary(1.0, 0.0, 1.0, 1000.0, 1000.0, 90.0) == 0.0

    @pytest.mark.parametrize("angle", [-30.0, 120.0])
    def test_angle_outside_range_rejected(self, angle):
        with pytest.raises(InvalidParameterError, match="impact_angle"):
            impact_force_stationary(1.0, 10.0, 1.0, 1000.0, 1000.0, angle)

    def test_matches_energy_over_depth_form(self):
        # stationary force == (m*(v*sin)^2/2)*sin / (l*rho_b/rho_a)
        rng = random.Random(4)
        for _ in range(500):
            s = random_scenario(rng)
            direct = impact_force_stationary(
                s.bird_mass, s.bird_speed, s.bird_length,
                s.bird_density, s.aircraft_density, s.impact_angle,
            )
            sin_theta = math.sin(math.radians(s.impact_angle))
            energy = 0.5 * s.bird_mass * (s.bird_speed * sin_theta) ** 2
            depth = s.bird_length * s.bird_density / s.aircraft_density
            assert direct == pytest.approx(energy * sin_theta / depth, rel=1e-12, abs=1e-300)


class TestScaleScenario:
    def test_identity(self):
        assert scale_scenario(BASE, 1.0) == BASE

    def test_one_fifteenth_force_ratio(self):
        scaled = scale_scenario(BASE, 1.0 / 15.0)
        ratio = impact_force(scaled).force / impact_force(BASE).force
        assert ratio == pytest.approx(1.0 / 225.0, rel=1e-12)
        assert 100.0 * ratio == pytest.approx(0.4444, abs=5e-4)

    def test_factor_two_quadruples_force(self):
        scaled = scale_scenario(BASE, 2.0)
        assert impact_force(scaled).force == pytest.approx(
            4.0 * impact_force(BASE).force, rel=1e-12
        )

    def test_non_positive_factor_rejected(self):
        with pytest.raises(InvalidParameterError):
            scale_scenario(BASE, 0.0)
        with pytest.raises(InvalidParameterError):
            scale_scenario(BASE, -2.0)


class TestCertification:
    def test_at_limit_passes_with_zero_margin(self):
        verdict = check_certification(2255.0, "single-bird")
        assert verdict.passed
        assert verdict.margin == 0.0

    def test_just_above_limit_fails(self):
        verdict = check_certification(math.nextafter(2255.0, math.inf), "single-bird")
        assert not verdict.passed
        assert verdict.margin < 0.0

    def test_flock_threshold(self):
        assert check_certification(4819.0, "flock").passed
        verdict = check_certification(4820.0, "flock")
        assert not verdict.passed
        assert verdict.margin == pytest.approx(-1.0, rel=1e-12)

    def test_zero_force_passes(self):
        assert check_certification(0.0, "single-bird").passed

    def test_default_limits(self):
        limits = CertificationLimits()
        assert limits.single_bird_force == 2255.0
        assert limits.flock_force == 4819.0

    def test_unknown_case_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_certification(10.0, "swarm")

    def test_negative_force_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_certification(-1.0, "flock")


class TestSensitivityTable:
    def test_angle_to_zero_is_minus_hundred_percent(self):
        rows = sensitivity_table(BASE, "impact_angle", [90.0, 0.0])
        assert rows[0].percent_change == pytest.approx(0.0, abs=1e-12)
        assert rows[1].percent_change == pytest.approx(-100.0, rel=1e-12)

    def test_halving_mass_is_minus_fifty_percent(self):
        rows = sensitivity_table(BASE, "bird_mass", [BASE.bird_mass / 2.0])
        assert rows[0].percent_change == pytest.approx(-50.0, rel=1e-12)

    def test_cfrp_density_is_minus_fifty_eight_percent(self):
        rows = sensitivity_table(BASE, "aircraft_density", [0.42 * BASE.aircraft_density])
        assert rows[0].percent_change == pytest.approx(-58.0, rel=1e-12)

    def test_zero_aircraft_speed_uses_stationary_model(self):
        rows = sensitivity_table(BASE, "aircraft_speed", [0.0])
        expected = impact_force_stationary(
            BASE.bird_mass, BASE.bird_speed, BASE.bird_length,
            BASE.bird_density, BASE.aircraft_density, BASE.impact_angle,
        )
        assert rows[0].force == pytest.approx(expected, rel=1e-12)

    def test_invalid_parameter_name_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown scenario parameter"):
            sensitivity_table(BASE, "wing_span", [1.0])

    def test_zero_base_force_rejected(self):
        with pytest.raises(InvalidParameterError, match="zero"):
            sensitivity_table(replace(BASE, impact_angle=0.0), "bird_mass", [1.0])


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("bird_mass", -0.1),
            ("bird_length", 0.0),
            ("bird_density", -5.0),
            ("bird_speed", -1.0),
            ("aircraft_speed", -1.0),
            ("aircraft_density", 0.0),
            ("impact_angle", -1.0),
            ("impact_angle", 90.5),
        ],
    )
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            replace(BASE, **{field: value})
