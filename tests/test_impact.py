import math
import random

import pytest

from birdstrike.errors import InvalidParameterError, StationaryAircraftError
from birdstrike.impact import (
    CertificationLimits,
    CertificationVerdict,
    ImpactScenario,
    _force_any_speed,
    check_certification,
    impact_force,
    impact_force_stationary,
    sensitivity_table,
)

from valid_records import INSTANCES, random_scenario

BASE = INSTANCES[ImpactScenario]  # the Starling at 90 m/s, head-on, on aluminium


def speeds_scaled(scenario, s):
    """The scenario with both speeds multiplied by s."""
    return scenario._replace(bird_speed=scenario.bird_speed * s,
                             aircraft_speed=scenario.aircraft_speed * s)


def result(**fields):
    return impact_force(BASE._replace(**fields))


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
        assert impact_force(BASE._replace(impact_angle=0.0)).force == 0.0

    def test_zero_mass_zero_force(self):
        assert impact_force(BASE._replace(bird_mass=0.0)).force == 0.0

    def test_all_fields_finite(self):
        rng = random.Random(7)
        for _ in range(100):
            result = impact_force(random_scenario(rng))
            for value in (result.total_speed, result.kinetic_energy,
                          result.penetration_depth, result.force):
                assert math.isfinite(value)
            assert result.kinetic_energy >= 0
            assert result.force >= 0

    def test_monotone_in_angle(self):
        forces = [
            impact_force(BASE._replace(impact_angle=angle)).force
            for angle in range(0, 91, 5)
        ]
        assert forces[0] == 0.0
        assert all(a < b for a, b in zip(forces, forces[1:]))

    def test_force_vanishes_as_aircraft_speed_goes_to_zero(self):
        forces = [
            impact_force(BASE._replace(aircraft_speed=10.0 ** -k)).force
            for k in range(1, 10)
        ]
        assert all(a > b for a, b in zip(forces, forces[1:]))
        assert forces[-1] < 1e-6


class TestStationaryModel:
    def test_reference_value(self):
        assert impact_force_stationary(1.0, 10.0, 1.0, 1000.0, 1000.0, 90.0) == pytest.approx(
            50.0, rel=1e-12
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
    """Both speeds scaled by one factor, as the 1:15 drop-test scaling does."""

    def test_identity(self):
        assert speeds_scaled(BASE, 1.0) == BASE

    def test_factor_two_quadruples_force(self):
        scaled = speeds_scaled(BASE, 2.0)
        assert impact_force(scaled).force == pytest.approx(
            4.0 * impact_force(BASE).force, rel=1e-12
        )


class TestCertification:
    def test_zero_force_passes(self):
        assert check_certification(0.0, "single-bird").passed

    def test_passed_and_margin_follow_the_force_and_limit(self):
        assert CertificationVerdict._fields == ("case", "force", "limit")
        verdict = check_certification(3000.0, "single-bird")
        assert (verdict.passed, verdict.margin) == (False, -745.0)
        lowered = verdict._replace(force=1000.0)
        assert lowered.passed is True and lowered.margin == 1255.0
        raised = verdict._replace(limit=3000.0)
        assert raised.passed is True and raised.margin == 0.0

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

    @pytest.mark.parametrize("field", ImpactScenario._fields)
    def test_each_row_is_the_base_with_that_field_replaced(self, field):
        base = BASE._replace(impact_angle=60.0)
        start = getattr(base, field)
        values = [0.0, 30.0, 90.0] if field == "impact_angle" else [
            start * 0.25, start, start * 3.0]
        if field == "aircraft_speed":
            values.append(0.0)  # the stationary-aircraft fallback
        rows = sensitivity_table(base, field, values)
        assert [row.value for row in rows] == values
        for row, value in zip(rows, values):
            assert row.force == _force_any_speed(base._replace(**{field: value})), value

    def test_invalid_parameter_name_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown scenario parameter"):
            sensitivity_table(BASE, "wing_span", [1.0])

    def test_zero_base_force_rejected(self):
        with pytest.raises(InvalidParameterError, match="zero"):
            sensitivity_table(BASE._replace(impact_angle=0.0), "bird_mass", [1.0])


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
            BASE._replace(**{field: value})


class TestResultsStayFinite:
    """Finite inputs whose force leaves float range raise rather than return inf or nan."""

    TINY_BIRD = BASE._replace(bird_length=1e-200, bird_density=1e-200)

    def test_underflowing_divisor_rejected_by_both_models(self):
        message = "bird_length*bird_density underflows to 0 for 1e-200 m and 1e-200 kg/m^3"
        with pytest.raises(InvalidParameterError) as moving:
            impact_force(self.TINY_BIRD)
        with pytest.raises(InvalidParameterError) as stationary:
            impact_force_stationary(1.0, 10.0, 1e-200, 1e-200, 1.0, 90.0)
        assert str(moving.value) == str(stationary.value) == message

    @pytest.mark.parametrize("fields, quantity, value", [
        (dict(bird_mass=1e300, bird_length=1e-300, aircraft_density=1e10), "force", "inf"),
        # 0 * inf: the overflowing product times sin(0)
        (dict(bird_mass=1e300, aircraft_density=1e10, impact_angle=0.0), "force", "nan"),
        (dict(bird_density=1e300, aircraft_density=1e-300), "penetration_depth", "inf"),
        (dict(bird_mass=1e300, bird_speed=1e300), "kinetic_energy", "inf"),
    ])
    def test_overflowing_moving_model_rejected(self, fields, quantity, value):
        with pytest.raises(InvalidParameterError) as raised:
            impact_force(BASE._replace(**fields))
        assert str(raised.value) == f"{quantity} leaves float range for these inputs: got {value}"

    def test_overflowing_energy_alone_rejected(self):
        # depth and force stay finite here; only the kinetic energy overflows
        with pytest.raises(InvalidParameterError,
                           match="^kinetic_energy leaves float range for these inputs: got inf$"):
            impact_force(ImpactScenario(1.0, 1.0, 1000.0, 1e200, 1.0, 2780.0, 90.0))

    def test_overflowing_stationary_model_rejected(self):
        with pytest.raises(InvalidParameterError, match="force .*: got inf$"):
            impact_force_stationary(1e300, 1e10, 0.22, 1230.0, 2780.0, 90.0)

    def test_infinite_base_force_rejected(self):
        with pytest.raises(InvalidParameterError, match="force .*: got inf$"):
            sensitivity_table(BASE._replace(bird_mass=1e300, bird_length=1e-300), "bird_mass",
                              [1.0])

    def test_percent_change_beyond_float_range_rejected(self):
        with pytest.raises(InvalidParameterError, match="percent_change .*: got inf$"):
            sensitivity_table(BASE._replace(bird_mass=1e-300), "bird_mass", [1e10])

    def test_percent_change_survives_an_overflowing_numerator(self):
        # a force of 1e307 N: 100*(force - base) overflows, (force - base)/base*100 does not
        base = BASE._replace(bird_density=1.0)  # a divisor below 1 keeps the numerator finite
        base_force = impact_force(base).force
        (row,) = sensitivity_table(base, "bird_mass", [base.bird_mass * 1e307 / base_force])
        assert math.isfinite(row.percent_change)
        assert row.percent_change == pytest.approx(100.0 * (row.force / base_force - 1.0))

    def test_percent_change_fallback_takes_the_difference(self):
        # 100*(force - base) overflows: the fallback's (force - base)/base*100 is 16900
        base = ImpactScenario(1.0, 1.0, 1.0, 0.0, 1.0, 1e306, 90.0)
        (row,) = sensitivity_table(base, "aircraft_density", [1.7e308])
        assert (row.force, row.percent_change) == (8.5e307, 16900.0)
