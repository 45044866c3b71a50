import hashlib
import math
import random
import re

import pytest

from birdstrike import kinematics
from birdstrike.errors import InvalidParameterError
from birdstrike.kinematics import (
    DragParams,
    GRAVITY_PRESETS,
    PUBLISHED_PLANS,
    DropPlan,
    drag_fall_distance,
    fall_time_for_drop,
    ideal_impact_velocity,
    impact_velocity_from_drop,
    impact_velocity_from_timing,
    make_drop_plan,
    plan_flags,
    required_drop_height,
    terminal_velocity,
)

from oracles import decimal_drop, decimal_fall_distance, drag_factor, rk4_fall

G_REF = GRAVITY_PRESETS["paper"]

# m=0.1 kg, Cd=1.0, A=0.01 m^2, rho=1.225, g=9.81; terminal ~12.656 m/s
PARAMS_A = DragParams(projectile_mass=0.1, drag_coefficient=1.0,
                      reference_area=0.01, air_density=1.225, gravity=9.81)

# fourth-order integration of dv/dt = g - k*v^2 (dt = 1e-4), frozen
RK4_A = {
    0.5: (1.1967259795574485, 4.673309004054761),   # (distance, velocity)
    1.0: (4.480471058005706, 8.225052237523377),
    2.0: (14.713417118097249, 11.565109159042875),
}


def starling_projectile_params(gravity=G_REF):
    # SN1-like cylinder: 0.0108 kg, frontal radius 0.01 m, blunt face
    return DragParams(projectile_mass=0.0108, drag_coefficient=1.15,
                      reference_area=math.pi * 1e-4, air_density=1.225, gravity=gravity)


class TestGravityPresets:
    def test_values(self):
        assert GRAVITY_PRESETS == {"standard": 9.80665, "paper": 10.0}


class TestIdealImpactVelocity:
    def test_starling_height(self):
        assert ideal_impact_velocity(631.0, G_REF) == pytest.approx(112.34, abs=5e-3)

    def test_zero_height(self):
        assert ideal_impact_velocity(0.0, 9.81) == 0.0

    def test_low_drop(self):
        assert ideal_impact_velocity(1.5, G_REF) == pytest.approx(5.477, abs=1e-3)

    def test_negative_height_rejected(self):
        with pytest.raises(InvalidParameterError):
            ideal_impact_velocity(-0.1, 9.81)


class TestRequiredDropHeight:
    def test_starling(self):
        assert required_drop_height(22.35, 90.0, G_REF) == pytest.approx(631.1, abs=0.05)

    def test_rock_dove(self):
        assert required_drop_height(36.11, 90.0, G_REF) == pytest.approx(795.2, abs=0.05)

    def test_zero_speeds(self):
        assert required_drop_height(0.0, 0.0, 9.81) == 0.0


class TestMakeDropPlan:
    def test_starling_scaled_columns(self):
        plan = make_drop_plan(22.35, 90.0, 15.0, G_REF, "Starling")
        assert plan.scaled_impact_velocity == pytest.approx(7.49, abs=0.01)
        assert plan.scaled_drop_height == pytest.approx(2.8, abs=0.1)

    def test_rock_dove_scaled_columns(self):
        plan = make_drop_plan(36.11, 90.0, 15.0, G_REF, "Rock Dove")
        assert plan.scaled_impact_velocity == pytest.approx(8.40, abs=0.01)
        assert plan.scaled_drop_height == pytest.approx(3.5, abs=0.1)

    def test_scale_one_is_identity(self):
        plan = make_drop_plan(20.0, 90.0, 1.0, G_REF)
        assert plan.scaled_impact_velocity == plan.original_impact_velocity
        assert plan.scaled_drop_height == pytest.approx(plan.original_drop_height, rel=1e-12)

    def test_scaled_height_is_original_over_scale_squared(self):
        plan = make_drop_plan(22.35, 90.0, 15.0, G_REF)
        assert plan.scaled_drop_height == pytest.approx(
            plan.original_drop_height / 225.0, rel=1e-12
        )

    def test_scale_below_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_drop_plan(22.35, 90.0, 0.5, G_REF)

    def test_inconsistent_plan_rejected(self):
        with pytest.raises(InvalidParameterError, match="scaled_impact_velocity"):
            DropPlan("X", 112.35, 631.0, 15.0, 9.0, 2.8, 10.0)


class TestPublishedPlanReproduction:
    def test_original_heights_within_one_metre_except_turkey_vulture(self, registry):
        misses = []
        for bird in registry:
            plan = make_drop_plan(bird.flight_speed, 90.0, 15.0, G_REF, bird.name)
            published = PUBLISHED_PLANS[bird.name]
            if abs(plan.original_drop_height - published.original_height) > 1.0:
                misses.append(bird.name)
        assert misses == ["Turkey Vulture"]

    def test_turkey_vulture_flagged(self, registry):
        for bird in registry:
            plan = make_drop_plan(bird.flight_speed, 90.0, 15.0, G_REF, bird.name)
            flags = plan_flags(plan)
            if bird.name == "Turkey Vulture":
                assert len(flags) == 1
                assert "708" in flags[0]
            else:
                assert flags == []

    def test_unlisted_species_never_flagged(self):
        plan = make_drop_plan(10.0, 90.0, 15.0, G_REF, "Archaeopteryx")
        assert plan_flags(plan) == []

    def test_no_flags_away_from_reference_gravity(self):
        # at standard gravity every height shifts ~2%; that is a gravity
        # choice, not a data inconsistency
        plan = make_drop_plan(26.82, 90.0, 15.0, 9.80665, "Turkey Vulture")
        assert plan_flags(plan) == []


class TestTerminalVelocity:
    def test_reference_value(self):
        assert terminal_velocity(PARAMS_A) == pytest.approx(12.656, abs=1e-3)

    def test_mass_scaling(self):
        doubled = DragParams(projectile_mass=0.2, drag_coefficient=1.0,
                             reference_area=0.01, air_density=1.225, gravity=9.81)
        assert terminal_velocity(doubled) == pytest.approx(
            math.sqrt(2.0) * terminal_velocity(PARAMS_A), rel=1e-12
        )

    def test_monotone_decreasing_in_area(self):
        areas = [0.001, 0.01, 0.1, 1.0, 10.0]
        speeds = [
            terminal_velocity(
                DragParams(projectile_mass=0.1, drag_coefficient=1.0,
                           reference_area=area, air_density=1.225, gravity=9.81)
            )
            for area in areas
        ]
        assert all(a > b for a, b in zip(speeds, speeds[1:]))

    def test_non_positive_params_rejected(self):
        with pytest.raises(InvalidParameterError):
            DragParams(projectile_mass=0.0, drag_coefficient=1.0,
                       reference_area=0.01, air_density=1.225, gravity=9.81)


class TestDragFallDistance:
    def test_zero_time(self):
        assert drag_fall_distance(0.0, PARAMS_A) == 0.0

    def test_small_time_matches_free_fall_series(self):
        vt = terminal_velocity(PARAMS_A)
        t = 0.05 * vt / PARAMS_A.gravity  # g*t/vt = 0.05
        assert drag_fall_distance(t, PARAMS_A) == pytest.approx(
            0.5 * PARAMS_A.gravity * t * t, rel=1e-3
        )

    def test_matches_frozen_rk4_values(self):
        for t, (distance, _) in RK4_A.items():
            assert drag_fall_distance(t, PARAMS_A) == pytest.approx(distance, rel=1e-6)

    def test_no_overflow_for_long_falls(self):
        vt = terminal_velocity(PARAMS_A)
        distance = drag_fall_distance(1e6, PARAMS_A)
        # terminal asymptote: y -> vt*t - vt^2*log(2)/g
        expected = vt * 1e6 - vt * vt * math.log(2.0) / PARAMS_A.gravity
        assert math.isfinite(distance)
        assert distance == pytest.approx(expected, rel=1e-12)


class TestImpactVelocityFromDrop:
    def test_zero_height(self):
        assert impact_velocity_from_drop(0.0, PARAMS_A) == 0.0

    def test_vanishing_drag_recovers_ideal_velocity(self):
        params = DragParams(projectile_mass=0.1, drag_coefficient=1e-9,
                            reference_area=0.01, air_density=1.225, gravity=9.81)
        ideal = ideal_impact_velocity(2.8, 9.81)
        assert impact_velocity_from_drop(2.8, params) == pytest.approx(ideal, rel=1e-3)

    def test_starling_projectile_from_scaled_height(self):
        velocity = impact_velocity_from_drop(2.8, starling_projectile_params())
        assert 7.0 < velocity < 7.49
        # independent distance-domain solution: v(h) = vt*sqrt(1 - exp(-2gh/vt^2))
        vt = terminal_velocity(starling_projectile_params())
        exact = vt * math.sqrt(1.0 - math.exp(-2.0 * G_REF * 2.8 / (vt * vt)))
        assert velocity == pytest.approx(exact, abs=1e-9)

    def test_below_ideal_and_at_most_terminal_for_any_height(self):
        # the terminal bound saturates exactly once tanh underflows to 1
        vt = terminal_velocity(PARAMS_A)
        for height in (0.01, 0.5, 2.8, 10.0, 100.0, 5000.0):
            velocity = impact_velocity_from_drop(height, PARAMS_A)
            assert 0.0 < velocity < ideal_impact_velocity(height, PARAMS_A.gravity)
            assert velocity <= vt

    def test_round_trip_distance(self):
        for height in (0.01, 1.0, 2.8, 25.0, 400.0, 5000.0):
            t = fall_time_for_drop(height, PARAMS_A)
            assert drag_fall_distance(t, PARAMS_A) == pytest.approx(height, abs=1e-9)

    def test_negative_height_rejected(self):
        with pytest.raises(InvalidParameterError):
            impact_velocity_from_drop(-1.0, PARAMS_A)

    @pytest.mark.parametrize("height", [5e-324, 1e-310, 1e20, 1.7e308])
    def test_extreme_height_gives_velocity_up_to_terminal(self, height):
        # 5e-324: g*h/v_t^2 underflows to 0; from 1e20 on, tanh(g*t/v_t) rounds to 1
        vt = terminal_velocity(PARAMS_A)
        velocity = impact_velocity_from_drop(height, PARAMS_A)
        assert 0.0 <= velocity <= vt
        assert velocity == pytest.approx(min(vt, math.sqrt(2.0 * 9.81 * height)),
                                         rel=1e-14, abs=1e-150)

    @pytest.mark.parametrize("params, height", [
        (DragParams(1e-6, 1.0, 1.0), 1.7e308),  # v_t ~ 0.004 m/s: h/v_t overflows
        (PARAMS_A, 1.7976931348623157e308),     # the distance at the fall time overflows
    ])
    def test_fall_time_beyond_float_range_names_height(self, params, height):
        message = rf"^height must give a finite fall time, got {re.escape(repr(height))}$"
        with pytest.raises(InvalidParameterError, match=message):
            impact_velocity_from_drop(height, params)

    def test_one_solve_makes_one_distance_call(self, monkeypatch):
        # perfbench traces this chain and reads drag_fall_distance calls per solve
        calls = []
        for name in ("fall_time_for_drop", "drag_fall_distance"):
            def counted(*args, _name=name, _function=getattr(kinematics, name)):
                calls.append(_name)
                return _function(*args)
            monkeypatch.setattr(kinematics, name, counted)
        impact_velocity_from_drop(2.8, starling_projectile_params())
        assert calls == ["fall_time_for_drop", "drag_fall_distance"]


class TestImpactVelocityFromTiming:
    def test_zero_time(self):
        assert impact_velocity_from_timing(0.0, PARAMS_A) == 0.0

    def test_consistent_with_drop_solver(self):
        for t in (0.1, 0.5, 1.0, 2.0):
            velocity = impact_velocity_from_timing(t, PARAMS_A)
            height = drag_fall_distance(t, PARAMS_A)
            assert impact_velocity_from_drop(height, PARAMS_A) == pytest.approx(
                velocity, abs=1e-9
            )

    def test_matches_frozen_rk4(self):
        for t, (_, velocity) in RK4_A.items():
            assert impact_velocity_from_timing(t, PARAMS_A) == pytest.approx(velocity, rel=1e-6)

    def test_saturates_at_terminal_velocity(self):
        vt = terminal_velocity(PARAMS_A)
        assert impact_velocity_from_timing(1000.0, PARAMS_A) == pytest.approx(vt, rel=1e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidParameterError):
            impact_velocity_from_timing(-0.1, PARAMS_A)

    def test_matches_rk4_for_random_parameters(self):
        rng = random.Random(11)
        for _ in range(25):
            params = DragParams(
                projectile_mass=rng.uniform(0.01, 2.0),
                drag_coefficient=rng.uniform(0.3, 2.0),
                reference_area=rng.uniform(1e-4, 0.05),
                air_density=rng.uniform(0.9, 1.4),
                gravity=rng.uniform(9.0, 10.5),
            )
            k = drag_factor(params.projectile_mass, params.air_density,
                            params.drag_coefficient, params.reference_area)
            t = rng.uniform(0.1, 3.0)
            distance, velocity = rk4_fall(params.gravity, k, t)
            assert impact_velocity_from_timing(t, params) == pytest.approx(velocity, rel=1e-6)
            assert drag_fall_distance(t, params) == pytest.approx(distance, rel=1e-6)


class TestDragDecimalOracle:
    """Drag results within 1e-14 of a 60-digit decimal evaluation, for x = g*t/v_t
    and x = g*h/v_t^2 from 1e-20 to 1e3."""

    def test_random_parameters(self):
        rng = random.Random(60)
        for _ in range(300):
            inputs = (rng.uniform(0.002, 4.0), rng.uniform(0.2, 2.0), rng.uniform(5e-5, 0.08),
                      rng.uniform(0.8, 1.4), rng.uniform(1.0, 25.0))
            params = DragParams(*inputs)
            vt, g = terminal_velocity(params), params.gravity
            x = 10.0 ** rng.uniform(-20.0, 3.0)
            t = x * vt / g
            assert drag_fall_distance(t, params) == pytest.approx(
                decimal_fall_distance(t, *inputs), rel=1e-14, abs=0)
            height = x * vt * vt / g
            time, velocity = decimal_drop(height, *inputs)
            assert fall_time_for_drop(height, params) == pytest.approx(time, rel=1e-14, abs=0)
            assert impact_velocity_from_drop(height, params) == pytest.approx(
                velocity, rel=1e-14, abs=0)


def drag_results_digest() -> str:
    """sha256 of float.hex() of every drag result over a seeded grid.

    Covers terminal_velocity, drag_fall_distance, impact_velocity_from_timing,
    fall_time_for_drop and impact_velocity_from_drop, with t = 0 and h = 0
    in every row. The digest depends on the platform's libm (exp, expm1, log1p,
    sinh, tanh).
    """
    rng = random.Random(2026)
    lines = []
    for _ in range(60):
        params = DragParams(
            projectile_mass=rng.uniform(0.002, 4.0),
            drag_coefficient=rng.uniform(0.2, 2.0),
            reference_area=rng.uniform(5e-5, 0.08),
            air_density=rng.uniform(0.8, 1.4),
            gravity=rng.choice((GRAVITY_PRESETS["standard"], G_REF, rng.uniform(1.0, 25.0))),
        )
        lines.append(terminal_velocity(params).hex())
        for t in (0.0, rng.uniform(0.0, 0.05), rng.uniform(0.05, 2.0), rng.uniform(2.0, 60.0)):
            lines.append(f"{drag_fall_distance(t, params).hex()} "
                         f"{impact_velocity_from_timing(t, params).hex()}")
        for h in (0.0, rng.uniform(0.0, 0.01), rng.uniform(0.01, 5.0), rng.uniform(5.0, 2000.0)):
            lines.append(f"{fall_time_for_drop(h, params).hex()} "
                         f"{impact_velocity_from_drop(h, params).hex()}")
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


class TestDragResultBits:
    def test_pinned_digest(self):
        # pinned after TestDragDecimalOracle passed on the closed-form fall time
        assert drag_results_digest() == "cda4645c4680995995574ebdc55a35bee118f051f1f44f3edc73add2726fd318"


class TestDragParamsTerminalVelocity:
    @pytest.mark.parametrize("inputs, shown", [
        ((0.01, 1e-200, 1e-200, 1e-200), "inf"),   # rho*C_d*A underflows to 0
        ((1e300, 1e-10, 1e-10), "inf"),            # 2*m*g/(rho*C_d*A) overflows
        ((1e-300, 1.0, 1.0, 1.0, 1e-300), "0.0"),  # 2*m*g underflows to 0
        ((1e300, 1e300, 1e300, 1e300, 1e300), "nan"),  # inf / inf
    ])
    def test_not_finite_positive_is_rejected(self, inputs, shown):
        with pytest.raises(InvalidParameterError, match=rf"must be finite and > 0, got {shown}$"):
            DragParams(*inputs)

    def test_replace_into_overflow_is_rejected(self):
        with pytest.raises(InvalidParameterError, match="terminal velocity"):
            PARAMS_A._replace(reference_area=1e-320)

    @pytest.mark.parametrize("inputs, shown", [
        ((1e300, 1e-4, 1e-4, 1.0, 1e-10), "inf"),       # v_t ~ 1.4e149 m/s: v_t^2/g overflows
        ((1e-300, 1e100, 1e100, 1e100, 1e300), "0.0"),  # v_t ~ 1.4e-150 m/s: v_t^2/g underflows
    ], ids=["overflows", "underflows"])
    def test_distance_scale_beyond_float_range_is_rejected(self, inputs, shown):
        # the terminal velocity is finite and > 0, but v_t^2/g, the factor of every
        # fall distance, is not: drag_fall_distance(0, .) was nan, and the fall time
        # blamed the height
        with pytest.raises(InvalidParameterError,
                           match=rf"^fall-distance scale .* must be finite and > 0, got {shown}$"):
            DragParams(*inputs)


class TestDragParamsSurface:
    """The cached terminal velocity is invisible to the record machinery."""

    def test_replace_recomputes_terminal_velocity(self):
        for change in ({"gravity": 1.62}, {"reference_area": 0.04}):
            replaced = PARAMS_A._replace(**change)
            fresh = DragParams(**{**PARAMS_A._asdict(), **change})
            assert terminal_velocity(replaced) == terminal_velocity(fresh)
            assert terminal_velocity(replaced) != terminal_velocity(PARAMS_A)

    def test_repr_eq_hash_fields_unchanged(self):
        assert repr(PARAMS_A) == ("DragParams(projectile_mass=0.1, drag_coefficient=1.0, "
                                  "reference_area=0.01, air_density=1.225, gravity=9.81)")
        twin = DragParams(0.1, 1.0, 0.01, 1.225, 9.81)
        assert twin == PARAMS_A and hash(twin) == hash(PARAMS_A)
        assert hash(PARAMS_A) == hash((0.1, 1.0, 0.01, 1.225, 9.81))
        assert PARAMS_A._replace(gravity=9.8) != PARAMS_A
        assert list(DragParams._fields) == [
            "projectile_mass", "drag_coefficient", "reference_area", "air_density", "gravity"]
        assert PARAMS_A._asdict() == {"projectile_mass": 0.1, "drag_coefficient": 1.0,
                                      "reference_area": 0.01, "air_density": 1.225, "gravity": 9.81}
