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

from oracles import decimal_drop, decimal_fall_distance

G_REF = GRAVITY_PRESETS["paper"]

# m=0.1 kg, Cd=1.0, A=0.01 m^2, rho=1.225, g=9.81; terminal ~12.656 m/s
PARAMS_A = DragParams(projectile_mass=0.1, drag_coefficient=1.0,
                      reference_area=0.01, air_density=1.225, gravity=9.81)


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


class TestRequiredDropHeight:
    def test_starling(self):
        assert required_drop_height(22.35, 90.0, G_REF) == pytest.approx(631.1, abs=0.05)

    def test_rock_dove(self):
        assert required_drop_height(36.11, 90.0, G_REF) == pytest.approx(795.2, abs=0.05)

    def test_zero_speeds(self):
        assert required_drop_height(0.0, 0.0, 9.81) == 0.0


class TestMakeDropPlan:
    def test_scale_one_is_identity(self):
        plan = make_drop_plan(20.0, 90.0, 1.0, G_REF)
        assert plan.scaled_impact_velocity == plan.original_impact_velocity
        assert plan.scaled_drop_height == pytest.approx(plan.original_drop_height, rel=1e-12)

    def test_scaled_height_is_original_over_scale_squared(self):
        plan = make_drop_plan(22.35, 90.0, 15.0, G_REF)
        assert plan.scaled_drop_height == pytest.approx(
            plan.original_drop_height / 225.0, rel=1e-12
        )

    def test_scaled_velocity_is_derived(self):
        plan = DropPlan("X", 22.35, 90.0, 15.0, G_REF)
        assert plan == make_drop_plan(22.35, 90.0, 15.0, G_REF, "X")
        assert plan._fields == ("species_name", "bird_speed", "aircraft_speed", "scale_factor",
                                "gravity")
        assert plan.original_impact_velocity == 22.35 + 90.0
        assert plan.original_drop_height == required_drop_height(22.35, 90.0, G_REF)
        assert plan.scaled_impact_velocity == (22.35 + 90.0) / 15.0
        assert plan.scaled_drop_height == required_drop_height((22.35 + 90.0) / 15.0, 0.0, G_REF)
        with pytest.raises(AttributeError):
            plan.scaled_impact_velocity = 9.0


class TestPublishedPlanReproduction:
    def test_published_values_are_pinned(self):
        digest = hashlib.sha256(repr(PUBLISHED_PLANS).encode()).hexdigest()
        assert digest == "19fab3d3b0f2107fbba5ea5a50f6fb26ecb594d5116b6844c87272524862f495"

    @pytest.mark.parametrize("changes, flagged", [
        (dict(original_impact_velocity=(0.01, False)), []),
        (dict(original_impact_velocity=(-0.01, True)), ["original impact velocity"]),
        (dict(original_drop_height=(-1.0, False)), []),
        (dict(original_drop_height=(1.0, True)), ["original drop-height"]),
        (dict(scaled_impact_velocity=(-0.01, False)), []),
        (dict(scaled_impact_velocity=(0.01, True)), ["scaled impact velocity"]),
        (dict(scaled_drop_height=(0.1, False)), []),
        (dict(scaled_drop_height=(-0.1, True)), ["scaled drop-height"]),
    ])
    def test_each_band_flags_only_past_it(self, monkeypatch, changes, flagged):
        # the Starling's published value for one check moved one band above or below the
        # computed one: onto the band's edge, or one float past it
        plan = make_drop_plan(22.35, 90.0, 15.0, G_REF, "Starling")
        row = list(PUBLISHED_PLANS["Starling"])
        for field, (offset, past) in changes.items():
            computed, band = getattr(plan, field), abs(offset)
            edge = computed + offset
            while abs(computed - edge) > band:  # rounded past the edge: step back onto it
                edge = math.nextafter(edge, computed)
            assert abs(computed - edge) == band or band != 1.0  # the 1 m edge is exact
            row[list(kinematics._PLAN_CHECKS).index(field)] = (
                math.nextafter(edge, offset * math.inf) if past else edge)
        monkeypatch.setitem(PUBLISHED_PLANS, "Starling", tuple(row))
        labels = [re.match(r"published (.+?) [\d.]+ ", flag).group(1) for flag in plan_flags(plan)]
        assert labels == flagged

    def test_unlisted_species_never_flagged(self):
        plan = make_drop_plan(10.0, 90.0, 15.0, G_REF, "Archaeopteryx")
        assert plan_flags(plan) == []

    @pytest.mark.parametrize("scale, cruise", [(10.0, 90.0), (15.0, 100.0), (10.0, 100.0)])
    def test_no_flags_away_from_reference_scale_or_cruise(self, registry, scale, cruise):
        # the published plans are at scale 15 and cruise 90 m/s: other values are a
        # choice of settings, not a data inconsistency
        for bird in registry:
            plan = make_drop_plan(bird.flight_speed, cruise, scale, G_REF, bird.name)
            assert plan_flags(plan) == []

    def test_flags_follow_the_plans_own_cruise(self):
        plan = make_drop_plan(26.82, 90.0, 15.0, G_REF, "Turkey Vulture")
        assert len(plan_flags(plan)) == 1
        faster = plan._replace(aircraft_speed=100.0)  # every derived value moves with it
        assert faster.original_drop_height == required_drop_height(26.82, 100.0, G_REF)
        assert faster.scaled_drop_height == required_drop_height(126.82 / 15.0, 0.0, G_REF)
        assert plan_flags(faster) == []

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


class TestDragFallDistance:
    def test_zero_time(self):
        assert drag_fall_distance(0.0, PARAMS_A) == 0.0

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

    def test_below_ideal_and_at_most_terminal_for_any_height(self):
        # the terminal bound saturates exactly once tanh underflows to 1
        vt = terminal_velocity(PARAMS_A)
        for height in (0.01, 0.5, 2.8, 10.0, 100.0, 5000.0):
            velocity = impact_velocity_from_drop(height, PARAMS_A)
            assert 0.0 < velocity < ideal_impact_velocity(height, PARAMS_A.gravity)
            assert velocity <= vt

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
            assert impact_velocity_from_timing(time, params) == pytest.approx(
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
        ((0.01, 1e-200, 1e-200, 1e-200), "inf"),       # rho*C_d*A underflows to 0
        ((1e300, 1e-10, 1e-10), "inf"),                # 2*m*g/(rho*C_d*A) overflows
        ((1e-300, 1.0, 1.0, 1.0, 1e-300), "0.0"),      # 2*m*g underflows to 0
        ((1e300, 1e300, 1e300, 1e300, 1e300), "nan"),  # inf / inf
        ((0.0108, 1e-200, 1e-200), "inf"),             # C_d*A underflows to 0
        ((1e-300, 1e300, 1e10), "0.0"),                # 2*m*g/(rho*C_d*A) underflows to 0
    ])
    def test_not_finite_positive_is_rejected(self, inputs, shown):
        message = f"terminal velocity sqrt(2*m*g/(rho*C_d*A)) must be finite and > 0, got {shown}"
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            DragParams(*inputs)

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
