"""Drop-weight launch kinematics.

Plans drop heights for target impact velocities (drag neglected, as in the
published reference plans) and reconstructs impact velocities from drop height
or fall time when quadratic aerodynamic drag matters:

    v(t) = v_t * tanh(g*t/v_t)              v_t = sqrt(2*m*g/(rho*C_d*A))
    y(t) = (v_t^2/g) * log(cosh(g*t/v_t))
    v(h) = v_t * sqrt(1 - exp(-2x))         x = g*h/v_t^2, inverting y(t) = h
    t(h) = (v_t/g) * (x + log1p(v(h)/v_t))
"""

from __future__ import annotations

import math

from ._record import NON_NEGATIVE, POSITIVE, Record
from .errors import InvalidParameterError, require

GRAVITY_PRESETS = {
    "standard": 9.80665,  # m/s^2
    "paper": 10.0,        # round value the published reference plans were tabulated with
}
GRAVITY_STANDARD = GRAVITY_PRESETS["standard"]

DEFAULT_SCALE_FACTOR = 15.0  # velocity scale bringing ~600 m drops under ~3 m
DEFAULT_AIR_DENSITY = 1.225  # kg/m^3, sea level

_LOG2 = math.log(2.0)


class DropPlan(Record):
    """Planned drop for one species: full-scale and velocity-scaled columns."""

    species_name: str
    original_impact_velocity: float  # m/s
    original_drop_height: float      # m
    scale_factor: float
    scaled_impact_velocity: float    # m/s
    scaled_drop_height: float        # m
    gravity: float                   # m/s^2
    _ranges = dict(original_impact_velocity=NON_NEGATIVE, original_drop_height=NON_NEGATIVE,
                   scale_factor=(1.0, math.inf, False), scaled_impact_velocity=NON_NEGATIVE,
                   scaled_drop_height=NON_NEGATIVE, gravity=POSITIVE)

    def __post_init__(self) -> None:
        expected = self.original_impact_velocity / self.scale_factor
        if abs(self.scaled_impact_velocity - expected) > 1e-9 * max(1.0, expected):
            raise InvalidParameterError(
                "scaled_impact_velocity must equal original_impact_velocity / scale_factor"
            )


class DragParams(Record):
    """Quadratic-drag free-fall parameters."""

    projectile_mass: float                  # kg
    drag_coefficient: float
    reference_area: float                   # m^2, frontal
    air_density: float = DEFAULT_AIR_DENSITY  # kg/m^3
    gravity: float = GRAVITY_STANDARD       # m/s^2
    _ranges = dict.fromkeys(("projectile_mass", "drag_coefficient", "reference_area",
                             "air_density", "gravity"), POSITIVE)

    def __post_init__(self) -> None:
        # Read on every step of the fall-time solve, so computed once here. Set
        # as plain attributes, not fields: _fields, _asdict(), repr, == and
        # hash see the five inputs only, and _replace() recomputes them.
        drag = self.air_density * self.drag_coefficient * self.reference_area
        vt = math.sqrt(2.0 * self.projectile_mass * self.gravity / drag) if drag else math.inf
        if not 0.0 < vt < math.inf:  # a product under- or overflowed
            raise InvalidParameterError(
                f"terminal velocity sqrt(2*m*g/(rho*C_d*A)) must be finite and > 0, got {vt!r}"
            )
        scale = vt * vt / self.gravity  # the fall-distance scale of drag_fall_distance
        if not 0.0 < scale < math.inf:
            raise InvalidParameterError(
                f"fall-distance scale 2*m/(rho*C_d*A) = v_t^2/g must be finite and > 0, "
                f"got {scale!r}")
        self.__dict__.update(_terminal_velocity=vt, _distance_scale=scale)


def ideal_impact_velocity(height: float, gravity: float = GRAVITY_STANDARD) -> float:
    """Drag-free impact velocity sqrt(2*g*h)."""
    require("height", height)
    require("gravity", gravity, above=True)
    velocity = math.sqrt(2.0 * gravity * height)
    if velocity < math.inf:
        return velocity
    raise InvalidParameterError(f"height {height!r} gives an impact velocity sqrt(2*g*h) "
                                f"beyond float range at gravity {gravity!r}")


def required_drop_height(
    bird_speed: float, aircraft_speed: float, gravity: float = GRAVITY_STANDARD
) -> float:
    """Height whose drag-free impact velocity equals v_bird + v_aircraft."""
    require("bird_speed", bird_speed)
    require("aircraft_speed", aircraft_speed)
    require("gravity", gravity, above=True)
    v = bird_speed + aircraft_speed
    height = v * v / (2.0 * gravity)
    if height < math.inf:
        return height
    raise InvalidParameterError(
        f"bird_speed {bird_speed!r} and aircraft_speed {aircraft_speed!r} give a drop height "
        f"(v_bird + v_aircraft)^2/(2*g) beyond float range at gravity {gravity!r}")


def make_drop_plan(
    bird_speed: float,
    aircraft_speed: float,
    scale_factor: float = DEFAULT_SCALE_FACTOR,
    gravity: float = GRAVITY_STANDARD,
    species_name: str = "",
) -> DropPlan:
    """Full drop plan: original velocity/height plus the velocity-scaled pair."""
    require("scale_factor", scale_factor, 1.0)
    original_velocity = bird_speed + aircraft_speed
    original_height = required_drop_height(bird_speed, aircraft_speed, gravity)
    scaled_velocity = original_velocity / scale_factor
    scaled_height = required_drop_height(scaled_velocity, 0.0, gravity)
    return DropPlan(
        species_name=species_name,
        original_impact_velocity=original_velocity,
        original_drop_height=original_height,
        scale_factor=scale_factor,
        scaled_impact_velocity=scaled_velocity,
        scaled_drop_height=scaled_height,
        gravity=gravity,
    )


def terminal_velocity(params: DragParams) -> float:
    """Steady fall speed sqrt(2*m*g/(rho*C_d*A)) where drag balances gravity."""
    return params._terminal_velocity


def drag_fall_distance(t: float, params: DragParams) -> float:
    """Distance fallen after t seconds from rest: (v_t^2/g)*log(cosh(g*t/v_t))."""
    if not (t.__class__ is float and 0.0 <= t < math.inf):  # no call for a plain valid t
        require("time", t)
    x = params.gravity * t / params._terminal_velocity
    if x < 1.0:  # log(cosh(x)) = log1p(2*sinh(x/2)^2) keeps its precision as x -> 0
        s = math.sinh(0.5 * x)
        return params._distance_scale * math.log1p(2.0 * s * s)
    return params._distance_scale * (x + math.log1p(math.exp(-2.0 * x)) - _LOG2)  # never overflows


def fall_time_for_drop(height: float, params: DragParams) -> float:
    """Time to fall `height` metres with drag.

    t(h) from the module docstring, x*v_t/g taken as h/v_t (finite wherever t is),
    then one Newton step on drag_fall_distance: the round trip holds to rounding.
    """
    require("height", height)
    vt, g = params._terminal_velocity, params.gravity
    x = g * height / (vt * vt)
    if x == 0.0:  # h = 0, or so small that x underflows to 0
        return 0.0
    t = height / vt + (vt / g) * math.log1p(math.sqrt(-math.expm1(-2.0 * x)))
    if t < math.inf:
        t -= (drag_fall_distance(t, params) - height) / (vt * math.tanh(g * t / vt))
    if not 0.0 <= t < math.inf:
        raise InvalidParameterError(f"height must give a finite fall time, got {height!r}")
    return t


def impact_velocity_from_drop(height: float, params: DragParams) -> float:
    """Impact speed after falling `height` metres with drag.

    Below the drag-free sqrt(2*g*h) for positive drag, to rounding as drag vanishes.
    """
    return _velocity_after(fall_time_for_drop(height, params), params)


def impact_velocity_from_timing(fall_time: float, params: DragParams) -> float:
    """Impact speed from a recorded release-to-impact time: v_t*tanh(g*t/v_t)."""
    require("time", fall_time)
    return _velocity_after(fall_time, params)


def _velocity_after(fall_time: float, params: DragParams) -> float:  # fall_time validated
    vt = params._terminal_velocity
    return vt * math.tanh(params.gravity * fall_time / vt)


class PublishedPlan(Record):
    """Previously published reference plan values for one species."""

    original_velocity: float  # m/s
    original_height: float    # m
    scaled_velocity: float    # m/s
    scaled_height: float      # m


# Published reference plans (1:15 velocity scale, tabulated at
# GRAVITY_PRESETS["paper"]). Used to cross-check computed plans: the Turkey
# Vulture original height is known to be inconsistent with h = v^2/(2g) at any
# constant g and is flagged by plan_flags rather than silently corrected.
PUBLISHED_PLANS = {
    "Common Grackle": PublishedPlan(103.41, 535.0, 6.89, 2.4),
    "Starling": PublishedPlan(112.35, 631.0, 7.49, 2.8),
    "House Sparrow": PublishedPlan(102.77, 528.0, 6.85, 2.3),
    "Mallard": PublishedPlan(119.06, 709.0, 7.94, 3.1),
    "Turkey Vulture": PublishedPlan(116.82, 708.0, 7.79, 3.0),
    "Laughing Gull": PublishedPlan(96.70, 467.0, 6.44, 2.0),
    "Bald Eagle": PublishedPlan(110.12, 606.0, 7.34, 2.7),
    "Canada Goose": PublishedPlan(107.88, 582.0, 7.19, 2.6),
    "Rock Dove": PublishedPlan(126.11, 795.0, 8.40, 3.5),
    "Ring-billed Gull": PublishedPlan(107.88, 582.0, 7.19, 2.6),
    "Herring Gull": PublishedPlan(107.88, 582.0, 7.19, 2.6),
}

# The cross-check: each DropPlan field, in PublishedPlan field order, and its
# label, unit and agreement band (the print precision of the published column).
_PLAN_CHECKS = {
    "original_impact_velocity": ("original impact velocity", "m/s", 0.01),
    "original_drop_height": ("original drop-height", "m", 1.0),
    "scaled_impact_velocity": ("scaled impact velocity", "m/s", 0.01),
    "scaled_drop_height": ("scaled drop-height", "m", 0.1),
}


def plan_flags(plan: DropPlan) -> list[str]:
    """Inconsistency flags between a computed plan and the published reference.

    Species without a published reference yield no flags. The check only
    engages for plans computed at the gravity the reference was tabulated
    with; at any other gravity a mismatch would reflect the gravity choice,
    not a data inconsistency.
    """
    reference = PUBLISHED_PLANS.get(plan.species_name)
    if reference is None or not math.isclose(plan.gravity, GRAVITY_PRESETS["paper"]):
        return []
    flags = []
    for published, (field, (label, unit, tolerance)) in zip(reference._asdict().values(),
                                                            _PLAN_CHECKS.items()):
        computed = getattr(plan, field)
        if abs(computed - published) > tolerance:
            flags.append(
                f"published {label} {published:g} {unit} is inconsistent with "
                f"computed {computed:.2f} {unit} (tolerance {tolerance:g} {unit})"
            )
    return flags
