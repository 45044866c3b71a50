"""Drop-weight launch kinematics.

Plans drop heights for target impact velocities (drag neglected, as in the
published reference plans) and reconstructs impact velocities from drop height
or fall time when quadratic aerodynamic drag matters:

    v(t) = v_t * tanh(g*t/v_t)              v_t = sqrt(2*m*g/(rho*C_d*A))
    y(t) = (v_t^2/g) * log(cosh(g*t/v_t))
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BirdstrikeError, InvalidParameterError, require

GRAVITY_PRESETS = {
    "standard": 9.80665,  # m/s^2
    "paper": 10.0,        # round value the published reference plans were tabulated with
}
GRAVITY_STANDARD = GRAVITY_PRESETS["standard"]

DEFAULT_SCALE_FACTOR = 15.0  # velocity scale bringing ~600 m drops under ~3 m
DEFAULT_AIR_DENSITY = 1.225  # kg/m^3, sea level

_LOG2 = math.log(2.0)

# Root-finding bracket width for the fall-time solve; tight enough that the
# distance round trip holds to 1e-9 m at laboratory scales.
_TIME_TOLERANCE = 1e-12  # s


@dataclass(frozen=True)
class DropPlan:
    """Planned drop for one species: full-scale and velocity-scaled columns."""

    species_name: str
    original_impact_velocity: float  # m/s
    original_drop_height: float      # m
    scale_factor: float
    scaled_impact_velocity: float    # m/s
    scaled_drop_height: float        # m
    gravity: float                   # m/s^2

    def __post_init__(self) -> None:
        require("original_impact_velocity", self.original_impact_velocity)
        require("original_drop_height", self.original_drop_height)
        require("scale_factor", self.scale_factor, 1.0)
        require("scaled_impact_velocity", self.scaled_impact_velocity)
        require("scaled_drop_height", self.scaled_drop_height)
        require("gravity", self.gravity, above=True)
        expected = self.original_impact_velocity / self.scale_factor
        if abs(self.scaled_impact_velocity - expected) > 1e-9 * max(1.0, expected):
            raise InvalidParameterError(
                "scaled_impact_velocity must equal original_impact_velocity / scale_factor"
            )


@dataclass(frozen=True)
class DragParams:
    """Quadratic-drag free-fall parameters."""

    projectile_mass: float                  # kg
    drag_coefficient: float
    reference_area: float                   # m^2, frontal
    air_density: float = DEFAULT_AIR_DENSITY  # kg/m^3
    gravity: float = GRAVITY_STANDARD       # m/s^2

    def __post_init__(self) -> None:
        require("projectile_mass", self.projectile_mass, above=True)
        require("drag_coefficient", self.drag_coefficient, above=True)
        require("reference_area", self.reference_area, above=True)
        require("air_density", self.air_density, above=True)
        require("gravity", self.gravity, above=True)
        # Read on every step of the fall-time solve, so computed once here. Set
        # as a plain attribute, not a field: fields(), asdict, repr, == and
        # hash see the five inputs only, and replace() recomputes it.
        drag = self.air_density * self.drag_coefficient * self.reference_area
        vt = math.sqrt(2.0 * self.projectile_mass * self.gravity / drag) if drag else math.inf
        if not 0.0 < vt < math.inf:  # a product under- or overflowed
            raise InvalidParameterError(
                f"terminal velocity sqrt(2*m*g/(rho*C_d*A)) must be finite and > 0, got {vt!r}"
            )
        object.__setattr__(self, "_terminal_velocity", vt)


def ideal_impact_velocity(height: float, gravity: float = GRAVITY_STANDARD) -> float:
    """Drag-free impact velocity sqrt(2*g*h)."""
    require("height", height)
    require("gravity", gravity, above=True)
    return math.sqrt(2.0 * gravity * height)


def required_drop_height(
    bird_speed: float, aircraft_speed: float, gravity: float = GRAVITY_STANDARD
) -> float:
    """Height whose drag-free impact velocity equals v_bird + v_aircraft."""
    require("bird_speed", bird_speed)
    require("aircraft_speed", aircraft_speed)
    require("gravity", gravity, above=True)
    v = bird_speed + aircraft_speed
    return v * v / (2.0 * gravity)


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
    scaled_height = scaled_velocity * scaled_velocity / (2.0 * gravity)
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
    if not 0.0 <= t < math.inf:  # once per bisection step: call only to raise
        require("time", t)
    vt, g = params._terminal_velocity, params.gravity
    x = g * t / vt  # >= 0, so log(cosh(x)) = x + log1p(exp(-2x)) - log 2 never overflows
    return (vt * vt / g) * (x + math.log1p(math.exp(-2.0 * x)) - _LOG2)


def fall_time_for_drop(height: float, params: DragParams) -> float:
    """Time to fall `height` metres with drag.

    Bisects the monotone distance function, so convergence is guaranteed; the
    bracket is tightened far enough that the distance round trip holds to
    1e-9 m at laboratory scales.
    """
    require("height", height)
    if height == 0:
        return 0.0
    lo, hi = 0.0, 1.0
    while drag_fall_distance(hi, params) < height:
        hi *= 2.0
        if hi > 1e12:  # distance grows without bound; defensive only
            raise BirdstrikeError("failed to bracket the fall time")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if drag_fall_distance(mid, params) < height:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _TIME_TOLERANCE:
            break
    return 0.5 * (lo + hi)


def impact_velocity_from_drop(height: float, params: DragParams) -> float:
    """Impact speed after falling `height` metres with drag.

    Always strictly below the drag-free sqrt(2*g*h) for positive drag.
    """
    return impact_velocity_from_timing(fall_time_for_drop(height, params), params)


def impact_velocity_from_timing(fall_time: float, params: DragParams) -> float:
    """Impact speed from a recorded release-to-impact time: v_t*tanh(g*t/v_t)."""
    require("time", fall_time)
    vt = params._terminal_velocity
    return vt * math.tanh(params.gravity * fall_time / vt)


@dataclass(frozen=True)
class PublishedPlan:
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

# Agreement bands for the cross-check, matching the print precision of the
# published columns.
PLAN_TOLERANCES = {
    "original_velocity": 0.01,  # m/s
    "original_height": 1.0,     # m
    "scaled_velocity": 0.01,    # m/s
    "scaled_height": 0.1,       # m
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
    checks = (
        ("original impact velocity", "m/s", plan.original_impact_velocity,
         reference.original_velocity, PLAN_TOLERANCES["original_velocity"]),
        ("original drop-height", "m", plan.original_drop_height,
         reference.original_height, PLAN_TOLERANCES["original_height"]),
        ("scaled impact velocity", "m/s", plan.scaled_impact_velocity,
         reference.scaled_velocity, PLAN_TOLERANCES["scaled_velocity"]),
        ("scaled drop-height", "m", plan.scaled_drop_height,
         reference.scaled_height, PLAN_TOLERANCES["scaled_height"]),
    )
    for label, unit, computed, published, tolerance in checks:
        if abs(computed - published) > tolerance:
            flags.append(
                f"published {label} {published:g} {unit} is inconsistent with "
                f"computed {computed:.2f} {unit} (tolerance {tolerance:g} {unit})"
            )
    return flags
