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

from ._record import NON_NEGATIVE, POSITIVE, TEXT, Record
from .errors import InvalidParameterError, require
from .materials import CRUISE_SPEED

GRAVITY_PRESETS = {
    "standard": 9.80665,  # m/s^2
    "paper": 10.0,        # round value the published reference plans were tabulated with
}
GRAVITY_STANDARD = GRAVITY_PRESETS["standard"]

DEFAULT_SCALE_FACTOR = 15.0  # velocity scale bringing ~600 m drops under ~3 m
DEFAULT_AIR_DENSITY = 1.225  # kg/m^3, sea level

_LOG2 = math.log(2.0)


class DropPlan(Record):
    """Planned drop for one species: its velocities and heights are derived, never stored."""

    species_name: str
    bird_speed: float      # m/s
    aircraft_speed: float  # m/s
    scale_factor: float
    gravity: float         # m/s^2
    _ranges = dict(scale_factor=(1.0, math.inf, False), bird_speed=NON_NEGATIVE,
                   aircraft_speed=NON_NEGATIVE, gravity=POSITIVE, species_name=TEXT)

    def __post_init__(self) -> None:  # the scaled height is no larger, as scale_factor >= 1
        v = self.bird_speed + self.aircraft_speed
        if not v * v / (2.0 * self.gravity) < math.inf:
            required_drop_height(self.bird_speed, self.aircraft_speed, self.gravity)  # raises

    @property
    def original_impact_velocity(self) -> float:  # m/s
        return self.bird_speed + self.aircraft_speed

    @property
    def original_drop_height(self) -> float:  # m, drag-free
        return required_drop_height(self.bird_speed, self.aircraft_speed, self.gravity)

    @property
    def scaled_impact_velocity(self) -> float:  # m/s, the original over the scale factor
        return self.original_impact_velocity / self.scale_factor

    @property
    def scaled_drop_height(self) -> float:  # m, drag-free
        return required_drop_height(self.scaled_impact_velocity, 0.0, self.gravity)


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
        attributes = self.__dict__
        gravity = attributes["gravity"]
        drag = (attributes["air_density"] * attributes["drag_coefficient"]
                * attributes["reference_area"])
        vt = math.sqrt(2.0 * attributes["projectile_mass"] * gravity / drag) if drag else math.inf
        if not 0.0 < vt < math.inf:  # a product under- or overflowed
            raise InvalidParameterError(
                f"terminal velocity sqrt(2*m*g/(rho*C_d*A)) must be finite and > 0, got {vt!r}"
            )
        scale = vt * vt / gravity  # the fall-distance scale of drag_fall_distance
        if not 0.0 < scale < math.inf:
            raise InvalidParameterError(
                f"fall-distance scale 2*m/(rho*C_d*A) = v_t^2/g must be finite and > 0, "
                f"got {scale!r}")
        attributes["_terminal_velocity"], attributes["_distance_scale"] = vt, scale


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
    return DropPlan(species_name, bird_speed, aircraft_speed, scale_factor, gravity)


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
    if not (height.__class__ is float and 0.0 <= height < math.inf):
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
    fall_time, vt = fall_time_for_drop(height, params), params._terminal_velocity
    return vt * math.tanh(params.gravity * fall_time / vt)


def impact_velocity_from_timing(fall_time: float, params: DragParams) -> float:
    """Impact speed from a recorded release-to-impact time: v_t*tanh(g*t/v_t)."""
    if not (fall_time.__class__ is float and 0.0 <= fall_time < math.inf):
        require("time", fall_time)
    vt = params._terminal_velocity
    return vt * math.tanh(params.gravity * fall_time / vt)


# Published reference plans (1:15 velocity scale and 90 m/s cruise, tabulated at
# GRAVITY_PRESETS["paper"]), each a tuple in _PLAN_CHECKS order. Used to cross-check
# computed plans: the Turkey Vulture original height is known to be inconsistent with
# h = v^2/(2g) at any constant g and is flagged by plan_flags rather than silently corrected.
PUBLISHED_PLANS = {
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

# The settings the published plans were tabulated with: (gravity, scale factor, cruise speed).
_PUBLISHED_SETTINGS = (GRAVITY_PRESETS["paper"], DEFAULT_SCALE_FACTOR, CRUISE_SPEED)

# The cross-check: each DropPlan value compared, and its label, unit and
# agreement band (the print precision of the published column).
_PLAN_CHECKS = {
    "original_impact_velocity": ("original impact velocity", "m/s", 0.01),
    "original_drop_height": ("original drop-height", "m", 1.0),
    "scaled_impact_velocity": ("scaled impact velocity", "m/s", 0.01),
    "scaled_drop_height": ("scaled drop-height", "m", 0.1),
}


def plan_flags(plan: DropPlan) -> list[str]:
    """Inconsistency flags between a computed plan and the published reference.

    Species without a published reference yield no flags. The check only
    engages for plans made at the settings the reference was tabulated with:
    gravity 10 m/s^2, scale factor 15 and aircraft (cruise) speed 90 m/s; under
    any other setting a mismatch reflects that choice, not a data inconsistency.
    """
    reference = PUBLISHED_PLANS.get(plan.species_name)
    settings = (plan.gravity, plan.scale_factor, plan.aircraft_speed)
    if reference is None or not all(map(math.isclose, settings, _PUBLISHED_SETTINGS)):
        return []
    flags = []
    for published, (field, (label, unit, tolerance)) in zip(reference, _PLAN_CHECKS.items()):
        computed = getattr(plan, field)
        if abs(computed - published) > tolerance:
            flags.append(
                f"published {label} {published:g} {unit} is inconsistent with "
                f"computed {computed:.2f} {unit} (tolerance {tolerance:g} {unit})"
            )
    return flags
