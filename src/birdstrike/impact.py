"""Closed-form impact force model for a bird striking an aircraft skin panel.

The bird is idealised as a right circular cylinder of known mass, length and
body density hitting a flat panel at angle theta (90 deg = head-on). The force
follows from the kinetic energy transferred over the momentum-balance
penetration depth:

    v     = v_bird*sin(theta) + v_aircraft
    E     = m*v^2 / 2
    d     = l * (rho_bird/rho_aircraft) * v/v_aircraft
    F     = E*sin(theta)/d
          = m*rho_aircraft*v_aircraft*v*sin(theta) / (2*l*rho_bird)

Angles are degrees at every interface and converted internally exactly once.
The moving-aircraft form is singular at v_aircraft = 0; the stationary model

    F = m*v_bird^2*rho_aircraft*sin(theta)^3 / (2*l*rho_bird)

is a separate, explicitly chosen operation because the two disagree in the
limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import InvalidParameterError, StationaryAircraftError, require


def _sin_deg(angle: float) -> float:
    return math.sin(math.radians(angle))


@dataclass(frozen=True)
class ImpactScenario:
    """One bird/aircraft/angle configuration fed to the force model."""

    bird_mass: float         # kg
    bird_length: float       # m
    bird_density: float      # kg/m^3
    bird_speed: float        # m/s
    aircraft_speed: float    # m/s
    aircraft_density: float  # kg/m^3
    impact_angle: float      # degrees, 0 (grazing) .. 90 (head-on)

    def __post_init__(self) -> None:
        require("bird_mass", self.bird_mass)
        require("bird_length", self.bird_length, above=True)
        require("bird_density", self.bird_density, above=True)
        require("bird_speed", self.bird_speed)
        require("aircraft_speed", self.aircraft_speed)
        require("aircraft_density", self.aircraft_density, above=True)
        require("impact_angle", self.impact_angle, 0.0, 90.0)


@dataclass(frozen=True)
class ImpactResult:
    """Force plus the intermediate quantities it was built from."""

    total_speed: float        # m/s
    kinetic_energy: float     # J
    penetration_depth: float  # m
    force: float              # N


@dataclass(frozen=True)
class CertificationLimits:
    """Airworthiness thresholds for bird impact on small aircraft."""

    single_bird_force: float = 2255.0  # N
    flock_force: float = 4819.0        # N

    def __post_init__(self) -> None:
        for field in fields(self):
            require(field.name, getattr(self, field.name), above=True)


DEFAULT_LIMITS = CertificationLimits()
# Each certification case and the CertificationLimits field holding its threshold.
CERTIFICATION_CASES = {"single-bird": "single_bird_force", "flock": "flock_force"}


@dataclass(frozen=True)
class CertificationVerdict:
    case: str
    force: float   # N
    limit: float   # N
    passed: bool
    margin: float  # N, limit - force (negative when exceeded)


@dataclass(frozen=True)
class SensitivityRow:
    value: float
    force: float           # N
    percent_change: float  # signed, vs the base scenario


def impact_force(scenario: ImpactScenario) -> ImpactResult:
    """Evaluate the moving-aircraft force model for one scenario.

    The returned force equals kinetic_energy*sin(theta)/penetration_depth; the
    intermediates are carried alongside it.
    """
    s = scenario
    if s.aircraft_speed == 0:
        raise StationaryAircraftError(
            "penetration depth is singular at aircraft speed 0; "
            "use the stationary-aircraft model (impact_force_stationary)"
        )
    sin_theta = _sin_deg(s.impact_angle)
    v = s.bird_speed * sin_theta + s.aircraft_speed
    energy = 0.5 * s.bird_mass * v * v
    depth = s.bird_length * (s.bird_density / s.aircraft_density) * (v / s.aircraft_speed)
    force = (
        0.5 * s.bird_mass * s.aircraft_density * s.aircraft_speed * v * sin_theta
        / (s.bird_length * s.bird_density)
    )
    return ImpactResult(v, energy, depth, force)


def impact_force_stationary(
    bird_mass: float,
    bird_speed: float,
    bird_length: float,
    bird_density: float,
    aircraft_density: float,
    impact_angle: float,
) -> float:
    """Force on a stationary aircraft: m*v_bird^2*rho_a*sin(theta)^3/(2*l*rho_b).

    The inputs are validated as an ImpactScenario with aircraft speed 0.
    """
    return _stationary_force(ImpactScenario(bird_mass, bird_length, bird_density, bird_speed,
                                            0.0, aircraft_density, impact_angle))


def _stationary_force(s: ImpactScenario) -> float:
    """The stationary-aircraft force of an already validated scenario."""
    sin_theta = _sin_deg(s.impact_angle)
    return (
        0.5 * s.bird_mass * s.bird_speed * s.bird_speed * s.aircraft_density * sin_theta ** 3
        / (s.bird_length * s.bird_density)
    )


def scale_scenario(scenario: ImpactScenario, velocity_factor: float) -> ImpactScenario:
    """Scale both speeds by the same factor; the force scales by its square."""
    require("velocity_factor", velocity_factor, above=True)
    return replace(
        scenario,
        bird_speed=scenario.bird_speed * velocity_factor,
        aircraft_speed=scenario.aircraft_speed * velocity_factor,
    )


def check_certification(
    force: float, case: str, limits: CertificationLimits = DEFAULT_LIMITS
) -> CertificationVerdict:
    """Compare a force against the single-bird or flock threshold."""
    require("force", force)
    if case not in CERTIFICATION_CASES:
        raise InvalidParameterError(
            f"case must be {' or '.join(map(repr, CERTIFICATION_CASES))}, got {case!r}")
    limit = getattr(limits, CERTIFICATION_CASES[case])
    return CertificationVerdict(case, force, limit, force <= limit, limit - force)


def _force_any_speed(scenario: ImpactScenario) -> float:
    """Force via the moving-aircraft model, or the stationary one at speed 0."""
    if scenario.aircraft_speed == 0:
        return _stationary_force(scenario)
    return impact_force(scenario).force


def sensitivity_table(
    base: ImpactScenario, parameter: str, values: list[float]
) -> list[SensitivityRow]:
    """Recompute the force while varying one scenario field.

    Percent change is signed with the base force in the denominator. Varied
    scenarios with aircraft_speed 0 fall back to the stationary model.
    """
    names = {field.name for field in fields(ImpactScenario)}
    if parameter not in names:
        raise InvalidParameterError(
            f"unknown scenario parameter {parameter!r}; choose from {sorted(names)}"
        )
    base_force = _force_any_speed(base)
    if base_force == 0:
        raise InvalidParameterError("base scenario force is zero; percent change undefined")
    rows = []
    for value in values:
        force = _force_any_speed(replace(base, **{parameter: value}))
        rows.append(SensitivityRow(value, force, 100.0 * (force - base_force) / base_force))
    return rows


# Reference-campaign deltas this model intentionally does not reproduce: the
# campaign evaluated its theory with measured projectile properties that were
# never published, so the nominal-parameter model predicts different numbers.
# The `sweep` CLI prints the matching note whenever one of these parameters is
# swept.
PUBLISHED_DELTA_NOTES = {
    "bird_density": (
        "reference campaign reports +40% force for a +34% denser projectile; "
        "with mass scaling alongside density (infill) this model predicts 0%"
    ),
    "aircraft_density": (
        "reference campaign reports -62% force for the -58% density specimen; "
        "this model is linear in specimen density and predicts -58%"
    ),
    "impact_angle": (
        "reference campaign reports -40% force at 50 deg; with the full drop "
        "velocity treated as aircraft speed this model predicts -23%"
    ),
}
