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

from ._record import NON_NEGATIVE, POSITIVE, Record
from .errors import InvalidParameterError, StationaryAircraftError, require


def _bird_divisor(s: ImpactScenario) -> float:
    """bird_length*bird_density, the divisor of both force models, or the error when it is 0."""
    divisor = s.bird_length * s.bird_density
    if divisor == 0.0:
        raise InvalidParameterError(f"bird_length*bird_density underflows to 0 for "
                                    f"{s.bird_length!r} m and {s.bird_density!r} kg/m^3")
    return divisor


def _not_finite(**quantities: float) -> InvalidParameterError:
    """The error naming the first of quantities that is inf or nan."""
    name, value = next(item for item in quantities.items() if not math.isfinite(item[1]))
    return InvalidParameterError(f"{name} leaves float range for these inputs: got {value!r}")


class ImpactScenario(Record):
    """One bird/aircraft/angle configuration fed to the force model."""

    bird_mass: float         # kg
    bird_length: float       # m
    bird_density: float      # kg/m^3
    bird_speed: float        # m/s
    aircraft_speed: float    # m/s
    aircraft_density: float  # kg/m^3
    impact_angle: float      # degrees, 0 (grazing) .. 90 (head-on)
    _ranges = dict(bird_mass=NON_NEGATIVE, bird_length=POSITIVE, bird_density=POSITIVE,
                   bird_speed=NON_NEGATIVE, aircraft_speed=NON_NEGATIVE,
                   aircraft_density=POSITIVE, impact_angle=(0.0, 90.0, False))


class ImpactResult(Record):
    """Force plus the intermediate quantities it was built from."""

    total_speed: float        # m/s
    kinetic_energy: float     # J
    penetration_depth: float  # m
    force: float              # N


class CertificationLimits(Record):
    """Airworthiness thresholds for bird impact on small aircraft."""

    single_bird_force: float = 2255.0  # N
    flock_force: float = 4819.0        # N
    _ranges = dict(single_bird_force=POSITIVE, flock_force=POSITIVE)


DEFAULT_LIMITS = CertificationLimits()
# Each certification case and the CertificationLimits field holding its threshold.
CERTIFICATION_CASES = {"single-bird": "single_bird_force", "flock": "flock_force"}


class CertificationVerdict(Record):
    case: str
    force: float   # N
    limit: float   # N
    passed: bool
    margin: float  # N, limit - force (negative when exceeded)


class SensitivityRow(Record):
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
    sin_theta = math.sin(math.radians(s.impact_angle))
    v = s.bird_speed * sin_theta + s.aircraft_speed
    energy = 0.5 * s.bird_mass * v * v
    depth = s.bird_length * (s.bird_density / s.aircraft_density) * (v / s.aircraft_speed)
    force = (
        0.5 * s.bird_mass * s.aircraft_density * s.aircraft_speed * v * sin_theta
        / (s.bird_length * s.bird_density or _bird_divisor(s))  # which raises on 0
    )
    if not (energy < math.inf and depth < math.inf and force < math.inf):  # all >= 0 or nan
        raise _not_finite(total_speed=v, kinetic_energy=energy, penetration_depth=depth,
                          force=force)
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
    return _force_any_speed(ImpactScenario(bird_mass, bird_length, bird_density, bird_speed,
                                           0.0, aircraft_density, impact_angle))


def check_certification(
    force: float, case: str, limits: CertificationLimits = DEFAULT_LIMITS
) -> CertificationVerdict:
    """Compare a force against the single-bird or flock threshold."""
    if not (force.__class__ is float and 0.0 <= force < math.inf):
        require("force", force)
    if case not in CERTIFICATION_CASES:
        raise InvalidParameterError(
            f"case must be {' or '.join(map(repr, CERTIFICATION_CASES))}, got {case!r}")
    limit = getattr(limits, CERTIFICATION_CASES[case])
    return CertificationVerdict(case, force, limit, force <= limit, limit - force)


def _force_any_speed(s: ImpactScenario) -> float:
    """Force via the moving-aircraft model, or the stationary one at speed 0."""
    if s.aircraft_speed != 0:
        return impact_force(s).force
    sin_theta = math.sin(math.radians(s.impact_angle))
    force = (
        0.5 * s.bird_mass * s.bird_speed * s.bird_speed * s.aircraft_density * sin_theta ** 3
        / _bird_divisor(s)
    )
    if not force < math.inf:  # force >= 0 or nan
        raise _not_finite(force=force)
    return force


def sensitivity_table(
    base: ImpactScenario, parameter: str, values: list[float]
) -> list[SensitivityRow]:
    """Recompute the force while varying one scenario field.

    Percent change is signed with the base force in the denominator. Varied
    scenarios with aircraft_speed 0 fall back to the stationary model.
    """
    if parameter not in ImpactScenario._fields:
        raise InvalidParameterError(f"unknown scenario parameter {parameter!r}; "
                                    f"choose from {sorted(ImpactScenario._fields)}")
    base_force = _force_any_speed(base)
    if base_force == 0:
        raise InvalidParameterError("base scenario force is zero; percent change undefined")
    rows, fields = [], base._asdict()
    for value in values:
        fields[parameter] = value
        force = _force_any_speed(ImpactScenario(**fields))
        change = 100.0 * (force - base_force) / base_force
        if not math.isfinite(change):  # 100*(force - base) can overflow where the ratio does not
            change = (force - base_force) / base_force * 100.0
            if not math.isfinite(change):
                raise _not_finite(percent_change=change)
        rows.append(SensitivityRow(value, force, change))
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
