"""Independent numerical oracles for cross-checking the package's arithmetic.

Nothing here imports the package under test. For the closed-form kinematics,
the governing rate dv/dt = g - k*v^2 (k = rho*C_d*A/(2*m)) is integrated
directly with classical fourth-order Runge-Kutta, jointly with dy/dt = v. For
the conformance statistics, the sample variance is computed exactly in
rational arithmetic.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction


def drag_factor(mass: float, air_density: float, drag_coefficient: float,
                reference_area: float) -> float:
    """k in dv/dt = g - k*v^2."""
    return air_density * drag_coefficient * reference_area / (2.0 * mass)


def rk4_fall(gravity: float, k: float, t_end: float, dt: float = 5e-4) -> tuple[float, float]:
    """Integrate a drop from rest to t_end; returns (distance, velocity)."""
    steps = max(1, round(t_end / dt))
    h = t_end / steps
    y = 0.0
    v = 0.0
    for _ in range(steps):
        a1 = gravity - k * v * v
        v2 = v + 0.5 * h * a1
        a2 = gravity - k * v2 * v2
        v3 = v + 0.5 * h * a2
        a3 = gravity - k * v3 * v3
        v4 = v + h * a3
        a4 = gravity - k * v4 * v4
        y += (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v += (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    return y, v


def rk4_fall_samples(gravity: float, k: float, sample_times: list[float],
                     dt: float = 5e-4) -> dict[float, tuple[float, float]]:
    """One integration pass, recording (distance, velocity) at each sample time.

    Sample times must be ascending multiples of dt.
    """
    out: dict[float, tuple[float, float]] = {}
    y = 0.0
    v = 0.0
    t = 0.0
    for target in sample_times:
        steps = round((target - t) / dt)
        for _ in range(steps):
            a1 = gravity - k * v * v
            v2 = v + 0.5 * dt * a1
            a2 = gravity - k * v2 * v2
            v3 = v + 0.5 * dt * a2
            a3 = gravity - k * v3 * v3
            v4 = v + dt * a3
            a4 = gravity - k * v4 * v4
            y += (dt / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
            v += (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        t = target
        out[target] = (y, v)
    return out


def exact_sample_std(values) -> float:
    """Sample (n-1) standard deviation of floats, as the float nearest its exact value.

    The variance is exact: a Fraction from the exact sums of the values and
    of their squares. Its square root is taken to 50 significant digits with
    decimal, then rounded to a float.
    """
    n = len(values)
    exact = [Fraction(value) for value in values]
    total = sum(exact)
    variance = (sum(x * x for x in exact) - total * total / n) / (n - 1)
    with localcontext() as context:
        context.prec = 50
        return float((Decimal(variance.numerator) / Decimal(variance.denominator)).sqrt())
