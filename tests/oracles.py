"""Independent numerical oracles for cross-checking the package's arithmetic.

Nothing here imports the package under test. For the closed-form kinematics,
the governing rate dv/dt = g - k*v^2 (k = rho*C_d*A/(2*m)) is integrated
directly with classical fourth-order Runge-Kutta, jointly with dy/dt = v, and
the fall distance, fall time and impact velocity are evaluated to 60 digits
with decimal. For the conformance statistics, the sample variance is computed
exactly in rational arithmetic, and so is the conformance harness's reference
force, from its closed form. For the CSV tables, csv.reader reads the rows
one at a time. For significant-figure rounding, decimal quantizes the value's
repr with ROUND_HALF_UP. write_measurements writes the campaign files that the
tests ingest.
"""

from __future__ import annotations

import csv
import math
from decimal import ROUND_HALF_UP, Decimal, localcontext
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


def exact_reference_force(volume_per_length: Fraction, specimen_density: float,
                          impact_angle: float, speed_squared: Fraction,
                          scaled_cruise: Fraction | None) -> Fraction:
    """The reference force of one scenario in exact rational arithmetic.

    volume_per_length is the projectile's V/L (its mass over length times
    density), speed_squared the impact velocity squared, and scaled_cruise
    c = cruise/scale under the scaled-cruise split, None under all-aircraft.
    With K = rho_a*(V/L)*sin(theta)/2, the force is K*c*((v - c)*sin(theta) + c)
    under scaled-cruise with v >= c, and K*v^2 otherwise (the aircraft takes
    the whole velocity). sin(theta) is taken once in floating point; v, where
    needed, is the square root to 60 digits.
    """
    sin_theta = Fraction(math.sin(math.radians(impact_angle)))
    k = Fraction(specimen_density) * volume_per_length * sin_theta / 2
    c = scaled_cruise
    if c is None or speed_squared <= c * c:
        return k * speed_squared
    with localcontext() as context:
        context.prec = 60
        v = Fraction((Decimal(speed_squared.numerator) / Decimal(speed_squared.denominator)).sqrt())
    return k * c * ((v - c) * sin_theta + c)


def _decimal_drag(mass: float, drag_coefficient: float, reference_area: float,
                  air_density: float, gravity: float) -> tuple[Decimal, Decimal]:
    """(v_t, g) as Decimals, v_t = sqrt(2*m*g/(rho*C_d*A)); call inside a 60-digit context."""
    g = Decimal(gravity)
    drag = Decimal(air_density) * Decimal(drag_coefficient) * Decimal(reference_area)
    return (2 * Decimal(mass) * g / drag).sqrt(), g


def decimal_fall_distance(t: float, mass: float, drag_coefficient: float,
                          reference_area: float, air_density: float, gravity: float) -> float:
    """Distance fallen from rest after t seconds, (v_t^2/g)*ln(cosh(g*t/v_t)), to 60 digits."""
    with localcontext() as context:
        context.prec = 60
        vt, g = _decimal_drag(mass, drag_coefficient, reference_area, air_density, gravity)
        y = g * Decimal(t) / vt
        cosh = (y.exp() + (-y).exp()) / 2
        return float(vt * vt / g * cosh.ln())


def decimal_drop(height: float, mass: float, drag_coefficient: float,
                 reference_area: float, air_density: float, gravity: float) -> tuple[float, float]:
    """(fall time, impact velocity) of a drop from `height`, to 60 digits.

    Inverts the distance formula directly: cosh(g*t/v_t) = exp(g*h/v_t^2) = c,
    so t = (v_t/g)*arccosh(c) with arccosh(c) = ln(c + sqrt(c^2 - 1)), and
    v = v_t*tanh(g*t/v_t) = v_t*sqrt(c^2 - 1)/c.
    """
    with localcontext() as context:
        context.prec = 60
        vt, g = _decimal_drag(mass, drag_coefficient, reference_area, air_density, gravity)
        c = (g * Decimal(height) / (vt * vt)).exp()
        root = (c * c - 1).sqrt()
        return float(vt / g * (c + root).ln()), float(vt * root / c)


def decimal_round_sig(value: float, digits: int) -> float:
    """A finite nonzero float to `digits` significant figures, halves away from zero, by
    Decimal.quantize; inf, with the value's sign, where the result is past float range.

    The last kept digit is placed by the exact exponent of repr(value) (adjusted()), not
    by a float log10, which rounds up to the next power of ten just below one.
    """
    exact = Decimal(repr(value))
    quantum = Decimal(1).scaleb(exact.adjusted() - digits + 1)
    return float(exact.quantize(quantum, rounding=ROUND_HALF_UP))


def csv_rows(path, columns) -> tuple[list[tuple[int, tuple]], str | None]:
    """A CSV table read one row at a time by csv.reader, under the input CSV rules.

    The header is row 1 and is not checked. A row whose cells are all blank is
    skipped; any other row must have one cell per (name, kind) column, each
    converted by its kind. Returns the (row number, cells) of the rows before
    the first bad one, and that row's error message (None if there is none),
    in the package's wording.
    """
    rows = []
    row_no = 2
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        while True:
            try:
                row = next(reader, None)
            except csv.Error as exc:
                return rows, f"{path}: row {row_no}: {exc}"
            if row is None:
                return rows, None
            if "".join(row).strip():
                if len(row) != len(columns):
                    return rows, (f"{path}: row {row_no}: expected {len(columns)} columns, "
                                  f"got {len(row)}")
                cells = []
                for (name, kind), cell in zip(columns, row):
                    try:
                        cells.append(kind(cell))
                    except ValueError:
                        return rows, f"{path}: row {row_no}, column {name}: not a number: {cell!r}"
                rows.append((row_no, tuple(cells)))
            row_no += 1


def write_measurements(path, rows, velocity=False):
    """Save rows as a measurements CSV and return path: the header, with the velocity
    column when velocity is set, then one newline-ended line of str() cells per row."""
    header = "scenario_id,iteration,force_n" + ",impact_velocity_m_s" * velocity
    path.write_text("".join(f"{','.join(map(str, row))}\n" for row in [(header,), *rows]),
                    encoding="utf-8")
    return path
