"""Exception types shared across the toolkit, and the one range check."""

import math


class BirdstrikeError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(BirdstrikeError, ValueError):
    """An input violates a physical or structural invariant."""


class StationaryAircraftError(BirdstrikeError):
    """The moving-aircraft force model was evaluated at aircraft speed 0.

    The penetration depth divides by the aircraft speed, so the moving-aircraft
    model is singular there. Callers must choose the stationary-aircraft model
    (impact_force_stationary) explicitly; the two models disagree in the limit.
    """


class ParseError(BirdstrikeError):
    """A data file failed to parse or failed row-level validation."""


def require(name: str, value: float, lo: float = 0.0, hi: float = math.inf, *,
            above: bool = False, integer: bool = False, context: str = "") -> None:
    """Raise InvalidParameterError unless value is a finite number within its range.

    The range is [lo, hi], or (lo, hi] with above=True; the default is >= 0.
    NaN and +-inf are always rejected, and so are an int too large for a
    float and a bool, which is not a number here. With integer=True the value
    must also be an int (not a bool, nor a float such as 2.0). context, when
    given, ends the message.

    The guard rule: a hot path calls require only when its own inline test
    fails, as in `if not (x.__class__ is float and 0.0 <= x < math.inf)`. A
    plain float in range then costs no call, and every other value (an int, a
    bool, a float subclass, nan, inf, out of range, not a number) comes here,
    so what is accepted and every message are still require's.
    """
    try:
        if integer and (not isinstance(value, int) or isinstance(value, bool)):
            bound = "an integer"
        elif isinstance(value, bool):
            bound = "a number"
        elif (lo < value if above else lo <= value) and value <= hi and math.isfinite(value):
            return
        elif hi == math.inf:
            bound = f"{'>' if above else '>='} {lo:g}"
        else:
            bound = f"within {'(' if above else '['}{lo:g}, {hi:g}]"
    except TypeError:
        bound = "a number"
    except OverflowError:  # from math.isfinite, on an int beyond float range
        bound = "a number within float range"
    where = f" ({context})" if context else ""
    raise InvalidParameterError(f"{name} must be {bound}, got {value!r}{where}")
