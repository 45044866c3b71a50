"""The range checks that each record's generated __init__ runs inline.

A differential test draws every range-checked field of each record from plain
and hostile values alike (each bound and values past it, nan, +-inf, ints past
float range, bools, strings, None and float subclasses), keeps the record's
other fields from its valid instance in valid_records.py, and compares the
exact error message of construction with an oracle: ORACLE, this file's own
literal table of ranges and the suite's only statement of them besides the
records' _ranges, run through errors.require in declaration order, then the
record's __post_init__ on the raw fields. A profiler then checks that valid
plain inputs reach errors.require not at all, in the records and in the
drop-chain functions that check their argument inline, and those functions are
checked to accept, reject and word each error as require does.
"""

import math
import random
import sys
import warnings

import pytest

from birdstrike import errors
from birdstrike.errors import InvalidParameterError, require
# aliased so pytest does not collect them
from birdstrike.harness import (ConformanceReport, MeasurementSet, ScenarioConformance,
                                TestMatrix as Matrix, TestScenario as Scenario)
from birdstrike.impact import (CertificationLimits, CertificationVerdict, ImpactScenario,
                               check_certification)
from birdstrike.kinematics import (DragParams, DropPlan, fall_time_for_drop,
                                   impact_velocity_from_drop, impact_velocity_from_timing)
from birdstrike.materials import MaterialSpec
from birdstrike.projectile import Cylinder, Ellipsoid, ProjectileSpec
from birdstrike.species import BirdSpecies

from valid_records import INSTANCES

INF = math.inf
FLOAT_MAX = sys.float_info.max

# record: [(field, kind, lo, hi, above)] in declaration order; kind is float,
# int (require's integer=True) or str (must be a string).
ORACLE = {
    ImpactScenario: [("bird_mass", float, 0.0, INF, False),
                     ("bird_length", float, 0.0, INF, True),
                     ("bird_density", float, 0.0, INF, True),
                     ("bird_speed", float, 0.0, INF, False),
                     ("aircraft_speed", float, 0.0, INF, False),
                     ("aircraft_density", float, 0.0, INF, True),
                     ("impact_angle", float, 0.0, 90.0, False)],
    DragParams: [("projectile_mass", float, 0.0, INF, True),
                 ("drag_coefficient", float, 0.0, INF, True),
                 ("reference_area", float, 0.0, INF, True), ("air_density", float, 0.0, INF, True),
                 ("gravity", float, 0.0, INF, True)],
    DropPlan: [("scale_factor", float, 1.0, INF, False), ("bird_speed", float, 0.0, INF, False),
               ("aircraft_speed", float, 0.0, INF, False), ("gravity", float, 0.0, INF, True),
               ("species_name", str, None, None, None)],
    CertificationLimits: [("single_bird_force", float, 0.0, INF, True),
                          ("flock_force", float, 0.0, INF, True)],
    CertificationVerdict: [("force", float, 0.0, INF, False), ("limit", float, 0.0, INF, True),
                           ("case", str, None, None, None)],
    Cylinder: [("radius", float, 0.0, INF, True), ("height", float, 0.0, INF, True)],
    Ellipsoid: [("a", float, 0.0, INF, True), ("b", float, 0.0, INF, True),
                ("c", float, 0.0, INF, True)],
    MaterialSpec: [("density", float, 0.0, INF, True)],
    BirdSpecies: [("mass", float, 0.0, INF, True), ("length", float, 0.0, INF, True),
                  ("body_density", float, 0.0, INF, True),
                  ("flight_speed", float, 0.0, INF, False)],
    ProjectileSpec: [("varying_factor", str, None, None, None), ("serial", int, 1, INF, False),
                     ("solid_material_density", float, 0.0, INF, True),
                     ("infill_fraction", float, 0.0, 1.0, False),
                     ("shell_fraction", float, 0.0, 1.0, False)],
    Scenario: [("id", str, None, None, None), ("specimen_material", str, None, None, None),
               ("case_number", int, 1, 7, False), ("projectile_serial", int, 1, 5, False),
               ("drop_height", float, 0.0, INF, True),
               ("nominal_impact_velocity", float, 0.0, INF, False),
               ("impact_angle", float, 0.0, 90.0, True), ("iterations", int, 1, INF, False)],
    ScenarioConformance: [("scenario_id", str, None, None, None),
                          ("experimental_std", float, 0.0, INF, False)],
    MeasurementSet: [("scenario_id", str, None, None, None)],
}
# Each range-checked record's valid instance, whose other fields the differential keeps.
VALID = {cls: record for cls, record in INSTANCES.items() if hasattr(cls, "_ranges")}


class Float(float):
    """A float subclass: never on the inline path, accepted by require."""


def draw(rng, kind, lo, hi):
    """Mostly a plain value at or within the range, else one a check must not mistake."""
    if rng.random() < 7 / 8:
        if kind is str:
            return rng.choice(["baseline", "CFRP", ""])
        if kind is int:
            return rng.randint(lo, min(hi, lo + 10))
        if hi < INF:
            return rng.choice([lo, hi, rng.uniform(lo, hi)])
        return rng.choice([lo, rng.uniform(lo, lo + 10.0),
                           lo + rng.random() * 10.0 ** rng.randint(-300, 300)])
    return rng.choice([
        rng.uniform(-1e3, 1e3), -0.0, 0.0, 5e-324, -5e-324, 2.2e-308, rng.randint(-3, 10), 0, 1,
        True, False, 10**400, int(FLOAT_MAX), int(FLOAT_MAX) + 2**971, math.nan, INF, -INF,
        "7", Float(rng.choice([0.5, 2.0, -1.0, math.nan])), None, FLOAT_MAX, 90.0, 90.5, 1.5,
    ])


def oracle_error(record, values):
    """The first message of the oracle's require sequence, then of __post_init__, or None."""
    name = values.get("name", "")
    try:
        for field, kind, lo, hi, above in ORACLE[record]:
            value = values[field]
            if kind is str:
                if not isinstance(value, str):
                    raise InvalidParameterError(f"{field} must be a string, got {value!r}")
            else:
                require(field, value, lo, hi, above=above, integer=kind is int, context=name)
        raw = object.__new__(record)
        raw.__dict__.update(values)
        if hasattr(record, "__post_init__"):
            raw.__post_init__()
    except InvalidParameterError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("record", list(ORACLE), ids=lambda record: record.__name__)
def test_generated_checks_match_the_oracle(record):
    assert [field for field, *_ in ORACLE[record]] == list(record._ranges)
    rng = random.Random(f"record checks {record.__name__}")
    built = 0
    for _ in range(4000):
        values = VALID[record]._asdict()
        values.update((field, draw(rng, kind, lo, hi)) for field, kind, lo, hi, _ in ORACLE[record])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # BirdSpecies warns on an odd body density
            want = oracle_error(record, values)
            try:
                record(**values)
                got = None
            except InvalidParameterError as exc:
                got = str(exc)
        assert got == want, values
        built += got is None
    assert built >= 250  # both outcomes are well covered


def require_calls(action) -> int:
    """The number of calls to errors.require while action() runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is errors.require.__code__:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return calls


DRAG = DragParams(0.0108, 1.15, 3.14159e-4)


def test_every_range_checked_record_is_covered():
    assert set(VALID) == set(ORACLE)


@pytest.mark.parametrize("record", list(VALID), ids=lambda record: record.__name__)
def test_valid_plain_values_make_no_call(record):
    fields = VALID[record]._asdict()
    assert require_calls(lambda: record(**fields)) == 0


def test_drop_velocity_checks_only_the_height():
    assert require_calls(lambda: impact_velocity_from_drop(2.8, DRAG)) == 0
    assert require_calls(lambda: impact_velocity_from_timing(0.8, DRAG)) == 0
    assert require_calls(lambda: fall_time_for_drop(2.8, DRAG)) == 0
    assert require_calls(lambda: check_certification(1996.4, "single-bird")) == 0


# Each function that checks its argument inline, by the name require gives it.
INLINE_GUARDS = {
    "height": lambda value: fall_time_for_drop(value, DRAG),
    "time": lambda value: impact_velocity_from_timing(value, DRAG),
    "force": lambda value: check_certification(value, "flock"),
}


def message_of(action):
    """The InvalidParameterError message of action(), or None when it raises none."""
    try:
        action()
    except InvalidParameterError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("value", [math.nan, INF, -INF, -1.0, -0.0, 3, True, "2.8", None],
                         ids=repr)
@pytest.mark.parametrize("name", list(INLINE_GUARDS))
def test_inline_guard_accepts_and_rejects_as_require_does(name, value):
    want = message_of(lambda: require(name, value))
    assert message_of(lambda: INLINE_GUARDS[name](value)) == want
    if want is not None:  # an error of require's, raised by a call to require
        assert require_calls(lambda: message_of(lambda: INLINE_GUARDS[name](value))) == 1


@pytest.mark.parametrize("build, message", [
    (lambda: VALID[ImpactScenario]._replace(impact_angle=90.5),
     "impact_angle must be within [0, 90], got 90.5"),
    (lambda: DragParams(0.0108, 1.15, math.nan), "reference_area must be > 0, got nan"),
    (lambda: VALID[MaterialSpec]._replace(density=-1.0), "density must be > 0, got -1.0 (CFRP)"),
    (lambda: VALID[Scenario]._replace(specimen_material=5, iterations=15.0),
     "specimen_material must be a string, got 5"),
    (lambda: impact_velocity_from_drop(-1.0, DRAG), "height must be >= 0, got -1.0"),
    (lambda: CertificationVerdict("swarm", math.nan, -3.0), "force must be >= 0, got nan"),
    (lambda: VALID[CertificationVerdict]._replace(force=-1.0), "force must be >= 0, got -1.0"),
    (lambda: check_certification(-1.0, "swarm"), "force must be >= 0, got -1.0"),
    (lambda: check_certification(10.0, "swarm"),
     "case must be 'single-bird' or 'flock', got 'swarm'"),
    (lambda: ScenarioConformance("a", 1.0, 1.0, -5.0),
     "experimental_std must be >= 0, got -5.0"),
    (lambda: ScenarioConformance("a", 1.0, 1.0, math.nan),
     "experimental_std must be >= 0, got nan"),
    (lambda: ScenarioConformance(None, 1.0, 1.0, 0.0), "scenario_id must be a string, got None"),
    (lambda: ConformanceReport(("x",)),
     "a conformance report holds ScenarioConformance rows, got 'x'"),
    (lambda: ConformanceReport((ScenarioConformance("a", 1.0, 1.0, 0.0),) * 2),
     "duplicate scenario id 'a'"),
    (lambda: Matrix(("x",)), "a test matrix holds TestScenario rows, got 'x'"),
    (lambda: MeasurementSet(None, (1.0,)), "scenario_id must be a string, got None"),
    (lambda: MeasurementSet("a", (1.0, 2.0), (5.0,)),
     "scenario 'a': 1 impact velocities for 2 forces"),
    (lambda: MeasurementSet("a", (1.0, 2.0), ()), "scenario 'a': 0 impact velocities for 2 forces"),
])
def test_invalid_value_still_raises(build, message):
    with pytest.raises(InvalidParameterError) as raised:
        build()
    assert str(raised.value) == message
