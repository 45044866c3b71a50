"""The records keep the value semantics they had as frozen dataclasses.

Every record class is covered, on its instance in valid_records.py: its repr
(the strings there are the ones the dataclass versions printed), hash over the
field values, == only within one class, no assignment or deletion, and
_replace validating again.
"""

import argparse
import inspect
import json
import math
import re
import subprocess
import sys
from enum import Enum
from pathlib import Path

import pytest

from birdstrike._record import Record
from birdstrike.cli import _build_parser
from birdstrike.errors import InvalidParameterError
from birdstrike.harness import TestMatrix as Matrix  # aliased so pytest does not collect it
from birdstrike.impact import CertificationLimits, ImpactResult, ImpactScenario, sensitivity_table
from birdstrike.kinematics import DragParams, terminal_velocity
from birdstrike.projectile import Cylinder

from fresh import fresh_env
from valid_records import INSTANCES, RECORDS

SCENARIO, MATRIX = INSTANCES[ImpactScenario], INSTANCES[Matrix]
IDS = [type(record).__name__ for record, _ in RECORDS]


def values(record):
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_class_is_covered():
    assert sorted(IDS) == sorted(cls.__name__ for cls in Record.__subclasses__())


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_hash_and_equality_over_the_fields(record, _):
    twin = type(record)(*values(record))
    assert twin == record and not twin != record and twin is not record
    assert hash(record) == hash(twin) == hash(values(record))
    assert record._asdict() == dict(zip(record._fields, values(record)))
    assert record != values(record)


@pytest.mark.parametrize("record, _", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(record, _):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_equality_is_per_class():
    assert ImpactResult(1, 2, 3, 4) != (1, 2, 3, 4)
    assert (1, 2, 3, 4) != ImpactResult(1, 2, 3, 4)
    assert Cylinder(1.0, 2.0) != CertificationLimits(1.0, 2.0)
    assert ImpactResult.__eq__(ImpactResult(1, 2, 3, 4), (1, 2, 3, 4)) is NotImplemented


def test_replace_validates_again():
    assert SCENARIO._replace(bird_mass=0.1) == ImpactScenario(0.1, *values(SCENARIO)[1:])
    with pytest.raises(InvalidParameterError, match="^bird_mass must be >= 0, got nan$"):
        SCENARIO._replace(bird_mass=math.nan)
    with pytest.raises(InvalidParameterError, match="duplicate scenario id"):
        MATRIX._replace(scenarios=MATRIX.scenarios * 2)
    with pytest.raises(TypeError):
        SCENARIO._replace(wingspan=1.0)


def test_replace_recomputes_drag_caches():
    params = INSTANCES[DragParams]
    moon = params._replace(gravity=1.62)
    fresh = DragParams(0.1, 1.0, 0.01, gravity=1.62)
    assert terminal_velocity(moon) == terminal_velocity(fresh) != terminal_velocity(params)
    assert moon._distance_scale == fresh._distance_scale != params._distance_scale
    with pytest.raises(InvalidParameterError, match="^fall-distance scale"):
        DragParams(1e299, 1e-4, 1e-4, 1.0, 1e-10)._replace(projectile_mass=1e300)


def test_matrix_lookup_table_is_not_a_field():
    assert MATRIX._fields == ("scenarios",)
    assert MATRIX.scenario("1") is MATRIX.scenarios[0]
    assert MATRIX._replace(scenarios=MATRIX.scenarios).scenario("1") is MATRIX.scenarios[0]


def test_scenario_fields_are_the_sweep_parameters():
    fields = ("bird_mass", "bird_length", "bird_density", "bird_speed", "aircraft_speed",
              "aircraft_density", "impact_angle")
    assert ImpactScenario._fields == fields
    (commands,) = [action for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    (param,) = [action for action in commands.choices["sweep"]._actions if action.dest == "param"]
    assert param.help == "scenario field to vary: " + ", ".join(fields)
    with pytest.raises(InvalidParameterError, match=re.escape(f"choose from {sorted(fields)}")):
        sensitivity_table(SCENARIO, "wingspan", [1.0])


# Each record's __init__ is compiled on its first lookup. This runs in a fresh interpreter,
# where that lookup is op's first use of each class (the three classes that module
# constants construct are compiled by the import), then op again, and prints both outcomes
# and whether the compiled function replaced the descriptor on the class.
FIRST_LOOKUP = r"""
import inspect, json, math, sys
from birdstrike import errors  # the package imports every module, so every record class
from birdstrike._record import Record

op, arguments = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, sys.argv[3])  # the tests directory
from oracles import require_calls
classes = {cls.__name__: cls for cls in Record.__subclasses__()}


def outcome(cls, args):
    if op == "signature":
        return [[name, repr(p.default)] for name, p in inspect.signature(cls).parameters.items()]
    if op == "missing":
        args = ()
    elif op == "out-of-range":  # the first range-checked field made nan
        args = list(args)
        args[cls._fields.index(next(iter(cls._ranges)))] = math.nan
    try:
        built = []
        calls = require_calls(lambda: built.append(cls(*args)))
        return [repr(built[0]), hash(built[0]), calls]
    except Exception as exc:
        return [type(exc).__name__, str(exc)]


# nested records (a projectile's shape, a matrix's scenarios) after the classes they use
for name, text in sorted(arguments.items(), key=lambda item: item[1].count("(")):
    cls = classes[name]
    if op == "out-of-range" and not hasattr(cls, "_ranges"):
        continue
    args = eval(text, dict(classes))
    lazy = not inspect.isfunction(cls.__dict__["__init__"])
    first, later = outcome(cls, args), outcome(cls, args)
    print(json.dumps([name, lazy, first, later, inspect.isfunction(cls.__dict__["__init__"])]))
"""
BUILT_BY_CONSTANTS = {"CertificationLimits", "MaterialSpec"}


def fresh_python(code: str, *args: str) -> str:
    """The stdout of code run in a fresh interpreter, which must exit 0."""
    called = subprocess.run([sys.executable, "-c", code, *args], env=fresh_env(),
                            capture_output=True, text=True, encoding="utf-8", timeout=60)
    assert called.returncode == 0, called.stderr
    return called.stdout


def first_lookups(op):
    # an enum member has no source text, so it goes as its value, which the record stores
    # as the member again
    arguments = {type(record).__name__: repr(tuple(v.value if isinstance(v, Enum) else v
                                                   for v in values(record)))
                 for record, _ in RECORDS}
    lines = [json.loads(line)
             for line in fresh_python(FIRST_LOOKUP, op, json.dumps(arguments),
                                          str(Path(__file__).parent)).splitlines()]
    for name, lazy, _, _, installed in lines:  # the compiled function replaces the descriptor
        assert lazy == (name not in BUILT_BY_CONSTANTS) and installed, name
    return {name: (first, later) for name, _, first, later, _ in lines}


def test_first_construction_equals_a_later_one():
    outcomes = first_lookups("valid")
    assert sorted(outcomes) == sorted(IDS)
    for record, _ in RECORDS:
        first, later = outcomes[type(record).__name__]
        # str hashes differ between interpreters; the first construction calls no require
        assert first == later and first[0] == repr(record) and first[2] == 0, first


def test_first_out_of_range_value_raises_as_a_later_one():
    outcomes = first_lookups("out-of-range")
    assert len(outcomes) == sum(hasattr(cls, "_ranges") for cls in INSTANCES)
    for name, (first, later) in outcomes.items():
        assert first == later and first[0] == "InvalidParameterError", name
        assert "nan" in first[1], name


def test_first_missing_argument_raises_as_a_later_one():
    outcomes = first_lookups("missing")
    assert sorted(outcomes) == sorted(IDS)
    for name, (first, later) in outcomes.items():
        assert first == later, name
    assert outcomes["ImpactScenario"][0] == [
        "TypeError", "ImpactScenario.__init__() missing 7 required positional arguments: "
        "'bird_mass', 'bird_length', 'bird_density', 'bird_speed', 'aircraft_speed', "
        "'aircraft_density', and 'impact_angle'"]
    assert outcomes["CertificationLimits"][0][0] == repr(CertificationLimits())


def test_signature_before_any_construction_lists_the_fields():
    outcomes = first_lookups("signature")
    assert sorted(outcomes) == sorted(IDS)
    for record, _ in RECORDS:
        cls = type(record)
        first, later = outcomes[cls.__name__]
        assert first == later == [[name, repr(cls.__dict__.get(name, inspect.Parameter.empty))]
                                  for name in cls._fields], cls.__name__


def test_threads_racing_on_the_first_construction_agree():
    # each racing thread may compile the __init__ once; every one must build the same record
    race = """if True:
        import sys, threading
        from birdstrike.impact import ImpactScenario
        sys.setswitchinterval(1e-6)
        barrier, built = threading.Barrier(8), []
        def build():
            barrier.wait()
            built.append(repr(ImpactScenario(0.085, 0.22, 1230.0, 22.35, 90.0, 2780.0, 90.0)))
        threads = [threading.Thread(target=build) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        print(sum(thread.is_alive() for thread in threads), len(built), len(set(built)),
              ImpactScenario.__dict__["__init__"].__qualname__)
    """
    assert fresh_python(race) == "0 8 1 ImpactScenario.__init__\n"


def test_import_compiles_only_the_records_that_constants_build():
    audit = """if True:
        import sys
        sources = []
        sys.addaudithook(lambda event, args: sources.append(args[0])
                         if event == "compile" and args[1] == "<string>" else None)
        import birdstrike.cli
        print(sum(source.startswith(b"def __init__(self") for source in sources))
    """
    assert fresh_python(audit) == f"{len(BUILT_BY_CONSTANTS)}\n"
