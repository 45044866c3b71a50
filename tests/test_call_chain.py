"""The CLI reaches every library function the benchmark times per call.

perfbench/run.py reads a per-call time for each function below from a traced
CLI session, and fails when one was never called. The wrappers here are
installed the way perfbench/tracer.py installs its own: in every birdstrike
namespace that binds the function, so calls between modules are seen too.
"""

import functools
import importlib
import sys
from collections import Counter

import pytest

import birdstrike
from birdstrike import harness, impact
from birdstrike.cli import main

from oracles import write_measurements

TIMED = {
    "harness": ("theoretical_reference", "read_matrix", "ingest_measurements",
                "conformance_report", "render_report_csv", "render_report_json",
                "build_test_matrix"),
    "kinematics": ("make_drop_plan", "impact_velocity_from_drop", "impact_velocity_from_timing",
                   "fall_time_for_drop", "drag_fall_distance"),
    "impact": ("impact_force", "check_certification", "sensitivity_table"),
    "projectile": ("generate_projectile_set", "export_geometry"),
    "species": ("bundled_species_registry",),
    "materials": ("find_material",),
}
METHODS = ((harness.TestMatrix, "scenario"), (impact.ImpactScenario, "__init__"))
BIRD = ["--mass", "0.085", "--length", "0.22", "--bird-density", "1230",
        "--aircraft-density", "2780", "--bird-speed", "22.35", "--angle", "90"]
DRAG = ["--mass", "0.0108", "--cd", "1.15", "--area", "3.14159e-4"]
MEASUREMENTS = [(scenario.id, n, 15.0 + n, 7.4)
                for scenario in harness.build_test_matrix().scenarios for n in range(1, 16)]


def install(monkeypatch, record):
    """Wrap each timed function and method so that each call runs record(its name) first."""
    def wrap(function, name):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            record(name)
            return function(*args, **kwargs)
        return wrapper

    namespaces = [birdstrike, *(module for name, module in sys.modules.items()
                                if name.startswith("birdstrike."))]
    for layer, names in TIMED.items():
        module = importlib.import_module(f"birdstrike.{layer}")
        for name in names:
            function = getattr(module, name)
            wrapper = wrap(function, f"{layer}.{name}")
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is function:
                        monkeypatch.setattr(namespace, attr, wrapper)
    for owner, attr in METHODS:
        monkeypatch.setattr(owner, attr, wrap(getattr(owner, attr), f"{owner.__name__}.{attr}"))


@pytest.fixture()
def reached(monkeypatch):
    """The names of the wrapped functions called so far."""
    called = set()
    install(monkeypatch, called.add)
    return called


def test_cli_reaches_every_timed_function(reached, tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    measurements = write_measurements(tmp_path / "forces.csv", MEASUREMENTS, velocity=True)
    # one call per subcommand, plus the second route of drop-velocity and of analyze
    calls = [
        ["force", *BIRD, "--aircraft-speed", "90"],
        ["force-stationary", *BIRD],
        ["plan", "--all", "--format", "csv"],
        ["drop-velocity", "--height", "2.8", *DRAG],
        ["drop-velocity", "--time", "0.75", *DRAG],
        ["design", "--out", str(tmp_path / "designs")],
        ["matrix", "--out", str(matrix)],
        ["analyze", "--matrix", str(matrix), "--measurements", str(measurements), "--strict",
         "--format", "json"],
        ["analyze", "--matrix", str(matrix), "--measurements", str(measurements), "--strict"],
        ["check-cert", "--force", "2255", "--case", "single-bird"],
        ["sweep", *BIRD, "--aircraft-speed", "90", "--param", "aircraft_speed",
         "--values", "0,90"],
    ]
    for argv in calls:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    expected = {f"{layer}.{name}" for layer, names in TIMED.items() for name in names}
    expected |= {f"{owner.__name__}.{attr}" for owner, attr in METHODS}
    assert expected - reached == set()


def test_ingest_looks_up_each_present_scenario_once(monkeypatch, tmp_path):
    # perfbench/run.py reports harness.TestMatrix.scenario.calls_per_row from a traced
    # ingest of this 135-row file: one lookup per matrix scenario in it, not one per row
    matrix = harness.build_test_matrix()
    measurements = write_measurements(tmp_path / "forces.csv", MEASUREMENTS, velocity=True)
    lookups = []
    scenario = harness.TestMatrix.scenario

    def counted(self, scenario_id):
        lookups.append(scenario_id)
        return scenario(self, scenario_id)
    monkeypatch.setattr(harness.TestMatrix, "scenario", counted)
    sets = harness.ingest_measurements(measurements, matrix, strict=True)
    assert sum(len(measurement.forces) for measurement in sets) == 135
    assert sorted(lookups) == sorted(s.id for s in matrix.scenarios)


def test_analyze_models_and_looks_up_each_scenario_once(monkeypatch, tmp_path, projectile_set,
                                                         materials):
    # perfbench/run.py reports materials.find_material.calls per analyze pass: one per scenario
    measurements = write_measurements(tmp_path / "forces.csv", MEASUREMENTS, velocity=True)
    calls = []
    install(monkeypatch, calls.append)
    harness.analyze(harness.build_test_matrix(), projectile_set, materials, measurements,
                    strict=True)
    counts = Counter(calls)
    assert (counts["harness.theoretical_reference"], counts["materials.find_material"],
            counts["TestMatrix.scenario"]) == (9, 9, 9)
