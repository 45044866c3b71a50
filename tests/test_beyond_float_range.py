"""Finite inputs whose drag-free velocity or drop height leaves float range.

sqrt(2*g*h) and (v_bird + v_aircraft)^2/(2*g) overflow for finite heights and
speeds near float range. required_drop_height raises, naming its inputs, and
ideal_impact_velocity raises, naming the height, so theoretical_reference,
nominal_velocity_mismatches and the drop-velocity command never pass inf on
to a model field that then takes the blame. analyze checks every drop
velocity before its scenario loop, and an error there names the scenario and
the one input file that stage read, the matrix (exit 1, with --use-nominal
too). If no matrix file was given, or the built-in matrix fails at the same
gravity, a flag is at fault (exit 2), whatever other files were given, and the
message names a scenario of the matrix that was read.
"""

import json
import math
import re
import sys

import pytest

from birdstrike.errors import InvalidParameterError
from birdstrike.harness import (VelocitySplit, build_test_matrix, matrix_to_json,
                                nominal_velocity_mismatches, theoretical_reference)
from birdstrike.kinematics import ideal_impact_velocity, make_drop_plan, required_drop_height
from birdstrike.materials import ALUMINIUM_2024_T3

from oracles import require_calls, write_measurements
from test_cli import run_cli

HUGE = 1.7e308


class TestLibrary:
    def test_required_drop_height_names_its_inputs(self):
        message = ("bird_speed 1e+200 and aircraft_speed 90.0 give a drop height "
                   "(v_bird + v_aircraft)^2/(2*g) beyond float range at gravity 9.80665")
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            required_drop_height(1e200, 90.0)
        with pytest.raises(InvalidParameterError, match="^bird_speed 22.35 and aircraft_speed"):
            make_drop_plan(22.35, 90.0, gravity=1e-307)

    def test_plan_checks_the_height_of_its_summed_speeds(self):
        # each speed's own height is finite: only their sum's leaves float range
        assert required_drop_height(1e154, 0.0) < math.inf
        with pytest.raises(InvalidParameterError, match="^bird_speed 1e[+]154 and aircraft_speed "
                                                        "1e[+]154 give a drop height"):
            make_drop_plan(1e154, 1e154)

    def test_plan_at_the_edge_of_float_range(self):
        v = math.sqrt(0.9 * sys.float_info.max)  # v^2 is finite, v^2/(2*g) overflows for g < 0.45
        with pytest.raises(InvalidParameterError, match="^bird_speed .* beyond float range"):
            make_drop_plan(v, 0.0, 1.0, 0.4)
        assert make_drop_plan(v, 0.0, 1.0, 0.5).original_drop_height == v * v

    def test_valid_drop_height_costs_no_extra_check(self):
        assert required_drop_height(22.35, 90.0, 10.0) == (22.35 + 90.0) ** 2 / 20.0
        assert require_calls(lambda: required_drop_height(22.35, 90.0)) == 3

    @pytest.mark.parametrize("split", list(VelocitySplit))
    def test_reference_names_the_drop_height(self, projectile_set, split):
        scenario = build_test_matrix().scenarios[0]._replace(drop_height=HUGE)
        message = ("height 1.7e+308 gives an impact velocity sqrt(2*g*h) beyond float "
                   "range at gravity 9.80665")
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            theoretical_reference(scenario, projectile_set[0], ALUMINIUM_2024_T3, split=split)

    def test_nominal_reference_ignores_the_drop_height(self, projectile_set):
        scenario = build_test_matrix().scenarios[0]
        nominal = theoretical_reference(scenario, projectile_set[0], ALUMINIUM_2024_T3,
                                        use_nominal_velocity=True)
        assert theoretical_reference(scenario._replace(drop_height=HUGE), projectile_set[0],
                                     ALUMINIUM_2024_T3, use_nominal_velocity=True) == nominal

    def test_ideal_velocity_names_the_height(self):
        message = ("height 1.7e+308 gives an impact velocity sqrt(2*g*h) beyond float range "
                   "at gravity 9.81")
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            ideal_impact_velocity(HUGE, 9.81)

    def test_mismatches_name_the_scenario(self):
        matrix = build_test_matrix()
        huge = matrix._replace(scenarios=(
            *matrix.scenarios[:2], matrix.scenarios[2]._replace(drop_height=HUGE),
            *matrix.scenarios[3:]))
        message = ("scenario '2.1': height 1.7e+308 gives an impact velocity sqrt(2*g*h) beyond "
                   "float range at gravity 10.0")
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            nominal_velocity_mismatches(huge)
        with pytest.raises(InvalidParameterError, match=r"^gravity must be > 0, got 0\.0$"):
            nominal_velocity_mismatches(huge, 0.0)


class TestFlags:
    def test_drop_velocity(self, capsys):
        assert run_cli(["drop-velocity", "--height", str(HUGE)], capsys) == (
            2, "", "usage error: height 1.7e+308 gives an impact velocity sqrt(2*g*h) beyond "
                   "float range at gravity 9.80665\n")

    def test_plan(self, capsys):
        code, out, err = run_cli(["plan", "--all", "--cruise", "1e200"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: bird_speed ")
        assert err.endswith(" and aircraft_speed 1e+200 give a drop height "
                            "(v_bird + v_aircraft)^2/(2*g) beyond float range at gravity 9.80665\n")


@pytest.fixture()
def files(tmp_path):
    """make(height): a matrix file whose scenario '2.1' falls from height, and measurements."""
    matrix = build_test_matrix()
    measurements = write_measurements(tmp_path / "measurements.csv", [
        (s.id, i, 15.0 + i / 10) for s in matrix.scenarios for i in range(1, 16)])

    def make(height):
        path = tmp_path / "matrix.json"
        path.write_text(matrix_to_json(matrix), encoding="utf-8")
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["scenarios"][2]["drop_height_m"] = height
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        return path, measurements
    return make


def analyze(matrix, measurements, *flags):
    return ["analyze", "--matrix", str(matrix), "--measurements", str(measurements), *flags]


class TestAnalyzeMatrixFile:
    @pytest.mark.parametrize("split", [s.value for s in VelocitySplit])
    def test_huge_drop_height_is_a_data_error(self, capsys, files, split):
        matrix, measurements = files(HUGE)
        assert run_cli(analyze(matrix, measurements, "--split", split), capsys) == (
            1, "", f"error: {matrix}: scenario '2.1': height 1.7e+308 gives an impact "
                   "velocity sqrt(2*g*h) beyond float range at gravity 9.80665\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--scale", "0.5", "scale_factor must be >= 1, got 0.5"),
        ("--gravity", "-1", "gravity must be > 0, got -1.0"),
        ("--cruise", "-1", "cruise_speed must be >= 0, got -1.0"),
        # the built-in matrix fails at this gravity too: the line reads as without --matrix
        ("--gravity", "1e308", "scenario 'baseline': height 2.8 gives an impact velocity "
                               "sqrt(2*g*h) beyond float range at gravity 1e+308"),
    ])
    @pytest.mark.parametrize("height", [2.0, HUGE])
    def test_bad_flag_stays_a_usage_error(self, capsys, files, height, flag, value, message):
        assert run_cli(analyze(*files(height), flag, value), capsys) == (
            2, "", f"usage error: {message}\n")

    def test_bad_flag_names_a_scenario_of_the_given_matrix(self, capsys, files):
        matrix, measurements = files(2.0)
        payload = json.loads(matrix.read_text(encoding="utf-8"))
        payload["scenarios"] = [s for s in payload["scenarios"] if s["id"] != "baseline"]
        matrix.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli(analyze(matrix, measurements, "--gravity", "1e308"), capsys) == (
            2, "", "usage error: scenario '1': height 2.8 gives an impact velocity sqrt(2*g*h) "
                   "beyond float range at gravity 1e+308\n")

    def test_huge_drop_height_with_nominal_velocities_is_a_data_error(self, capsys, files):
        matrix, measurements = files(HUGE)
        assert run_cli(analyze(matrix, measurements, "--use-nominal"), capsys) == (
            1, "", f"error: {matrix}: scenario '2.1': height 1.7e+308 gives an impact "
                   "velocity sqrt(2*g*h) beyond float range at gravity 9.80665\n")

    def test_huge_recomputed_velocity_note_is_bounded(self, capsys, files):
        code, out, err = run_cli(analyze(*files(1e300), "--use-nominal", "--gravity", "paper"),
                                 capsys)
        assert code == 0 and out.startswith("scenario_id,")
        assert err.splitlines()[0] == ("note: scenario 2.1: stored nominal velocity 6.44 m/s "
                                       "differs from sqrt(2*g*h) = 4.47e+150 m/s; kept verbatim")


@pytest.mark.parametrize("gravity, recomputed", [
    ("paper", {"2.1": "6.32"}),
    ("standard", {}),  # the nominal velocities are tabulated at g = 10: no note at another g
])
def test_default_matrix_notes_are_unchanged(capsys, files, gravity, recomputed):
    _, measurements = files(2.0)
    code, _, err = run_cli(["analyze", "--measurements", str(measurements), "--gravity", gravity],
                       capsys)
    assert code == 0
    assert err == "".join(
        f"note: scenario {scenario_id}: stored nominal velocity "
        f"{'6.44' if scenario_id == '2.1' else '7.49'} m/s differs from sqrt(2*g*h) = "
        f"{velocity} m/s; kept verbatim\n" for scenario_id, velocity in recomputed.items())
