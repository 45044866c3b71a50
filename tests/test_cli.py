import argparse
import csv
import io
import json
import math
import random
import re
import subprocess
import sys
import warnings

import pytest

from birdstrike import cli
from birdstrike.cli import CONFIG_KEYS, main
from birdstrike.harness import (
    build_test_matrix,
    conformance_report,
    ingest_measurements,
    matrix_to_json,
    read_matrix,
    render_report_csv,
    theoretical_reference,
)
from birdstrike.impact import (
    ImpactScenario,
    check_certification,
    impact_force,
    impact_force_stationary,
    sensitivity_table,
)
from birdstrike.kinematics import (
    DragParams,
    impact_velocity_from_drop,
    make_drop_plan,
    plan_flags,
    terminal_velocity,
)
from birdstrike.materials import find_material
from birdstrike.projectile import generate_projectile_set, geometry_payload

from fresh import fresh_env
from oracles import write_measurements


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(":")
        pairs[key.strip()] = value.strip()
    return pairs


FORCE_FLAGS = [
    "--mass", "1", "--length", "1", "--bird-density", "1000",
    "--aircraft-density", "1000", "--bird-speed", "0",
    "--aircraft-speed", "10", "--angle", "90",
]


class TestForceCommand:
    def test_reference_scenario(self, capsys):
        code, out, _ = run_cli(["force", *FORCE_FLAGS], capsys)
        assert code == 0
        values = parse_kv(out)
        assert float(values["force_n"]) == pytest.approx(50.0, rel=1e-12)
        assert float(values["total_speed_m_s"]) == pytest.approx(10.0, rel=1e-12)
        assert float(values["kinetic_energy_j"]) == pytest.approx(50.0, rel=1e-12)
        assert float(values["penetration_depth_m"]) == pytest.approx(1.0, rel=1e-12)

    def test_zero_angle(self, capsys):
        argv = ["force", *FORCE_FLAGS]
        argv[argv.index("--angle") + 1] = "0"
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert float(parse_kv(out)["force_n"]) == 0.0

    def test_zero_aircraft_speed_exits_one(self, capsys):
        argv = ["force", *FORCE_FLAGS]
        argv[argv.index("--aircraft-speed") + 1] = "0"
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "stationary" in err

    def test_zero_aircraft_speed_names_the_stationary_command(self, capsys):
        argv = ["force", *FORCE_FLAGS]
        argv[argv.index("--aircraft-speed") + 1] = "0"
        _, _, err = run_cli(argv, capsys)
        assert "force-stationary" in err

    def test_stationary_flag_exits_two(self, capsys):
        # one route to the stationary model: the force-stationary command
        code, out, _ = run_cli(["force", *FORCE_FLAGS, "--stationary"], capsys)
        assert (code, out) == (2, "")

    def test_invalid_angle_exits_two(self, capsys):
        argv = ["force", *FORCE_FLAGS]
        argv[argv.index("--angle") + 1] = "120"
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "usage error" in err


class TestForceStationaryCommand:
    def test_sin_cubed_value(self, capsys):
        code, out, _ = run_cli(
            ["force-stationary", "--mass", "1", "--length", "1", "--bird-density", "1000",
             "--aircraft-density", "1000", "--bird-speed", "10", "--angle", "30"],
            capsys,
        )
        assert code == 0
        assert float(parse_kv(out)["force_n"]) == pytest.approx(6.25, rel=1e-12)

    @pytest.mark.parametrize(
        "command, flag, value, field",
        [
            ("force-stationary", "--angle", "-30", "impact_angle"),
            ("force-stationary", "--mass", "-1", "bird_mass"),
        ],
    )
    def test_invalid_flag_exits_two(self, capsys, command, flag, value, field):
        argv = [*command.split(), *FORCE_FLAGS]
        if command == "force-stationary":
            at = argv.index("--aircraft-speed")
            del argv[at:at + 2]
        argv[argv.index(flag) + 1] = value
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"usage error: {field} must be" in err


class TestPlanCommand:
    def test_starling_reference_values(self, capsys):
        code, out, _ = run_cli(
            ["plan", "--species", "Starling", "--gravity", "paper", "--format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        row = rows[0]
        assert float(row["original_impact_velocity_m_s"]) == pytest.approx(112.35, abs=0.01)
        assert float(row["original_drop_height_m"]) == pytest.approx(631.0, abs=1.0)
        assert float(row["scaled_impact_velocity_m_s"]) == pytest.approx(7.49, abs=0.01)
        assert float(row["scaled_drop_height_m"]) == pytest.approx(2.8, abs=0.1)
        assert row["flags"] == ""

    def test_all_species_row_count(self, capsys):
        code, out, _ = run_cli(["plan", "--all", "--gravity", "paper", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11

    def test_unknown_species_exits_two(self, capsys):
        code, _, err = run_cli(["plan", "--species", "Dodo"], capsys)
        assert code == 2
        assert "Dodo" in err

    @pytest.mark.parametrize("argv", [["--all", "--species", "Nope"],
                                      ["--species", "Starling", "--all"]])
    def test_species_with_all_exits_two(self, capsys, argv):
        code, out, err = run_cli(["plan", *argv], capsys)
        assert (code, out) == (2, "")
        assert "not allowed with argument" in err

    def test_no_selection_exits_two(self, capsys):
        code, _, _ = run_cli(["plan"], capsys)
        assert code == 2

    def test_missing_registry_file_exits_one(self, capsys):
        code, _, err = run_cli(["plan", "--all", "--registry", "/no/such/file.csv"], capsys)
        assert code == 1
        assert "error" in err

    def test_text_format_flags_turkey_vulture(self, capsys):
        code, out, _ = run_cli(["plan", "--all", "--gravity", "paper"], capsys)
        assert code == 0
        vulture_line = next(line for line in out.splitlines() if "Turkey Vulture" in line)
        assert "708" in vulture_line

    @pytest.mark.parametrize("setting", [["--scale", "10"], ["--cruise", "100"]])
    def test_no_flags_away_from_the_published_settings(self, capsys, setting):
        code, out, _ = run_cli(["plan", "--species", "Starling", "--gravity", "paper",
                                *setting], capsys)
        assert code == 0
        assert out.splitlines()[1].endswith("  -")

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run_cli(["plan", "--all", "--gravity", "paper", "--format", "csv"], capsys)
        _, second, _ = run_cli(["plan", "--all", "--gravity", "paper", "--format", "csv"], capsys)
        assert first == second

    def test_csv_quotes_names_with_commas_and_quotes(self, capsys, tmp_path):
        registry = tmp_path / "species.csv"
        registry.write_text("name,mass_kg,length_m,density_kg_m3,flight_speed_m_s\n"
                            '"Gull, Herring",1.1,0.6,1000,14\n"Dove ""Rock""",0.35,0.33,1000,13\n',
                            encoding="utf-8")
        code, out, err = run_cli(["plan", "--all", "--registry", str(registry),
                                  "--format", "csv"], capsys)
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))
        assert [len(row) for row in rows] == [6, 6, 6]
        assert [row[0] for row in rows[1:]] == ["Gull, Herring", 'Dove "Rock"']

    def test_implausible_registry_density_is_one_note(self, capsys, tmp_path):
        registry = tmp_path / "species.csv"
        registry.write_text("name,mass_kg,length_m,density_kg_m3,flight_speed_m_s\n"
                            "Rock,1.0,0.3,3000,12\n", encoding="utf-8")
        code, _, err = run_cli(["plan", "--all", "--registry", str(registry)], capsys)
        assert (code, err) == (0, "note: Rock: body_density 3000.0 kg/m^3 outside plausible "
                                  "range [500, 2000]\n")


class TestDropVelocityCommand:
    def test_ideal_from_height(self, capsys):
        code, out, _ = run_cli(
            ["drop-velocity", "--height", "1.5", "--gravity", "paper"], capsys
        )
        assert code == 0
        values = parse_kv(out)
        assert values["model"] == "ideal"
        assert float(values["impact_velocity_m_s"]) == pytest.approx(5.477, abs=1e-3)

    def test_drag_from_height_below_ideal(self, capsys):
        code, out, _ = run_cli(
            ["drop-velocity", "--height", "2.8", "--gravity", "paper",
             "--mass", "0.0108", "--cd", "1.15", "--area", "0.000314159"],
            capsys,
        )
        assert code == 0
        values = parse_kv(out)
        assert values["model"] == "quadratic-drag"
        assert float(values["impact_velocity_m_s"]) < 7.4833
        assert float(values["impact_velocity_m_s"]) > 7.0

    def test_drag_from_timing(self, capsys):
        code, out, _ = run_cli(
            ["drop-velocity", "--time", "0.5", "--mass", "0.1", "--cd", "1.0",
             "--area", "0.01", "--gravity", "9.81"],
            capsys,
        )
        assert code == 0
        assert float(parse_kv(out)["impact_velocity_m_s"]) == pytest.approx(4.6733, abs=1e-3)

    def test_timing_without_drag_flags_exits_two(self, capsys):
        code, _, err = run_cli(["drop-velocity", "--time", "0.5"], capsys)
        assert code == 2
        assert "drag" in err

    def test_partial_drag_flags_exit_two(self, capsys):
        code, _, _ = run_cli(["drop-velocity", "--height", "2.8", "--mass", "0.1"], capsys)
        assert code == 2

    def test_vanishing_drag_gives_free_fall_velocity(self, capsys):
        code, out, _ = run_cli(["drop-velocity", "--height", "2.8", "--mass", "0.1",
                                "--cd", "1e-16", "--area", "0.01"], capsys)
        assert code == 0
        assert float(parse_kv(out)["impact_velocity_m_s"]) == pytest.approx(
            math.sqrt(2.0 * 9.80665 * 2.8), rel=1e-12, abs=0)

    @pytest.mark.parametrize("height", ["5e-324", "1e20", "1.7e308"])
    def test_extreme_height_exits_zero_at_most_terminal(self, capsys, height):
        code, out, _ = run_cli(["drop-velocity", "--height", height, "--mass", "0.1",
                                "--cd", "1", "--area", "0.01"], capsys)
        values = parse_kv(out)
        assert code == 0
        velocity = float(values["impact_velocity_m_s"])
        assert 0.0 <= velocity <= float(values["terminal_velocity_m_s"])

    def test_fall_time_beyond_float_range_exits_two(self, capsys):
        code, out, err = run_cli(["drop-velocity", "--height", "1.7e308", "--mass", "1e-6",
                                  "--cd", "1", "--area", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: height ")

    @pytest.mark.parametrize("drag_flags", [
        ["--mass", "0.01", "--cd", "1e-200", "--area", "1e-200", "--air-density", "1e-200"],
        ["--mass", "1e300", "--cd", "1e-10", "--area", "1e-10"],
    ], ids=["drag underflows", "weight overflows"])
    def test_terminal_velocity_beyond_float_range_exits_two(self, capsys, drag_flags):
        code, out, err = run_cli(["drop-velocity", "--height", "2.8", *drag_flags], capsys)
        assert (code, out) == (2, "")
        assert err == ("usage error: terminal velocity sqrt(2*m*g/(rho*C_d*A)) "
                       "must be finite and > 0, got inf\n")

    def test_distance_scale_beyond_float_range_names_drag_inputs(self, capsys):
        code, out, err = run_cli(["drop-velocity", "--height", "2.8", "--mass", "1e300",
                                  "--cd", "1e-4", "--area", "1e-4", "--air-density", "1",
                                  "--gravity", "1e-10"], capsys)
        assert (code, out) == (2, "")
        assert err == ("usage error: fall-distance scale 2*m/(rho*C_d*A) = v_t^2/g "
                       "must be finite and > 0, got inf\n")


class TestDesignCommand:
    def test_stdout_descriptors(self, capsys):
        code, out, _ = run_cli(["design", "--species", "Starling"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 5
        assert payload[0]["shape"] == "cylinder"
        assert payload[0]["dims_m"]["radius"] == 0.01
        assert payload[4]["shape"] == "ellipsoid"

    def test_out_directory_files(self, capsys, tmp_path, starling):
        out_dir = tmp_path / "designs"
        code, out, _ = run_cli(["design", "--species", "Starling", "--out", str(out_dir)], capsys)
        assert code == 0
        paths = sorted(out_dir.glob("projectile_sn*.json"))
        assert [json.loads(path.read_text(encoding="utf-8")) for path in paths] == [
            geometry_payload(spec) for spec in generate_projectile_set(starling)]

    def test_unknown_species_exits_two(self, capsys):
        code, _, _ = run_cli(["design", "--species", "Roc"], capsys)
        assert code == 2


# Registry species that no finite cylinder radius > 0 can size: body_density * pi * length
# underflows to 0, or mass / (body_density * pi * length) overflows.
UNSIZABLE_SPECIES = {"Tiny": ("1e+300", "1e-300", "1e-300"), "Wide": ("1e+300", "1e-10", "1.0")}


@pytest.mark.parametrize("command", [["design"], ["analyze", "--measurements", "forces.csv"]],
                         ids=["design", "analyze"])
class TestUnsizableRegistrySpecies:
    @pytest.fixture()
    def registry(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("name,mass_kg,length_m,density_kg_m3,flight_speed_m_s\n"
                        "Tiny,1e300,1e-300,1e-300,20\nWide,1e300,1,1e-10,20\n",
                        encoding="utf-8")
        return path

    @pytest.mark.parametrize("species", list(UNSIZABLE_SPECIES))
    def test_is_one_data_error_naming_the_species(self, capsys, registry, command, species):
        mass, density, length = UNSIZABLE_SPECIES[species]
        code, out, err = run_cli([*command, "--registry", str(registry),
                                  "--species", species], capsys)
        assert (code, out) == (1, "")
        # the registry's implausible body densities are notes; the one other line is the error
        assert [line for line in err.splitlines() if not line.startswith("note: ")] == [
            f"error: {registry}: species {species!r}: mass {mass}, body_density {density} and "
            f"length {length} give no finite cylinder radius > 0"]

    def test_length_that_rounds_past_float_range_names_the_species(self, capsys, tmp_path,
                                                                     command):
        registry = tmp_path / "long.csv"
        registry.write_text("name,mass_kg,length_m,density_kg_m3,flight_speed_m_s\n"
                            "Long,1e300,1.7976931348623157e308,1e-300,20\n", encoding="utf-8")
        code, out, err = run_cli([*command, "--registry", str(registry), "--species", "Long"],
                                 capsys)
        assert (code, out) == (1, "")
        assert [line for line in err.splitlines() if not line.startswith("note: ")] == [
            f"error: {registry}: species 'Long': 1.7976931348623157e+308 rounded to 2 "
            "significant digits overflows"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--solid-density", "-1", "solid_density must be > 0, got -1.0"),
        ("--shell-fraction", "2", "shell_fraction must be within [0, 1], got 2.0"),
    ])
    def test_bad_flag_stays_a_usage_error(self, capsys, registry, command, flag, value, message):
        code, out, err = run_cli([*command, "--registry", str(registry),
                                  "--species", "Tiny", flag, value], capsys)
        assert (code, out) == (2, "")
        assert [line for line in err.splitlines() if not line.startswith("note: ")] == [
            f"usage error: {message}"]


class TestMatrixCommand:
    def test_stdout_structure(self, capsys):
        code, out, _ = run_cli(["matrix"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["scenarios"]) == 9
        assert list(payload) == ["scenarios"]
        assert sum(s["iterations"] for s in payload["scenarios"]) == 135

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run_cli(["matrix"], capsys)
        _, second, _ = run_cli(["matrix"], capsys)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        code, _, _ = run_cli(["matrix", "--out", str(path)], capsys)
        assert code == 0
        scenarios = json.loads(path.read_text(encoding="utf-8"))["scenarios"]
        assert [scenario["iterations"] for scenario in scenarios] == [15] * 9

    def test_single_iteration(self, capsys):
        code, out, _ = run_cli(["matrix", "--iterations", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert sum(s["iterations"] for s in payload["scenarios"]) == 9


@pytest.fixture()
def analysis_fixture(tmp_path, capsys, default_matrix, projectile_set, materials):
    matrix_path = tmp_path / "matrix.json"
    code, _, _ = run_cli(["matrix", "--out", str(matrix_path)], capsys)
    assert code == 0
    by_serial = {spec.serial: spec for spec in projectile_set}
    rows = []
    for scenario in default_matrix.scenarios:
        reference = theoretical_reference(
            scenario,
            by_serial[scenario.projectile_serial],
            find_material(materials, scenario.specimen_material),
            gravity=10.0,
        )
        rows += [(scenario.id, iteration, f"{reference * 0.9:.9g}") for iteration in range(1, 16)]
    return matrix_path, write_measurements(tmp_path / "measurements.csv", rows)


class TestAnalyzeCommand:
    def test_csv_report(self, capsys, analysis_fixture):
        matrix_path, measurements_path = analysis_fixture
        code, out, err = run_cli(
            ["analyze", "--measurements", str(measurements_path),
             "--matrix", str(matrix_path), "--gravity", "paper"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("scenario_id,theoretical_n,experimental_mean_n,"
                            "experimental_std_n,percent_error,percent_conformance")
        assert len(lines) == 11
        assert lines[-1].startswith("OVERALL")
        assert float(lines[-1].split(",")[-1]) == pytest.approx(90.0, abs=1e-6)
        assert "2.1" in err  # nominal-velocity note

    def test_json_report(self, capsys, analysis_fixture, tmp_path):
        matrix_path, measurements_path = analysis_fixture
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["analyze", "--measurements", str(measurements_path), "--matrix", str(matrix_path),
             "--gravity", "paper", "--format", "json", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert len(payload["scenarios"]) == 9
        assert payload["overall_mean_conformance"] == pytest.approx(90.0, abs=1e-6)

    def test_default_matrix_used_when_not_given(self, capsys, analysis_fixture):
        _, measurements_path = analysis_fixture
        code, out, _ = run_cli(
            ["analyze", "--measurements", str(measurements_path), "--gravity", "paper"],
            capsys,
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 11

    def test_duplicate_material_name_exits_one(self, capsys, analysis_fixture, tmp_path):
        _, measurements_path = analysis_fixture
        materials_path = tmp_path / "materials.csv"
        materials_path.write_text("name,density_kg_m3\nCFRP,1168\nCFRP,2780\n", encoding="utf-8")
        code, out, err = run_cli(["analyze", "--measurements", str(measurements_path),
                                  "--materials", str(materials_path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {materials_path}: row 3: duplicate material name 'CFRP'\n"

    def test_materials_file_with_a_thickness_column_exits_one(self, capsys, analysis_fixture,
                                                               tmp_path):
        _, measurements_path = analysis_fixture
        materials_path = tmp_path / "materials.csv"
        materials_path.write_text("name,density_kg_m3,thickness_m\nCFRP,1168,0.002\n",
                                  encoding="utf-8")
        code, out, err = run_cli(["analyze", "--measurements", str(measurements_path),
                                  "--materials", str(materials_path)], capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: {materials_path}: expected header 'name,density_kg_m3', "
                       "got 'name,density_kg_m3,thickness_m'\n")

    def test_matrix_material_missing_from_materials_exits_one(self, capsys, analysis_fixture):
        matrix_path, measurements_path = analysis_fixture
        text = matrix_path.read_text(encoding="utf-8")
        matrix_path.write_text(text.replace('"CFRP"', '"Kevlar"'), encoding="utf-8")
        code, out, err = run_cli(["analyze", "--measurements", str(measurements_path),
                                  "--matrix", str(matrix_path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {matrix_path}: scenario '6': unknown material 'Kevlar'\n"

    def test_materials_file_lacking_a_matrix_material_exits_one(self, capsys, analysis_fixture,
                                                                 tmp_path):
        _, measurements_path = analysis_fixture
        materials_path = tmp_path / "materials.csv"
        materials_path.write_text("name,density_kg_m3\n"
                                  "Aluminium-2024-T3,2780\n", encoding="utf-8")
        code, out, err = run_cli(["analyze", "--measurements", str(measurements_path),
                                  "--materials", str(materials_path)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {materials_path}: scenario '6': unknown material 'CFRP'\n"

    @pytest.mark.parametrize("matrix_given", [True, False], ids=["matrix file", "built-in matrix"])
    def test_force_overflow_names_every_file_the_model_read(self, capsys, analysis_fixture,
                                                           tmp_path, matrix_given):
        matrix_path, measurements_path = analysis_fixture
        materials_path = tmp_path / "big.csv"
        materials_path.write_text("name,density_kg_m3\n"
                                  "Aluminium-2024-T3,1.7e308\nCFRP,1168\n",
                                  encoding="utf-8")
        registry_path = tmp_path / "reg.csv"
        registry_path.write_text("name,mass_kg,length_m,density_kg_m3,flight_speed_m_s\n"
                                 "Big,1000,1.0,1000,20\n", encoding="utf-8")
        argv = ["analyze", "--measurements", str(measurements_path), "--materials",
                str(materials_path), "--registry", str(registry_path), "--species", "Big"]
        files = [materials_path, registry_path]
        if matrix_given:
            argv += ["--matrix", str(matrix_path)]
            files.insert(0, matrix_path)
        assert run_cli(argv, capsys) == (
            1, "", f"error: {', '.join(map(str, files))}: scenario 'baseline': force leaves "
                   "float range for these inputs: got inf\n")

    def test_zero_nominal_reference_names_only_the_matrix(self, capsys, analysis_fixture):
        matrix_path, measurements_path = analysis_fixture
        payload = json.loads(matrix_path.read_text(encoding="utf-8"))
        payload["scenarios"][0]["nominal_impact_velocity_m_s"] = 0
        matrix_path.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli(["analyze", "--matrix", str(matrix_path), "--measurements",
                        str(measurements_path), "--use-nominal"], capsys) == (
            1, "", f"error: {matrix_path}: scenario 'baseline': theoretical must be > 0, "
                   "got 0.0\n")

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    def test_measurements_with_a_leading_byte_order_mark(self, capsys, analysis_fixture,
                                                         quoted):
        matrix_path, measurements_path = analysis_fixture
        if quoted:  # a quoted cell sends the rows to csv.reader
            text = measurements_path.read_text(encoding="utf-8")
            measurements_path.write_text(re.sub(r"(?m)^(\w[^,]*),", r'"\1",', text),
                                         encoding="utf-8")
        argv = ["analyze", "--matrix", str(matrix_path), "--measurements",
                str(measurements_path), "--format", "json"]
        plain = run_cli(argv, capsys)
        assert plain[0] == 0
        measurements_path.write_bytes(b"\xef\xbb\xbf" + measurements_path.read_bytes())
        assert run_cli(argv, capsys) == plain

    @pytest.mark.parametrize("copy", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: re.sub(r"(?m)^(?!scenario_id)([^,]+),", r'"\1",', text),
        lambda text: re.sub(r"(?m)^([^,]+),", r'"\1",', text),
    ], ids=["CRLF", "quoted ids", "quoted header and ids"])
    def test_crlf_and_quoted_copies_give_the_plain_report(self, capsys, analysis_fixture, copy):
        matrix_path, measurements_path = analysis_fixture
        argv = ["analyze", "--matrix", str(matrix_path), "--measurements",
                str(measurements_path), "--format", "json"]
        plain = run_cli(argv, capsys)
        assert plain[0] == 0
        text = measurements_path.read_bytes().decode("utf-8")
        assert copy(text) != text
        measurements_path.write_bytes(copy(text).encode("utf-8"))
        assert run_cli(argv, capsys) == plain

    def test_nominal_velocity_notes_follow_matrix_order(self, capsys, analysis_fixture):
        matrix_path, measurements_path = analysis_fixture
        payload = json.loads(matrix_path.read_text(encoding="utf-8"))
        baseline = payload["scenarios"][0]
        assert baseline["id"] == "baseline"  # listed before '2.1', sorted after it
        baseline["nominal_impact_velocity_m_s"] = 7.0
        matrix_path.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run_cli(["analyze", "--matrix", str(matrix_path), "--measurements",
                                str(measurements_path), "--gravity", "paper"], capsys)
        assert code == 0
        assert err.splitlines() == [
            "note: scenario baseline: stored nominal velocity 7 m/s differs from "
            "sqrt(2*g*h) = 7.48 m/s; kept verbatim",
            "note: scenario 2.1: stored nominal velocity 6.44 m/s differs from "
            "sqrt(2*g*h) = 6.32 m/s; kept verbatim"]

    def test_unknown_scenario_id_is_a_note(self, capsys, analysis_fixture):
        matrix_path, measurements_path = analysis_fixture
        with measurements_path.open("a", encoding="utf-8") as handle:
            handle.write("x,1,3.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            code, out, err = run_cli(["analyze", "--matrix", str(matrix_path),
                                      "--measurements", str(measurements_path)], capsys)
        assert code == 0 and out.startswith("scenario_id,")
        assert err.splitlines()[0] == (
            f"note: {measurements_path}: row 137: scenario id 'x' not in matrix")

    def test_missing_measurements_exits_two(self, capsys):
        code, _, _ = run_cli(["analyze"], capsys)
        assert code == 2

    def test_zero_cruise_uses_stationary_model(self, capsys, analysis_fixture, projectile_set,
                                               materials, default_matrix):
        matrix_path, measurements_path = analysis_fixture
        code, out, _ = run_cli(
            ["analyze", "--measurements", str(measurements_path), "--matrix", str(matrix_path),
             "--cruise", "0"],
            capsys,
        )
        assert code == 0
        expected = theoretical_reference(
            default_matrix.scenario("baseline"), projectile_set[0],
            find_material(materials, "Aluminium-2024-T3"), cruise_speed=0.0,
        )
        assert f"\nbaseline,{expected!r}," in out


class TestCheckCertCommand:
    def test_at_limit(self, capsys):
        code, out, _ = run_cli(["check-cert", "--force", "2255", "--case", "single-bird"], capsys)
        assert code == 0
        values = parse_kv(out)
        assert values["verdict"] == "PASS"
        assert float(values["margin_n"]) == 0.0

    def test_flock_fail(self, capsys):
        code, out, _ = run_cli(["check-cert", "--force", "4820", "--case", "flock"], capsys)
        assert code == 0
        values = parse_kv(out)
        assert values["verdict"] == "FAIL"
        assert float(values["margin_n"]) == pytest.approx(-1.0, rel=1e-12)

    def test_unknown_case_exits_two(self, capsys):
        code, _, _ = run_cli(["check-cert", "--force", "10", "--case", "swarm"], capsys)
        assert code == 2


SWEEP_BASE = [
    "--mass", "0.085", "--length", "0.22", "--bird-density", "1230",
    "--aircraft-density", "2780", "--bird-speed", "22.35",
    "--aircraft-speed", "90", "--angle", "90",
]


class TestSweepCommand:
    def test_density_sweep_rows(self, capsys):
        code, out, _ = run_cli(
            ["sweep", *SWEEP_BASE, "--param", "aircraft_density", "--values", "2780,1167.6"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,force_n,percent_change"
        assert len(lines) == 3
        assert float(lines[2].split(",")[2]) == pytest.approx(-58.0, rel=1e-9)

    def test_density_sweep_emits_note(self, capsys):
        _, _, err = run_cli(
            ["sweep", *SWEEP_BASE, "--param", "aircraft_density", "--values", "1167.6"],
            capsys,
        )
        assert "-62%" in err and "-58%" in err

    def test_angle_sweep_emits_note(self, capsys):
        _, _, err = run_cli(
            ["sweep", *SWEEP_BASE, "--param", "impact_angle", "--values", "50"], capsys
        )
        assert "-40%" in err

    def test_mass_sweep_has_no_note(self, capsys):
        _, _, err = run_cli(
            ["sweep", *SWEEP_BASE, "--param", "bird_mass", "--values", "0.0425"], capsys
        )
        assert err == ""

    def test_unknown_param_exits_two(self, capsys):
        code, _, _ = run_cli(
            ["sweep", *SWEEP_BASE, "--param", "wing_span", "--values", "1"], capsys
        )
        assert code == 2

    def test_bad_values_exit_two(self, capsys):
        code, _, _ = run_cli(
            ["sweep", *SWEEP_BASE, "--param", "bird_mass", "--values", "a,b"], capsys
        )
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep", *SWEEP_BASE, "--param", "bird_mass", "--values", "0.0425",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
        assert path.read_text(encoding="utf-8").startswith("value,force_n,percent_change")


class TestConfigFile:
    def test_config_supplies_gravity(self, capsys, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text("gravity = paper\n# comment line\n", encoding="utf-8")
        code, out, _ = run_cli(
            ["--config", str(config), "plan", "--species", "Starling", "--format", "csv"],
            capsys,
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["original_drop_height_m"]) == pytest.approx(631.1, abs=0.1)

    def test_flag_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text("gravity = paper\n", encoding="utf-8")
        code, out, _ = run_cli(
            ["--config", str(config), "plan", "--species", "Starling",
             "--gravity", "standard", "--format", "csv"],
            capsys,
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        # 112.35^2 / (2*9.80665)
        assert float(row["original_drop_height_m"]) == pytest.approx(643.6, abs=0.1)

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.txt"
        config.write_text("gravity = paper\n", encoding="utf-8")
        monkeypatch.setenv("BIRDSTRIKE_CONFIG", str(config))
        code, out, _ = run_cli(["plan", "--species", "Starling", "--format", "csv"], capsys)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["original_drop_height_m"]) == pytest.approx(631.1, abs=0.1)

    @pytest.mark.parametrize(
        "argv, fmt, accepted",
        [
            (["plan", "--species", "Starling"], "json", "text or csv"),
            (["analyze", "--measurements", "forces.csv"], "text", "csv or json"),
        ],
    )
    def test_format_the_command_does_not_emit_exits_two(self, capsys, tmp_path, argv, fmt,
                                                          accepted):
        config = tmp_path / "config.txt"
        config.write_text(f"format = {fmt}\n", encoding="utf-8")
        code, out, err = run_cli(["--config", str(config), *argv], capsys)
        assert code == 2
        assert out == ""
        assert f"format must be {accepted}, got '{fmt}'" in err

    # Per key: a call, the config value, and the flag with a value that overrides
    # it. A missing file's path shows in the error, so it also shows where it went.
    KEY_CASES = {
        "gravity": (["plan", "--species", "Starling", "--format", "csv"],
                    "paper", "--gravity", "standard"),
        "scale_factor": (["plan", "--species", "Starling", "--format", "csv"],
                         "12.5", "--scale", "15"),
        "species": (["plan", "--all"], "{missing}-a.csv", "--registry", "{missing}-b.csv"),
        "materials": (["analyze", "--measurements", "{measurements}"],
                      "{missing}-a.csv", "--materials", "{missing}-b.csv"),
        "measurements": (["analyze", "--matrix", "{matrix}"],
                         "{measurements}", "--measurements", "{missing}-b.csv"),
        "velocity_split": (["analyze", "--measurements", "{measurements}"],
                           "all-aircraft", "--split", "scaled-cruise"),
        "format": (["plan", "--species", "Starling"], "csv", "--format", "text"),
    }

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_key_acts_as_its_flag_and_the_flag_wins(self, capsys, tmp_path, analysis_fixture,
                                                     key):
        names = dict(zip(("matrix", "measurements"), map(str, analysis_fixture)),
                     missing=str(tmp_path / "missing"))
        argv, value, flag, override = self.KEY_CASES[key]
        argv = [item.format(**names) for item in argv]
        value, override = value.format(**names), override.format(**names)
        config = tmp_path / "config.txt"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        from_config = run_cli(["--config", str(config), *argv], capsys)
        assert from_config == run_cli([*argv, flag, value], capsys)
        overridden = run_cli(["--config", str(config), *argv, flag, override], capsys)
        assert overridden == run_cli([*argv, flag, override], capsys)
        assert overridden != from_config

    @pytest.mark.parametrize(
        "argv, key, flag",
        [
            (["plan", "--species", "Starling"], "format", "--format"),
            (["analyze", "--measurements", "forces.csv"], "format", "--format"),
            (["analyze", "--measurements", "forces.csv"], "velocity_split", "--split"),
        ],
    )
    def test_bad_value_gets_one_message_from_flag_or_config(self, capsys, tmp_path, argv, key,
                                                            flag):
        config = tmp_path / "config.txt"
        config.write_text(f"{key} = sideways\n", encoding="utf-8")
        from_config = run_cli(["--config", str(config), *argv], capsys)
        from_flag = run_cli([*argv, flag, "sideways"], capsys)
        assert from_flag == from_config
        code, out, err = from_flag
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: {key} must be ")
        assert err.count("\n") == 1

    def test_line_without_equals_exits_two(self, capsys, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text("gravity = paper\nscale_factor 15\n", encoding="utf-8")
        assert run_cli(["--config", str(config), "matrix"], capsys) == (
            2, "", f"usage error: {config}: line 2: expected key = value\n")

    def test_unknown_key_exits_two(self, capsys, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text("mystery = 1\n", encoding="utf-8")
        code, _, err = run_cli(["--config", str(config), "matrix"], capsys)
        assert code == 2
        assert "mystery" in err

    def test_leading_byte_order_mark_is_skipped(self, capsys, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text("gravity = paper\nformat = csv\n", encoding="utf-8")
        argv = ["--config", str(config), "plan", "--species", "Starling"]
        plain = run_cli(argv, capsys)
        config.write_text("\ufeffgravity = paper\nformat = csv\n", encoding="utf-8")
        assert run_cli(argv, capsys) == plain
        assert plain[0] == 0 and ",631.126125," in plain[1]  # 112.35^2 / (2*10)

    def test_config_not_utf8_exits_two(self, capsys, tmp_path):
        config = tmp_path / "config.txt"
        config.write_bytes(b"gravity = paper\n\xff\n")
        code, out, err = run_cli(
            ["--config", str(config), "check-cert", "--force", "10", "--case", "flock"], capsys)
        assert (code, out) == (2, "")
        assert err == f"usage error: {config}: not UTF-8 text (invalid start byte)\n"


class TestUsageSurface:
    SUBCOMMANDS = [
        "force", "force-stationary", "plan", "drop-velocity", "design",
        "matrix", "analyze", "check-cert", "sweep",
    ]

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_help_exists(self, subcommand, capsys):
        code, out, _ = run_cli([subcommand, "--help"], capsys)
        assert code == 0
        assert out.startswith(f"usage: birdstrike {subcommand} ")

    def test_unknown_flag_exits_two(self, capsys):
        # the full usage line, naming every command, then argparse's error line
        for argv in (["matrix", "--bogus"], ["force", *FORCE_FLAGS, "--bogus"]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert err.startswith("usage: birdstrike ")
            assert "{" + ",".join(self.SUBCOMMANDS) + "}" in err
            assert err.splitlines()[-1] == "birdstrike: error: unrecognized arguments: --bogus"

    def test_unknown_subcommand_exits_two(self, capsys):
        code, _, _ = run_cli(["fly"], capsys)
        assert code == 2


# bird_length*bird_density underflows to 0 although each is positive
TINY_BIRD_FLAGS = ["--mass", "1", "--length", "1e-200", "--bird-density", "1e-200",
                   "--aircraft-density", "1", "--bird-speed", "10", "--angle", "90"]


class TestExitCodes:
    """2 for an invalid flag value, NaN and inf included; 1 for a bad input file."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["force", *FORCE_FLAGS, "--mass", "nan"],
            ["check-cert", "--force", "nan", "--case", "single-bird"],
            ["drop-velocity", "--height", "inf"],
            ["drop-velocity", "--height", "-1"],
            ["matrix", "--iterations", "0"],
            ["design", "--solid-density", "-1"],
            ["plan", "--all", "--cruise", "-1"],
            ["plan", "--all", "--scale", "abc"],
            ["drop-velocity", "--height", "2.8", "--air-density", "nan"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
    )
    def test_bad_flag_exits_two(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-cert", "--force", "10", "--case", "swarm"],
            ["sweep", *SWEEP_BASE, "--param", "wing_span", "--values", "1"],
            ["matrix", "--iterations", str(10**400)],
            ["force", *TINY_BIRD_FLAGS, "--aircraft-speed", "10"],
            ["force-stationary", *TINY_BIRD_FLAGS],
            ["force", *FORCE_FLAGS, "--mass", "1e300", "--length", "1e-300",
             "--aircraft-density", "1e10"],
            ["sweep", *SWEEP_BASE, "--mass", "1e-300", "--param", "bird_mass", "--values", "1e10"],
            ["sweep", *SWEEP_BASE, "--mass", "1e300", "--length", "1e-300", "--aircraft-density",
             "1e10", "--param", "bird_mass", "--values", "1"],
        ],
        ids=["check-cert --case", "sweep --param", "matrix --iterations 10**400",
             "force divisor underflow", "force-stationary divisor underflow",
             "force beyond float range", "sweep percent change beyond float range",
             "sweep base force beyond float range"],
    )
    def test_bad_value_gets_one_usage_error_line(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["plan", "--all", "--gravity", "abc"],
         "gravity must be paper, standard or a number, got 'abc'"),
        (["sweep", *SWEEP_BASE, "--param", "bird_mass", "--values", ","], "--values is empty"),
        # a value that starts with "-" goes to argparse, and the library rejects it
        (["force", *["-5" if value == "22.35" else value for value in SWEEP_BASE]],
         "bird_speed must be >= 0, got -5.0"),
        # the flag leaves sqrt(2*g*h) beyond float range on the built-in matrix; a materials
        # file is not read by that stage, so it takes no blame
        (["analyze", "--measurements", "forces.csv", "--gravity", "1e308"],
         "scenario 'baseline': height 2.8 gives an impact velocity sqrt(2*g*h) beyond float "
         "range at gravity 1e+308"),
        (["analyze", "--measurements", "forces.csv", "--gravity", "1e308", "--use-nominal"],
         "scenario 'baseline': height 2.8 gives an impact velocity sqrt(2*g*h) beyond float "
         "range at gravity 1e+308"),
        (["analyze", "--measurements", "forces.csv", "--materials", "mats.csv",
          "--gravity", "1e308"],
         "scenario 'baseline': height 2.8 gives an impact velocity sqrt(2*g*h) beyond float "
         "range at gravity 1e+308"),
        # the flags are checked before any file is read, so a missing file is not reported
        (["analyze", "--measurements", "forces.csv", "--matrix", "missing.json", "--cruise", "-1"],
         "cruise_speed must be >= 0, got -1.0"),
        (["analyze", "--measurements", "forces.csv", "--materials", "missing.csv",
          "--scale", "0.5"],
         "scale_factor must be >= 1, got 0.5"),
    ], ids=["gravity abc", "values ,", "force bird-speed -5", "analyze gravity 1e308",
            "analyze nominal gravity 1e308", "analyze materials gravity 1e308",
            "analyze missing matrix cruise -1", "analyze missing materials scale 0.5"])
    def test_usage_error_message(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)  # holds the materials file that one case reads
        (tmp_path / "mats.csv").write_text("name,density_kg_m3\n"
                                           "Aluminium-2024-T3,2780\n", encoding="utf-8")
        assert run_cli(argv, capsys) == (2, "", f"usage error: {message}\n")

    @pytest.mark.parametrize(
        "bad_file, edit",
        [
            ("matrix", lambda text: text.replace('"drop_height_m": 2.8', '"drop_height_m": -1')),
            ("matrix", lambda text: text.replace('"drop_height_m": 2.8', '"drop_height_m": "2.8"')),
            ("matrix", lambda text: json.dumps({**json.loads(text), "scenarios": []})),
            ("measurements", lambda text: re.sub(r"(?m)^(baseline,1,).*$", r"\1nan", text)),
            ("measurements", lambda text: text.replace("\nbaseline,2,", "\nbaseline,1,")),
            ("measurements", lambda text: re.sub(r"(?m)^2\.1,.*\n", "", text)),
            ("matrix", lambda text: text.replace('"iterations": 15', '"iterations": 15.0', 1)),
            ("matrix", lambda text: text.replace('"case_number": 1', '"case_number": 1.5', 1)),
            ("matrix", lambda text: text.replace('"projectile_serial": 1',
                                                 '"projectile_serial": true', 1)),
            ("matrix", lambda text: text.replace('"iterations": 15', f'"iterations": {10**400}',
                                                 1)),
            ("matrix", lambda text: text.replace('"iterations": 15', f'"iterations": 1{"0" * 5000}',
                                                 1)),
            ("matrix", lambda text: text.replace('"specimen_material": "Aluminium-2024-T3"',
                                                 '"specimen_material": 5', 1)),
            ("matrix", lambda text: text.replace('"id": "baseline"', '"id": 5')),
            ("matrix", lambda text: text.replace('"id": "baseline"', '"id": null')),
        ],
        ids=["matrix value", "matrix non-number", "empty matrix", "nan force",
             "duplicate iteration", "missing scenario", "float iterations", "float case number",
             "bool serial", "iterations beyond float range",
             "5001-digit iterations", "number specimen material", "number id", "null id"],
    )
    def test_bad_file_exits_one(self, capsys, analysis_fixture, bad_file, edit):
        paths = dict(zip(("matrix", "measurements"), analysis_fixture))
        path = paths[bad_file]
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        code, out, err = run_cli(["analyze", "--matrix", str(paths["matrix"]),
                                  "--measurements", str(paths["measurements"])], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err


class TestUnreadableFiles:
    """Bad UTF-8 and CSV the csv module cannot parse are file errors: exit 1, no traceback."""

    OVERSIZED = '"' + "9" * (csv.field_size_limit() + 1) + '"'

    def analyze(self, capsys, analysis_fixture, tail: bytes):
        matrix_path, measurements_path = analysis_fixture
        with open(measurements_path, "ab") as handle:
            handle.write(tail)
        return measurements_path, run_cli(["analyze", "--matrix", str(matrix_path),
                                           "--measurements", str(measurements_path)], capsys)

    def test_measurements_bad_utf8(self, capsys, analysis_fixture):
        path, (code, out, err) = self.analyze(capsys, analysis_fixture, b"baseline,16,\xff\n")
        assert (code, out, err) == (1, "", f"error: {path}: not UTF-8 text (invalid start byte)\n")

    def test_measurements_oversized_header_cell(self, capsys, tmp_path):
        path = tmp_path / "forces.csv"
        path.write_text(f"{self.OVERSIZED},iteration,force_n\n", encoding="utf-8")
        code, out, err = run_cli(["analyze", "--measurements", str(path)], capsys)
        assert (code, out, err) == (
            1, "", f"error: {path}: row 1: field larger than field limit (131072)\n")

    def test_measurements_oversized_cell(self, capsys, analysis_fixture):
        tail = f"baseline,{self.OVERSIZED},5\n".encode()
        path, (code, out, err) = self.analyze(capsys, analysis_fixture, tail)
        assert (code, out) == (1, "")
        assert err == f"error: {path}: row 137: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("tail", [b"\xff\n", f"Crow,{OVERSIZED},1,1,1\n".encode()],
                             ids=["bad utf-8", "oversized cell"])
    def test_registry(self, capsys, tmp_path, tail):
        path = tmp_path / "registry.csv"
        path.write_bytes(b"name,mass_kg,length_m,density_kg_m3,flight_speed_m_s\n" + tail)
        code, out, err = run_cli(["plan", "--all", "--registry", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1


class TestReportFieldsAreFinite:
    """A huge mean force gives a finite percent error, or exit 1 naming the scenario."""

    def set_baseline_forces(self, analysis_fixture, force):
        matrix_path, measurements_path = analysis_fixture
        text = measurements_path.read_text(encoding="utf-8")
        measurements_path.write_text(re.sub(r"(?m)^(baseline,\d+,).*$", rf"\g<1>{force!r}", text),
                                     encoding="utf-8")
        return ["analyze", "--matrix", str(matrix_path), "--measurements", str(measurements_path),
                "--format", "json"]

    def test_representable_error_is_reported(self, capsys, analysis_fixture):
        code, out, _ = run_cli(self.set_baseline_forces(analysis_fixture, 1e307), capsys)
        assert code == 0
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in report"))
        baseline = payload["scenarios"][0]
        theoretical = baseline["theoretical_n"]
        assert baseline["experimental_mean_n"] == 1e307
        assert baseline["percent_error"] == (theoretical - 1e307) / theoretical * 100.0

    def test_error_beyond_float_range_exits_one(self, capsys, analysis_fixture):
        argv = self.set_baseline_forces(analysis_fixture, 1.7e308)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {argv[4]}: scenario 'baseline': percent error of 1.7e+308 N")
        assert err.endswith(" is beyond float range\n")


def lines(*items):
    return "".join(f"{item}\n" for item in items)


class TestStdoutIsTheLibraryResult:
    """One valid call per subcommand: stdout is the library's result, floats as repr."""

    BASE = ImpactScenario(0.085, 0.22, 1230.0, 22.35, 90.0, 2780.0, 90.0)  # SWEEP_BASE

    def check(self, capsys, argv, expected):
        assert run_cli(argv, capsys)[:2] == (0, expected)

    def test_force(self, capsys):
        r = impact_force(self.BASE)
        self.check(capsys, ["force", *SWEEP_BASE], lines(
            f"total_speed_m_s: {r.total_speed!r}", f"kinetic_energy_j: {r.kinetic_energy!r}",
            f"penetration_depth_m: {r.penetration_depth!r}", f"force_n: {r.force!r}"))

    def test_force_stationary(self, capsys):
        b = self.BASE
        force = impact_force_stationary(b.bird_mass, b.bird_speed, b.bird_length,
                                        b.bird_density, b.aircraft_density, b.impact_angle)
        argv = ["force-stationary", *SWEEP_BASE[:10], *SWEEP_BASE[12:]]  # no --aircraft-speed
        self.check(capsys, argv, lines(f"force_n: {force!r}"))

    def test_plan(self, capsys, starling):
        plan = make_drop_plan(starling.flight_speed, 90.0, 15.0, 10.0, starling.name)
        argv = ["plan", "--species", "Starling", "--gravity", "paper", "--format", "csv"]
        self.check(capsys, argv,
                   lines("species,original_impact_velocity_m_s,original_drop_height_m,"
                         "scaled_impact_velocity_m_s,scaled_drop_height_m,flags",
                         f"{plan.species_name},{plan.original_impact_velocity!r},"
                         f"{plan.original_drop_height!r},{plan.scaled_impact_velocity!r},"
                         f"{plan.scaled_drop_height!r},{'; '.join(plan_flags(plan))}"))

    def test_drop_velocity(self, capsys):
        params = DragParams(projectile_mass=0.0108, drag_coefficient=1.15,
                            reference_area=3.14159e-4, air_density=1.1, gravity=10.0)
        self.check(capsys, ["drop-velocity", "--height", "2.8", "--gravity", "paper",
                            "--mass", "0.0108", "--cd", "1.15", "--area", "3.14159e-4",
                            "--air-density", "1.1"],
                   lines("model: quadratic-drag",
                         f"terminal_velocity_m_s: {terminal_velocity(params)!r}",
                         f"impact_velocity_m_s: {impact_velocity_from_drop(2.8, params)!r}"))

    def test_design(self, capsys, projectile_set):
        payload = [geometry_payload(spec) for spec in projectile_set]
        self.check(capsys, ["design", "--species", "Starling"],
                   lines(json.dumps(payload, indent=2)))

    def test_matrix(self, capsys):
        self.check(capsys, ["matrix", "--iterations", "4"],
                   matrix_to_json(build_test_matrix(iterations_per_scenario=4)))

    def test_analyze(self, capsys, analysis_fixture, projectile_set, materials):
        matrix_path, measurements_path = analysis_fixture
        matrix = read_matrix(matrix_path)
        by_serial = {spec.serial: spec for spec in projectile_set}
        references = {
            s.id: theoretical_reference(s, by_serial[s.projectile_serial],
                                        find_material(materials, s.specimen_material), gravity=10.0)
            for s in matrix.scenarios
        }
        report = conformance_report(matrix, references,
                                    ingest_measurements(measurements_path, matrix))
        self.check(capsys, ["analyze", "--measurements", str(measurements_path),
                            "--matrix", str(matrix_path), "--gravity", "paper"],
                   render_report_csv(report))

    def test_check_cert(self, capsys):
        v = check_certification(4820.0, "flock")
        self.check(capsys, ["check-cert", "--force", "4820", "--case", "flock"], lines(
            f"case: {v.case}", f"force_n: {v.force!r}", f"limit_n: {v.limit!r}",
            f"verdict: {'PASS' if v.passed else 'FAIL'}", f"margin_n: {v.margin!r}"))

    def test_sweep(self, capsys):
        rows = sensitivity_table(self.BASE, "aircraft_speed", [0.0, 45.0])
        self.check(capsys, ["sweep", *SWEEP_BASE, "--param", "aircraft_speed", "--values", "0,45"],
                   lines("value,force_n,percent_change",
                         *(f"{r.value!r},{r.force!r},{r.percent_change!r}" for r in rows)))


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "birdstrike", "plan", "--all", "--gravity", "paper"],
        env=fresh_env(),
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=60,
    )
    assert result.returncode == 0
    assert "Starling" in result.stdout


# Error calls whose one stderr line a separate process must print as main does: no traceback.
PROCESS_ERRORS = {
    "check-cert nan": (["check-cert", "--force", "nan", "--case", "flock"],
                       2, "usage error: force must be >= 0, got nan"),
    "drop-velocity negative height": (
        ["drop-velocity", "--height", "-1", "--mass", "0.01", "--cd", "1", "--area", "1e-4"],
        2, "usage error: height must be >= 0, got -1.0"),
    "plan unknown species": (["plan", "--species", "Dodo"],
                             2, "usage error: unknown species 'Dodo'"),
    "design unknown species": (["design", "--species", "Dodo"],
                               2, "usage error: unknown species 'Dodo'"),
    "analyze unknown split": (
        ["analyze", "--measurements", "forces.csv", "--split", "bogus"], 2,
        "usage error: velocity_split must be one of ['scaled-cruise', 'all-aircraft'], "
        "got 'bogus'"),
    "analyze materials without CFRP": (
        ["analyze", "--measurements", "forces.csv", "--materials", "mats.csv"],
        1, "error: mats.csv: scenario '6': unknown material 'CFRP'"),
    "analyze matrix nested too deeply": (
        ["analyze", "--measurements", "forces.csv", "--matrix", "deep.json"],
        1, "error: deep.json: JSON nested too deeply"),
}


@pytest.mark.parametrize("argv, code, line", PROCESS_ERRORS.values(), ids=list(PROCESS_ERRORS))
def test_error_is_one_line_in_a_process(tmp_path, argv, code, line):
    (tmp_path / "mats.csv").write_text("name,density_kg_m3\n"
                                       "Aluminium-2024-T3,2780\n", encoding="utf-8")
    (tmp_path / "deep.json").write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "birdstrike", *argv], cwd=tmp_path,
                            env=fresh_env(), capture_output=True, text=True, encoding="utf-8",
                            timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (code, "", line + "\n")


# Argvs that _parse_plain must decline or parse as argparse does: with [], ["--bogus"],
# ["--help"] and ["-h"] after every command, the table covers a missing required flag, an
# unknown flag, a bad type and an abbreviated flag.
PARSE_CASES = {
    "force": [FORCE_FLAGS, ["--mass", "x"], ["--aircraft-sp", "1"], [*FORCE_FLAGS, "extra"]],
    "force-stationary": [FORCE_FLAGS, ["--angle", "x"], ["--ang", "90"]],
    "plan": [["--species", "A", "--all"], ["--al"], ["--format"], ["--grav", "paper", "--all"]],
    "drop-velocity": [["--height", "1", "--time", "1"], ["--height", "x"], ["--heig", "1"],
                      ["--height", "1", "--area", "1e-4"]],
    "design": [["--shell", "0.5"], ["--solid-density", "x"], ["--out"]],
    "matrix": [["--iterations", "x"], ["--iter", "3"], ["--out"]],
    "analyze": [["--measure", "m.csv"], ["--strict", "--bogus"], ["--split"], ["--s", "x"]],
    "check-cert": [["--force", "x", "--case", "flock"], ["--forc", "10", "--case", "flock"],
                   ["--force", "10"], ["--c", "flock", "--force", "1"]],
    "sweep": [[*FORCE_FLAGS, "--param", "bird_mass"],
              [*FORCE_FLAGS, "--par", "bird_mass", "--values", "1"]],
}


def subcommands(parser):
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return commands.choices


def test_every_command_has_parse_cases():
    # _parse_plain reads cli._COMMANDS, which must name every subcommand
    assert list(PARSE_CASES) == list(cli._COMMANDS) == list(subcommands(cli._build_parser()))


def record_builds(monkeypatch):
    """The argument tuples of every cli._build_parser call from now on."""
    built, build = [], cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda *args: built.append(args) or build(*args))
    return built


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["bogus"], ["forc"], ["-1", "force"], ["--config", "x", "force"],
    ["check-cert", "--forc", "10", "--case", "flock"],
    ["check-cert", "--force=10", "--case", "flock"]])
def test_main_builds_the_parser_only_for_a_declined_argv(monkeypatch, capsys, argv):
    built = record_builds(monkeypatch)
    run_cli(argv, capsys)
    assert built == [()]


# One argv per subcommand, shaped as the benchmark's rotation shapes it; each is plain.
PLAIN_ARGVS = {
    "force": FORCE_FLAGS,
    "force-stationary": FORCE_FLAGS[:10] + FORCE_FLAGS[12:],
    "plan": ["--all", "--format", "csv", "--gravity", "paper", "--scale", "12.5"],
    "drop-velocity": ["--time", "0.6", "--mass", "0.01", "--cd", "1.1", "--area", "3e-4",
                      "--gravity", "standard"],
    "design": ["--species", "Starling", "--shell-fraction", "0.1", "--out", "designs"],
    "matrix": ["--iterations", "12", "--out", "matrix.json"],
    "analyze": ["--measurements", "forces.csv", "--matrix", "matrix.json", "--gravity", "paper",
                "--split", "all-aircraft", "--format", "json", "--strict", "--out", "r.json"],
    "check-cert": ["--force", "1996.4", "--case", "single-bird"],
    "sweep": [*FORCE_FLAGS, "--param", "bird_mass", "--values", "0.1,0.2"],
}


@pytest.mark.parametrize("command", list(PLAIN_ARGVS))
def test_main_builds_no_parser_for_a_plain_argv(monkeypatch, capsys, tmp_path, command):
    monkeypatch.chdir(tmp_path)  # design and matrix write their --out files
    built = record_builds(monkeypatch)
    run_cli([command, *PLAIN_ARGVS[command]], capsys)
    assert built == []


def comparable(namespace):
    """A parse outcome's items, each value by repr: nan != nan, and 1 must not pass for 1.0."""
    return sorted((key, repr(value)) for key, value in namespace.items())


def parsed(parser, argv, capsys):
    """vars() of what parser makes of argv, or None where it exits."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit:
        outcome = None
    capsys.readouterr()
    return outcome


# Values for a flag's seeded argvs: mostly ones its type takes, some ("-5" among them) not.
GOOD_VALUES = {float: ["1", "2.5", "nan", "inf", "1e308", "0"], int: ["3", "12"],
               None: ["paper", "Starling", "flock", "x y", ""]}
ODD_VALUES = ["-5", "", "x", "1.5"]


def seeded_argvs(parser, command, seed, count=100):
    """Argvs of command's exact flags, with required ones mostly given, in shuffled order,
    one flag sometimes repeated (plan's --species included)."""
    rng = random.Random(f"{command}-{seed}")
    actions = [action for action in subcommands(parser)[command]._actions
               if action.option_strings != ["-h", "--help"]]
    for _ in range(count):
        chosen = [action for action in actions if rng.random() < (0.9 if action.required else 0.5)]
        if chosen and rng.random() < 0.3:
            chosen.append(rng.choice(chosen))
        rng.shuffle(chosen)
        argv, values = [command], []
        for action in chosen:
            argv.append(action.option_strings[0])
            if action.nargs != 0:
                pool = ODD_VALUES if rng.random() < 0.1 else GOOD_VALUES[action.type]
                values.append(rng.choice(pool))
                argv.append(values[-1])
        yield argv, values


@pytest.mark.parametrize("command", list(PARSE_CASES))
def test_plain_parse_is_argparse_or_declines(capsys, command):
    # _parse_plain returns what the parser returns, or None and leaves the argv to it
    parser = cli._build_parser()
    plain_argv = [command, *PLAIN_ARGVS[command]]
    plain = cli._parse_plain(plain_argv)
    assert plain is not None
    assert comparable(vars(plain)) == comparable(parsed(parser, plain_argv, capsys))
    for tail in ([], ["--bogus"], ["--help"], ["-h"], *PARSE_CASES[command]):
        plain = cli._parse_plain([command, *tail])
        assert plain is None or comparable(vars(plain)) == comparable(
            parsed(parser, [command, *tail], capsys)), tail
    accepted = 0
    for seed in (1, 2, 3):
        for argv, values in seeded_argvs(parser, command, seed):
            plain, expected = cli._parse_plain(argv), parsed(parser, argv, capsys)
            # plain exactly where argparse parses it and no value starts with "-"
            if expected is None or "-5" in values:
                assert plain is None, argv
            else:
                assert comparable(vars(plain)) == comparable(expected), argv
                accepted += 1
    assert accepted >= 30


@pytest.mark.parametrize("force", [["--forc", "1996.4"], ["--force=1996.4"]],
                         ids=["abbreviated", "equals"])
def test_a_call_argparse_parses_prints_the_plain_calls_output(capsys, force):
    plain = run_cli(["check-cert", "--force", "1996.4", "--case", "single-bird"], capsys)
    assert run_cli(["check-cert", *force, "--case", "single-bird"], capsys) == plain
    assert plain[0] == 0 and plain[1]


def test_main_reads_sys_argv_when_given_no_argv(monkeypatch, capsys):
    argv = ["check-cert", "--force", "10", "--case", "flock"]
    expected = run_cli(argv, capsys)
    monkeypatch.setattr(sys, "argv", ["birdstrike", *argv])
    assert run_cli(None, capsys) == expected and expected[0] == 0
