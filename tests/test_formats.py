"""The matrix, descriptor, report and plan formats, pinned byte for byte.

The golden digests are of the CLI's output for the default matrix, the
Starling projectile set, a fixed 135-row campaign's conformance report, the
published-gravity plan of every species and a sweep of the README bird over
each scenario parameter; any change to a key, its order
or a value shows. The missing-key test deletes each key of the matrix file in
turn and expects the one ParseError that names it. Descriptor files are
written, never read back.
"""

import contextlib
import hashlib
import io
import json

import pytest

from birdstrike.cli import main
from birdstrike.errors import ParseError
from birdstrike.harness import build_test_matrix, matrix_to_json, read_matrix
from birdstrike.projectile import export_geometry

MATRIX_SHA256 = "fdf61d034d3194cc41d3a2fd56679f24d166ae680b588c8c1b187e0cf9a424be"
MATRIX_7_SHA256 = "598cd145f47bea43c88dba417a14aa74a5ea31fe9b04650665bf1f52c2fdc3a3"
DESIGN_SHA256 = "91f664e27ee49356eac5e955809676ddf878472545b2e5a828efe1a73e41bc30"
DESCRIPTOR_SHA256 = {
    1: "2313240e292cd2970a512e0e65cfa532499d5cb33a94221970b55bdb8eccc2b3",
    2: "ac5aba37099cca21bb69976975a893ee5dde6fc0be87b2c557b1676af6c440c1",
    3: "ae182063e89b5e4544c15896aac2e9f6d98264f3cbae0e559d39dac19cae28f7",
    4: "82f36966229ccb8a3a73967c3db4d837a961695d2bcf768f79300fb6585a9e7c",
    5: "b5abbbdc6fdac3dcab2b46856dabfe588f3e87adf47c8c0d96fe5e60c15eac17",
}
REPORT_CSV_SHA256 = "d8c31691eecb7b3b42197ca873c070639b364884bfa1530c550bdad089ab9743"
REPORT_JSON_SHA256 = "2d2c448a29d9e2fad6eb50b010e252bf5637f3b8c3b92ae4b6a09a110662270a"
PLAN_CSV_SHA256 = "bbe6bb550e9eeabbc9babbf7f3d15d1b16c06cc763650669a7c4f870d7023730"
# `sweep` of the README bird, per swept parameter: its --values and the stdout digest.
README_BIRD = ["--mass", "0.085", "--length", "0.22", "--bird-density", "1230",
               "--aircraft-density", "2780", "--bird-speed", "22.35", "--aircraft-speed", "90",
               "--angle", "90"]
SWEEP_SHA256 = {
    "bird_mass": ("0.05,0.085,0.12",
                  "c7bd4b7a2b3a2f43bc8f8887e2b0eb3d22df2f8ce2209bf51908099aecbb0851"),
    "bird_length": ("0.11,0.22,0.44",
                    "8acf700fdc4784e4af57949aabf8533f400ff3b4de85b9deef885cbe1644cf4d"),
    "bird_density": ("900,1230,1650",
                     "5c2d561680e5732f2936a17b09a104f613590a01ec400d5e4f1189c84ee25b5c"),
    "bird_speed": ("0,11.175,22.35,30",
                   "04df51d79d64500c6ea82e0f87a325d4003f4b51b71b1fe07dd355fcdb011589"),
    "aircraft_speed": ("0,6,45,90",
                       "4aa80d4c089032b4929fc0fc68cb06b1376b3df8eff84d6bd48494f4fa2925fc"),
    "aircraft_density": ("2780,1167.6",
                         "81a349394f8968a3d35d35cc8575cbe5eed3a9dc95c6e58d72eac38fdaab57af"),
    "impact_angle": ("0,30,50,90",
                     "6cf681c7efa423e1e123bbcf812597b5eb114374b8103dd9be6c2b2d6c823097"),
}


def stdout_of(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv, digest", [
    (["matrix"], MATRIX_SHA256),
    (["matrix", "--iterations", "7"], MATRIX_7_SHA256),
    (["design"], DESIGN_SHA256),
], ids=["matrix", "matrix --iterations 7", "design"])
def test_stdout_digest(argv, digest):
    assert sha256(stdout_of(argv).encode()) == digest


def test_design_out_file_digests(tmp_path):
    out = stdout_of(["design", "--out", str(tmp_path)])
    paths = [tmp_path / f"projectile_sn{serial}.json" for serial in DESCRIPTOR_SHA256]
    assert out == "".join(f"{path}\n" for path in paths)
    assert {serial: sha256(path.read_bytes())
            for serial, path in zip(DESCRIPTOR_SHA256, paths)} == DESCRIPTOR_SHA256


@pytest.fixture()
def campaign(tmp_path):
    """A fixed measurements file: 15 iterations of each default scenario, every force distinct."""
    path = tmp_path / "forces.csv"
    path.write_text("scenario_id,iteration,force_n\n" + "".join(
        f"{scenario.id},{n},{12.5 + k + n / 16}\n"
        for k, scenario in enumerate(build_test_matrix().scenarios) for n in range(1, 16)),
        encoding="utf-8")
    return path


@pytest.mark.parametrize("fmt, digest", [("csv", REPORT_CSV_SHA256),
                                         ("json", REPORT_JSON_SHA256)])
def test_report_digest(campaign, fmt, digest):
    assert sha256(stdout_of(["analyze", "--measurements", str(campaign),
                             "--format", fmt]).encode()) == digest


def test_plan_digest():
    argv = ["plan", "--all", "--gravity", "paper", "--format", "csv"]
    assert sha256(stdout_of(argv).encode()) == PLAN_CSV_SHA256


@pytest.mark.parametrize("param", SWEEP_SHA256)
def test_sweep_digest(param):
    values, digest = SWEEP_SHA256[param]
    argv = ["sweep", *README_BIRD, "--param", param, "--values", values]
    with contextlib.redirect_stderr(io.StringIO()):  # the published-delta notes
        assert sha256(stdout_of(argv).encode()) == digest


MATRIX_TOP_KEYS = ["scenarios"]
SCENARIO_KEYS = ["id", "case_number", "projectile_serial", "drop_height_m",
                 "nominal_impact_velocity_m_s", "impact_angle_deg", "specimen_material",
                 "iterations"]
DESCRIPTOR_KEYS = ["serial", "shape", "dims_m", "infill_fraction", "solid_density_kg_m3",
                   "effective_density_kg_m3", "mass_kg", "varying_factor"]
DIMS_KEYS = {1: ["radius", "height"], 5: ["a", "b", "c"]}  # SN1 is a cylinder, SN5 an ellipsoid


def test_key_lists_match_the_written_files(tmp_path, projectile_set):
    path = tmp_path / "matrix.json"
    path.write_text(matrix_to_json(build_test_matrix()), encoding="utf-8")
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert list(payload) == MATRIX_TOP_KEYS
    assert list(payload["scenarios"][0]) == SCENARIO_KEYS
    for serial, dims in DIMS_KEYS.items():
        export_geometry(projectile_set[serial - 1], path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert (list(payload), list(payload["dims_m"])) == (DESCRIPTOR_KEYS, dims)


def test_matrix_with_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text("\ufeff" + matrix_to_json(build_test_matrix()), encoding="utf-8")
    assert read_matrix(path) == build_test_matrix()


def test_matrix_with_the_old_top_level_count_loads(tmp_path):
    # Older matrix files also carry "iterations_per_scenario"; each scenario's count is read.
    path = tmp_path / "matrix.json"
    payload = {"iterations_per_scenario": 99, **json.loads(matrix_to_json(build_test_matrix(4)))}
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert read_matrix(path) == build_test_matrix(4)


def expect_missing(path, load, key):
    with pytest.raises(ParseError) as raised:
        load(path)
    assert str(raised.value) == f"{path}: missing field {key!r}"


@pytest.mark.parametrize("where, key", [*(("top", key) for key in MATRIX_TOP_KEYS),
                                        *(("scenario", key) for key in SCENARIO_KEYS)])
def test_matrix_without_a_key(tmp_path, where, key):
    path = tmp_path / "matrix.json"
    path.write_text(matrix_to_json(build_test_matrix()), encoding="utf-8")
    payload = json.loads(path.read_text(encoding="utf-8"))
    del (payload if where == "top" else payload["scenarios"][-1])[key]
    path.write_text(json.dumps(payload), encoding="utf-8")
    expect_missing(path, read_matrix, key)
