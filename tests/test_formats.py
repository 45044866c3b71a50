"""The matrix and projectile descriptor file formats, pinned byte for byte.

The golden digests are of the CLI's output for the default matrix and the
Starling projectile set; any change to a key, its order or a value shows. The
missing-key test deletes each key of each file in turn and expects the one
ParseError that names it.
"""

import contextlib
import hashlib
import io
import json

import pytest

from birdstrike.cli import main
from birdstrike.errors import ParseError
from birdstrike.harness import build_test_matrix, matrix_to_json, read_matrix
from birdstrike.projectile import export_geometry, load_geometry

MATRIX_SHA256 = "8f222b2d8d6ea4a63a1bab233bbbc4848e463eaaa3e56dd5dc0dd53aabcaa577"
MATRIX_7_SHA256 = "ef87f34f49632d8b74b0cd0421aba03908d090dd2519c8a4ed36c43dad499075"
DESIGN_SHA256 = "91f664e27ee49356eac5e955809676ddf878472545b2e5a828efe1a73e41bc30"
DESCRIPTOR_SHA256 = {
    1: "2313240e292cd2970a512e0e65cfa532499d5cb33a94221970b55bdb8eccc2b3",
    2: "ac5aba37099cca21bb69976975a893ee5dde6fc0be87b2c557b1676af6c440c1",
    3: "ae182063e89b5e4544c15896aac2e9f6d98264f3cbae0e559d39dac19cae28f7",
    4: "82f36966229ccb8a3a73967c3db4d837a961695d2bcf768f79300fb6585a9e7c",
    5: "b5abbbdc6fdac3dcab2b46856dabfe588f3e87adf47c8c0d96fe5e60c15eac17",
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


MATRIX_TOP_KEYS = ["iterations_per_scenario", "scenarios"]
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


@pytest.mark.parametrize("serial, where, key", [
    *((serial, "top", key) for serial in DIMS_KEYS for key in DESCRIPTOR_KEYS),
    *((serial, "dims_m", key) for serial, keys in DIMS_KEYS.items() for key in keys),
])
def test_descriptor_without_a_key(tmp_path, projectile_set, serial, where, key):
    path = tmp_path / "descriptor.json"
    export_geometry(projectile_set[serial - 1], path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    del (payload if where == "top" else payload["dims_m"])[key]
    path.write_text(json.dumps(payload), encoding="utf-8")
    expect_missing(path, load_geometry, key)
