import json
import math
import random
import re

import pytest

from birdstrike.errors import InvalidParameterError, ParseError
from birdstrike.projectile import (
    Cylinder,
    Ellipsoid,
    ProjectileSpec,
    cylinder_radius_for,
    effective_density,
    export_geometry,
    generate_projectile_set,
    load_geometry,
    round_sig,
)
from birdstrike.species import BirdSpecies


class TestRoundSig:
    def test_half_away_from_zero(self):
        assert round_sig(0.0115, 2) == 0.012
        assert round_sig(-0.0115, 2) == -0.012
        assert round_sig(0.25, 2) == 0.25
        assert round_sig(123.4, 2) == 120.0

    def test_zero_passthrough(self):
        assert round_sig(0.0, 2) == 0.0

    def test_invalid_digits(self):
        with pytest.raises(InvalidParameterError):
            round_sig(1.0, 0)


class TestVolumes:
    def test_unit_cylinder(self):
        assert Cylinder(1.0, 1.0).volume() == pytest.approx(math.pi, rel=1e-12)

    def test_starling_cylinder(self):
        assert Cylinder(0.01, 0.22).volume() == pytest.approx(6.912e-5, abs=1e-8)

    def test_doubling_radius_quadruples_volume(self):
        assert Cylinder(0.02, 0.22).volume() == pytest.approx(
            4.0 * Cylinder(0.01, 0.22).volume(), rel=1e-12
        )

    def test_unit_ellipsoid(self):
        assert Ellipsoid(1.0, 1.0, 1.0).volume() == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)

    def test_inscribed_ellipsoid(self):
        volume = Ellipsoid(0.11, 0.01, 0.01).volume()
        assert volume == pytest.approx(4.608e-5, abs=1e-8)
        assert volume == pytest.approx(2.0 / 3.0 * Cylinder(0.01, 0.22).volume(), rel=1e-12)

    def test_axis_permutation_symmetry(self):
        # equal up to multiplication reordering (1 ulp)
        assert Ellipsoid(0.11, 0.01, 0.02).volume() == pytest.approx(
            Ellipsoid(0.01, 0.02, 0.11).volume(), rel=1e-12
        )

    def test_non_positive_dimensions_rejected(self):
        with pytest.raises(InvalidParameterError):
            Cylinder(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            Ellipsoid(1.0, -1.0, 1.0)


class TestCylinderRadius:
    def test_hand_value(self):
        assert cylinder_radius_for(0.0691, 1000.0, 0.22) == pytest.approx(0.009999, abs=1e-5)

    def test_quadrupling_mass_doubles_radius(self):
        assert cylinder_radius_for(0.4, 1000.0, 0.22) == pytest.approx(
            2.0 * cylinder_radius_for(0.1, 1000.0, 0.22), rel=1e-12
        )

    def test_starling_record_rounds_to_published_radius(self, starling):
        radius = cylinder_radius_for(starling.mass, starling.body_density, starling.length)
        assert round_sig(radius, 2) == 0.01

    def test_round_trip_10000_random_triples(self):
        rng = random.Random(99)
        for _ in range(10_000):
            mass = rng.uniform(1e-3, 20.0)
            density = rng.uniform(100.0, 5000.0)
            length = rng.uniform(0.01, 2.0)
            radius = cylinder_radius_for(mass, density, length)
            assert Cylinder(radius, length).volume() * density == pytest.approx(mass, rel=1e-12)

    def test_non_positive_inputs_rejected(self):
        with pytest.raises(InvalidParameterError):
            cylinder_radius_for(0.0, 1000.0, 0.22)


class TestEffectiveDensity:
    def test_full_infill_is_solid(self):
        assert effective_density(1040.0, 1.0, 0.3) == pytest.approx(1040.0, rel=1e-12)

    def test_zero_infill_leaves_shell(self):
        assert effective_density(1000.0, 0.0, 0.3) == pytest.approx(300.0, rel=1e-12)

    def test_monotone_in_infill(self):
        values = [effective_density(1040.0, infill / 10.0, 0.1) for infill in range(11)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(InvalidParameterError):
            effective_density(1040.0, 1.2)
        with pytest.raises(InvalidParameterError):
            effective_density(1040.0, 0.5, -0.1)


class TestGenerateProjectileSet:
    def test_serials_and_labels(self, projectile_set):
        assert [spec.serial for spec in projectile_set] == [1, 2, 3, 4, 5]
        assert [spec.varying_factor for spec in projectile_set] == [
            "Base model",
            "Bird density & bird mass (Infill)",
            "Bird radius (& bird mass)",
            "Bird length (& bird mass)",
            "Bird shape",
        ]

    def test_published_dimensions(self, projectile_set):
        sn1, sn2, sn3, sn4, sn5 = projectile_set
        assert (sn1.shape.radius, sn1.shape.height) == (0.01, 0.22)
        assert (sn2.shape.radius, sn2.shape.height) == (0.01, 0.22)
        assert (sn3.shape.radius, sn3.shape.height) == (0.005, 0.22)
        assert (sn4.shape.radius, sn4.shape.height) == (0.01, 0.15)
        assert isinstance(sn5.shape, Ellipsoid)
        assert (sn5.shape.a, sn5.shape.b, sn5.shape.c) == (0.11, 0.01, 0.01)

    def test_infill_fractions(self, projectile_set):
        assert [spec.infill_fraction for spec in projectile_set] == [
            0.15, 0.40, 0.15, 0.15, 0.15,
        ]

    def test_mass_ratios(self, projectile_set):
        sn1, _, sn3, _, sn5 = projectile_set
        assert sn3.mass / sn1.mass == pytest.approx(0.25, rel=1e-12)
        assert sn5.mass / sn1.mass == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_mass_invariant_holds_for_every_spec(self, projectile_set):
        for spec in projectile_set:
            assert spec.mass == pytest.approx(
                spec.effective_density * spec.shape.volume(), rel=1e-12
            )

    def test_other_base_species(self, registry):
        from birdstrike.species import find_species

        goose = find_species(registry, "Canada Goose")
        specs = generate_projectile_set(goose)
        assert (specs[0].shape.radius, specs[0].shape.height) == (0.05, 0.92)
        assert specs[2].shape.radius == 0.025
        assert specs[3].shape.height == round_sig(0.92 * 15.0 / 22.0, 2)

    def test_shell_fraction_raises_effective_density(self, starling):
        pure = generate_projectile_set(starling, shell_fraction=0.0)
        shelled = generate_projectile_set(starling, shell_fraction=0.3)
        assert shelled[0].effective_density > pure[0].effective_density


class TestGeometryFiles:
    def test_round_trip_every_spec(self, projectile_set, tmp_path):
        for spec in projectile_set:
            path = tmp_path / f"sn{spec.serial}.json"
            export_geometry(spec, path)
            assert load_geometry(path) == spec

    def test_sn1_file_contents(self, projectile_set, tmp_path):
        path = tmp_path / "sn1.json"
        export_geometry(projectile_set[0], path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["shape"] == "cylinder"
        assert payload["dims_m"]["radius"] == 0.01
        assert payload["serial"] == 1

    def test_invalid_path_raises(self, projectile_set, tmp_path):
        with pytest.raises(OSError):
            export_geometry(projectile_set[0], tmp_path / "missing_dir" / "x.json")

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_geometry(path)

    def test_unknown_shape_rejected(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(
            json.dumps(
                {
                    "serial": 1,
                    "shape": "torus",
                    "dims_m": {"r": 1.0},
                    "infill_fraction": 0.15,
                    "solid_density_kg_m3": 1040.0,
                    "effective_density_kg_m3": 156.0,
                    "mass_kg": 0.01,
                    "varying_factor": "?",
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="shape"):
            load_geometry(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [("infill_fraction", 1.5, "infill_fraction must be within"),
         ("infill_fraction", "0.15", "infill_fraction must be a number"),
         ("dims_m", {"radius": None, "height": 0.22}, "radius must be a number")],
    )
    def test_bad_value_is_a_parse_error(self, projectile_set, tmp_path, field, value, message):
        path = tmp_path / "sn1.json"
        export_geometry(projectile_set[0], path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[field] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {message}"):
            load_geometry(path)


class TestProjectileSpecInvariants:
    def test_mass_must_match_density_times_volume(self):
        shape = Cylinder(0.01, 0.22)
        with pytest.raises(InvalidParameterError, match="mass"):
            ProjectileSpec(1, shape, 1040.0, 0.15, 156.0, 1.0, "bad")

    def test_zero_mass_zero_density_allowed(self):
        shape = Cylinder(0.01, 0.22)
        spec = ProjectileSpec(1, shape, 1040.0, 0.0, 0.0, 0.0, "hollow")
        assert spec.mass == 0.0

    def test_infill_range_enforced(self):
        shape = Cylinder(0.01, 0.22)
        with pytest.raises(InvalidParameterError, match="infill"):
            ProjectileSpec(1, shape, 1040.0, 1.5, 1560.0, 1560.0 * shape.volume(), "x")


def test_generate_set_respects_custom_solid_density():
    bird = BirdSpecies("Test Bird", 0.085, 0.22, 1230.0, 22.35)
    specs = generate_projectile_set(bird, solid_density=2000.0)
    assert specs[0].effective_density == pytest.approx(300.0, rel=1e-12)
    assert specs[1].effective_density == pytest.approx(800.0, rel=1e-12)
