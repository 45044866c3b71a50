import math
import random
import re
import sys

import pytest

from birdstrike.errors import InvalidParameterError
from birdstrike.projectile import (
    Cylinder,
    Ellipsoid,
    ProjectileSpec,
    cylinder_radius_for,
    effective_density,
    export_geometry,
    generate_projectile_set,
    geometry_payload,
    round_sig,
)
from birdstrike.species import BirdSpecies

from oracles import decimal_round_sig


def round_sig_cases(seed: int = 29) -> list[tuple[float, int]]:
    """Seeded (value, digits) pairs, digits 1 to 17, each value negated at random."""
    rng = random.Random(seed)
    cases = []
    for _ in range(7000):  # 1 to 17 digits, leading digit at 1e-300 to 1e300
        size = rng.randint(1, 17)
        mantissa = rng.randrange(10 ** (size - 1), 10 ** size)
        cases.append((float(f"{mantissa}e{rng.randint(-300, 300) - size + 1}"),
                      rng.randint(1, 17)))
    for _ in range(5000):  # subnormals: multiples of 5e-324 (2**-1074) below 2**-1022
        cases.append((rng.randrange(1, 2 ** 52) * 5e-324, rng.randint(1, 17)))
    for _ in range(6000):  # a 5 just past the last kept digit; 15 digits or fewer round-trip
        digits = rng.randint(1, 14)
        kept = rng.randrange(10 ** (digits - 1), 10 ** digits)
        cases.append((float(f"{kept}5e{rng.randint(-300, 300) - digits}"), digits))
    for _ in range(2000):  # all nines, whose float log10 can round up to a power of ten
        size = rng.randint(1, 17)
        cases.append((float(f"{'9' * size}e{rng.randint(-300, 300) - size + 1}"),
                      rng.randint(1, 17)))
    edges = (sys.float_info.max, sys.float_info.min, 5e-324)
    cases += [(value, digits) for value in edges for digits in range(1, 18)]
    return [(rng.choice((value, -value)), digits) for value, digits in cases]


class TestRoundSig:
    @pytest.mark.parametrize("value", [sys.float_info.max, -sys.float_info.max])
    def test_rounding_past_float_range_raises(self, value):
        # 1.7976931348623157e308 to 2 digits is 1.8e308, which no float holds
        with pytest.raises(InvalidParameterError,
                           match=f"^{re.escape(repr(value))} rounded to 2 significant digits "
                                 "overflows$"):
            round_sig(value, 2)
        assert round_sig(value, 17) == value

    def test_equals_decimal_quantize_on_seeded_values(self):
        cases = round_sig_cases() + [(0.0115, 2), (-0.0115, 2), (0.25, 2), (123.4, 2)]
        assert len(cases) >= 20_000
        overflows = 0
        for value, digits in cases:
            expected = decimal_round_sig(value, digits)
            if math.isinf(expected):
                overflows += 1
                with pytest.raises(InvalidParameterError, match="overflows$"):
                    round_sig(value, digits)
            else:
                assert round_sig(value, digits) == expected, (value, digits)
        assert overflows >= 2  # float max at 1 and 2 digits at least

    def test_all_nines_keep_their_last_digit(self):
        # a float log10 of this value reads 162.0, which would round it at 14 digits to 1e162
        assert round_sig(9.99999999999999e161, 15) == 9.99999999999999e161

    @pytest.mark.parametrize("value", [0.0, -0.0, math.inf, -math.inf])
    def test_zero_and_inf_pass_through(self, value):
        assert repr(round_sig(value, 2)) == repr(value)

    def test_nan_passes_through(self):
        assert math.isnan(round_sig(math.nan, 2))

    @pytest.mark.parametrize("value, rounded", [(1234, 1200.0), (-5, -5.0)],
                             ids=["int", "negative int"])
    def test_a_number_that_is_not_a_float_is_rounded_as_float(self, value, rounded):
        result = round_sig(value, 2)
        assert result.__class__ is float and result == rounded

    @pytest.mark.parametrize("value, bound", [("1.5", "a number"), (None, "a number"),
                                              (True, "a number"),
                                              (10 ** 400, "a number within float range")],
                             ids=["str", "None", "bool", "int past float range"])
    def test_a_value_require_rejects_is_an_invalid_parameter(self, value, bound):
        with pytest.raises(InvalidParameterError, match=f"^value must be {bound}, got "):
            round_sig(value, 2)


class TestVolumes:
    def test_unit_cylinder(self):
        assert Cylinder(1.0, 1.0).volume() == pytest.approx(math.pi, rel=1e-12)

    def test_starling_cylinder(self):
        assert Cylinder(0.01, 0.22).volume() == pytest.approx(6.912e-5, abs=1e-8)

    def test_unit_ellipsoid(self):
        assert Ellipsoid(1.0, 1.0, 1.0).volume() == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)

    def test_axis_permutation_symmetry(self):
        # equal up to multiplication reordering (1 ulp)
        assert Ellipsoid(0.11, 0.01, 0.02).volume() == pytest.approx(
            Ellipsoid(0.01, 0.02, 0.11).volume(), rel=1e-12
        )


class TestCylinderRadius:
    def test_round_trip_10000_random_triples(self):
        rng = random.Random(99)
        for _ in range(10_000):
            mass = rng.uniform(1e-3, 20.0)
            density = rng.uniform(100.0, 5000.0)
            length = rng.uniform(0.01, 2.0)
            radius = cylinder_radius_for(mass, density, length)
            assert Cylinder(radius, length).volume() * density == pytest.approx(mass, rel=1e-12)

    @pytest.mark.parametrize("mass, body_density, length", [
        (1e300, 1e-300, 1e-300),  # body_density * pi * length underflows to 0
        (1e300, 1e-10, 1.0),      # the radius overflows
        (5e-324, 1e300, 1.0),     # the radius underflows to 0
    ])
    def test_radius_outside_float_range_names_the_inputs(self, mass, body_density, length):
        message = (f"mass {mass!r}, body_density {body_density!r} and length {length!r} "
                   "give no finite cylinder radius > 0")
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            cylinder_radius_for(mass, body_density, length)


class TestEffectiveDensity:
    def test_full_infill_is_solid(self):
        assert effective_density(1040.0, 1.0, 0.3) == pytest.approx(1040.0, rel=1e-12)

    def test_zero_infill_leaves_shell(self):
        assert effective_density(1000.0, 0.0, 0.3) == pytest.approx(300.0, rel=1e-12)

    def test_shell_fraction_defaults_to_zero(self):
        assert effective_density(1040.0, 0.15) == 156.0

    def test_monotone_in_infill(self):
        values = [effective_density(1040.0, infill / 10.0, 0.1) for infill in range(11)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestGenerateProjectileSet:
    def test_mass_ratios(self, projectile_set):
        sn1, _, sn3, _, sn5 = projectile_set
        assert sn3.mass / sn1.mass == pytest.approx(0.25, rel=1e-12)
        assert sn5.mass / sn1.mass == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_mass_invariant_holds_for_every_spec(self, projectile_set):
        for spec in projectile_set:
            assert spec.mass == spec.effective_density * spec.shape.volume()
            assert geometry_payload(spec)["mass_kg"] == spec.mass

    def test_other_base_species(self, registry):
        from birdstrike.species import find_species

        goose = find_species(registry, "Canada Goose")
        specs = generate_projectile_set(goose)
        assert (specs[0].shape.radius, specs[0].shape.height) == (0.05, 0.92)
        assert specs[2].shape.radius == 0.025
        assert specs[3].shape.height == round_sig(0.92 * 15.0 / 22.0, 2)

    def test_sn2_density_gap_to_the_campaign(self, starling):
        # The campaign's SN2 is 34 % denser than its SN1. The default pure-infill pair is
        # 167 % apart; a shell fraction of 0.369 brings the pair to the campaign's ratio.
        sn1, sn2 = generate_projectile_set(starling)[:2]
        assert sn1.shell_fraction == sn2.shell_fraction == 0.0
        assert (sn1.effective_density, sn2.effective_density) == (156.0, 416.0)
        assert round(sn2.effective_density / sn1.effective_density - 1.0, 4) == 1.6667
        sn1, sn2 = generate_projectile_set(starling, shell_fraction=0.369)[:2]
        assert sn1.shell_fraction == sn2.shell_fraction == 0.369
        assert (round(sn1.effective_density, 3), round(sn2.effective_density, 3)) == (
            482.196, 646.256)
        assert round(sn2.effective_density / sn1.effective_density, 4) == 1.3402


class TestGeometryFiles:
    def test_invalid_path_raises(self, projectile_set, tmp_path):
        with pytest.raises(OSError):
            export_geometry(projectile_set[0], tmp_path / "missing_dir" / "x.json")


class TestProjectileSpecInvariants:
    def test_zero_mass_zero_density_allowed(self):
        shape = Cylinder(0.01, 0.22)
        spec = ProjectileSpec(1, shape, 1040.0, 0.0, 0.0, "hollow")
        assert spec.effective_density == spec.mass == 0.0

    def test_replace_recomputes_the_mass(self, projectile_set):
        denser = projectile_set[0]._replace(infill_fraction=0.4)
        assert denser.effective_density == 416.0
        assert denser.mass == 416.0 * projectile_set[0].shape.volume()
        assert "mass" not in denser._asdict() and "effective_density" not in denser._asdict()
        assert ProjectileSpec._fields == ("serial", "shape", "solid_material_density",
                                          "infill_fraction", "shell_fraction", "varying_factor")

    @pytest.mark.parametrize("density, mass", [(156.0, "inf"), (0.0, "nan")])
    def test_mass_beyond_float_range_rejected(self, density, mass):
        with pytest.raises(InvalidParameterError, match=f"^mass must be >= 0, got {mass}$"):
            ProjectileSpec(1, Cylinder(1e200, 1e200), 1040.0, density / 1040.0, 0.0, "x")

    @pytest.mark.parametrize("shape", ["x", None, 0.02, (0.02, 0.22)], ids=repr)
    def test_shape_that_is_no_cylinder_or_ellipsoid_rejected(self, shape):
        with pytest.raises(InvalidParameterError) as caught:
            ProjectileSpec(1, shape, 1040.0, 0.15, 0.0, "x")
        assert str(caught.value) == f"shape must be a Cylinder or Ellipsoid, got {shape!r}"


def test_generate_set_respects_custom_solid_density():
    bird = BirdSpecies("Test Bird", 0.085, 0.22, 1230.0, 22.35)
    specs = generate_projectile_set(bird, solid_density=2000.0)
    assert specs[0].effective_density == pytest.approx(300.0, rel=1e-12)
    assert specs[1].effective_density == pytest.approx(800.0, rel=1e-12)
