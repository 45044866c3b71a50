import hashlib
import math
import warnings

import pytest

from birdstrike._table import render_csv
from birdstrike.errors import InvalidParameterError, ParseError
from birdstrike.impact import ImpactScenario, impact_force
from birdstrike.materials import (
    builtin_materials,
    find_material,
    load_materials,
)
from birdstrike.species import (
    BirdSpecies,
    bundled_species_registry,
    find_species,
    load_species_registry,
)

HEADER = "name,mass_kg,length_m,density_kg_m3,flight_speed_m_s"
# The bundled species in the registry CSV format: every value of every row is pinned.
BUNDLED_CSV_SHA256 = "98e09d3d9546a15a743cf9abef11d45b054ea91b39319f0529fd57f2783c4b9e"


def write_csv(tmp_path, *lines):
    path = tmp_path / "species.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_example_row(tmp_path):
    path = write_csv(tmp_path, HEADER, "Starling,0.085,0.22,1230,22.35")
    registry = load_species_registry(path)
    assert len(registry) == 1
    bird = registry[0]
    assert bird.name == "Starling"
    assert bird.mass == 0.085
    assert bird.length == 0.22
    assert bird.body_density == 1230.0
    assert bird.flight_speed == 22.35


def test_empty_file_yields_empty_registry(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    assert load_species_registry(path) == []


def test_header_only_yields_empty_registry(tmp_path):
    path = write_csv(tmp_path, HEADER)
    assert load_species_registry(path) == []


def test_negative_mass_rejected_with_row(tmp_path):
    path = write_csv(tmp_path, HEADER, "Starling,-1,0.22,1230,22.35")
    with pytest.raises(ParseError, match=r"row 2.*mass"):
        load_species_registry(path)


def test_duplicate_names_rejected(tmp_path):
    path = write_csv(
        tmp_path,
        HEADER,
        "Starling,0.085,0.22,1230,22.35",
        "Starling,0.09,0.23,1200,20",
    )
    with pytest.raises(ParseError, match=r"row 3.*duplicate"):
        load_species_registry(path)


def test_wrong_header_rejected(tmp_path):
    path = write_csv(tmp_path, "name,mass,len,rho,v", "Starling,0.085,0.22,1230,22.35")
    with pytest.raises(ParseError, match="header"):
        load_species_registry(path)


def test_non_numeric_cell_names_row_and_column(tmp_path):
    path = write_csv(tmp_path, HEADER, "Starling,0.085,heavy,1230,22.35")
    with pytest.raises(ParseError, match=r"row 2, column length_m"):
        load_species_registry(path)


def test_wrong_column_count_rejected(tmp_path):
    path = write_csv(tmp_path, HEADER, "Starling,0.085,0.22,1230")
    with pytest.raises(ParseError, match=r"row 2.*columns"):
        load_species_registry(path)


def test_implausible_density_warns_but_loads():
    with pytest.warns(UserWarning, match="outside plausible range"):
        bird = BirdSpecies("Balloon Bird", 0.1, 0.2, 50.0, 10.0)
    assert bird.body_density == 50.0
    with pytest.warns(UserWarning, match="outside plausible range"):
        BirdSpecies("Lead Bird", 0.1, 0.2, 5000.0, 10.0)


@pytest.mark.parametrize("density, warns", [
    (500.0, False), (2000.0, False),
    (math.nextafter(500.0, 0.0), True), (math.nextafter(2000.0, math.inf), True),
])
def test_plausible_density_band_edges(density, warns):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        BirdSpecies("Edge Bird", 0.1, 0.2, density, 10.0)
    assert [str(w.message) for w in caught] == (
        [f"Edge Bird: body_density {density} kg/m^3 outside plausible range [500, 2000]"]
        if warns else [])


def test_implausible_density_warning_names_the_caller():
    with pytest.warns(UserWarning, match="outside plausible range") as caught:
        BirdSpecies("Lead Bird", 0.1, 0.2, 5000.0, 10.0)
    assert caught[0].filename == __file__


def test_invariants_enforced():
    with pytest.raises(InvalidParameterError, match="length"):
        BirdSpecies("X", 0.1, 0.0, 1000.0, 10.0)
    with pytest.raises(InvalidParameterError, match="flight_speed"):
        BirdSpecies("X", 0.1, 0.2, 1000.0, -1.0)


def test_bundled_registry_is_clean():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        registry = bundled_species_registry()
    assert len(registry) == 11
    starling = find_species(registry, "Starling")
    assert starling.mass == 0.085
    assert starling.length == 0.22
    assert starling.body_density == 1230.0
    assert starling.flight_speed == 22.35


def test_bundled_table_reads_back_from_the_registry_format(tmp_path):
    bundled = bundled_species_registry()
    path = tmp_path / "species.csv"
    rows = [HEADER.split(","), *(bird._asdict().values() for bird in bundled)]
    path.write_text(render_csv(rows), encoding="utf-8")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BUNDLED_CSV_SHA256
    assert load_species_registry(path) == bundled
    assert len({bird.name for bird in bundled}) == 11
    assert all(value.__class__ is float for bird in bundled
               for value in (bird.mass, bird.length, bird.body_density, bird.flight_speed))


def test_every_bundled_species_gives_finite_positive_force(registry):
    # standard scenario: species at its flight speed vs 90 m/s cruise, head-on
    for bird in registry:
        result = impact_force(
            ImpactScenario(
                bird_mass=bird.mass,
                bird_length=bird.length,
                bird_density=bird.body_density,
                bird_speed=bird.flight_speed,
                aircraft_speed=90.0,
                aircraft_density=2780.0,
                impact_angle=90.0,
            )
        )
        assert math.isfinite(result.force)
        assert result.force > 0


def test_find_species_case_insensitive(registry):
    assert find_species(registry, "starling").name == "Starling"
    with pytest.raises(InvalidParameterError):
        find_species(registry, "Dodo")


@pytest.mark.parametrize("find, kind", [(find_species, "species"), (find_material, "material")])
@pytest.mark.parametrize("name", [5, None, b"CFRP", ("Starling",)])
def test_lookup_by_non_string_name_rejected(registry, find, kind, name):
    items = registry if kind == "species" else builtin_materials()
    with pytest.raises(InvalidParameterError, match=f"^{kind} name must be a string, got "):
        find(items, name)


def test_builtin_materials():
    materials = builtin_materials()
    aluminium = find_material(materials, "Aluminium-2024-T3")
    cfrp = find_material(materials, "CFRP")
    assert cfrp.density / aluminium.density == pytest.approx(0.42, rel=1e-12)
    assert all(material.density > 0 for material in materials)


def test_materials_override_loader(tmp_path):
    path = tmp_path / "materials.csv"
    path.write_text("name,density_kg_m3\nTitanium,4430\n", encoding="utf-8")
    materials = load_materials(path)
    assert len(materials) == 1
    assert materials[0].name == "Titanium"
    assert materials[0].density == 4430.0


def test_materials_loader_rejects_duplicate_names(tmp_path):
    path = tmp_path / "materials.csv"
    path.write_text("name,density_kg_m3\nCFRP,1168\nTitanium,4430\nCFRP,2780\n",
                    encoding="utf-8")
    with pytest.raises(ParseError, match=r"row 4: duplicate material name 'CFRP'$"):
        load_materials(path)


def test_materials_loader_rejects_bad_rows(tmp_path):
    path = tmp_path / "materials.csv"
    path.write_text("name,density_kg_m3\nFoam,-3\n", encoding="utf-8")
    with pytest.raises(ParseError, match="row 2"):
        load_materials(path)
