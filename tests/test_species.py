import math
import warnings

import pytest

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
    with pytest.raises(KeyError):
        find_species(registry, "Dodo")


def test_builtin_materials():
    materials = builtin_materials()
    aluminium = find_material(materials, "Aluminium-2024-T3")
    cfrp = find_material(materials, "CFRP")
    assert aluminium.thickness == 0.002
    assert cfrp.thickness == 0.002
    assert cfrp.density / aluminium.density == pytest.approx(0.42, rel=1e-12)
    assert all(material.density > 0 for material in materials)


def test_materials_override_loader(tmp_path):
    path = tmp_path / "materials.csv"
    path.write_text(
        "name,density_kg_m3,thickness_m\nTitanium,4430,0.0015\n", encoding="utf-8"
    )
    materials = load_materials(path)
    assert len(materials) == 1
    assert materials[0].name == "Titanium"
    assert materials[0].density == 4430.0
    assert materials[0].thickness == 0.0015


def test_materials_loader_rejects_duplicate_names(tmp_path):
    path = tmp_path / "materials.csv"
    path.write_text("name,density_kg_m3,thickness_m\nCFRP,1168,0.002\nTitanium,4430,0.0015\n"
                    "CFRP,2780,0.002\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"row 4: duplicate material name 'CFRP'$"):
        load_materials(path)


def test_materials_loader_rejects_bad_rows(tmp_path):
    path = tmp_path / "materials.csv"
    path.write_text("name,density_kg_m3,thickness_m\nFoam,-3,0.002\n", encoding="utf-8")
    with pytest.raises(ParseError, match="row 2"):
        load_materials(path)
