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


@pytest.mark.parametrize("load, text, message", [
    (load_species_registry, f"{HEADER}\nStarling,-1,0.22,1230,22.35\n",
     "row 2: mass must be > 0, got -1.0 (Starling)"),
    (load_species_registry,
     f"{HEADER}\nStarling,0.085,0.22,1230,22.35\nStarling,0.09,0.23,1200,20\n",
     "row 3: duplicate species name 'Starling'"),
    (load_materials, "name,density_kg_m3\nFoam,-3\n", "row 2: density must be > 0, got -3.0 (Foam)"),
    (load_materials, "name,density_kg_m3\nCFRP,1168\nTitanium,4430\nCFRP,2780\n",
     "row 4: duplicate material name 'CFRP'"),
], ids=["species-mass", "species-duplicate", "materials-density", "materials-duplicate"])
def test_read_named_blames_the_row(tmp_path, load, text, message):
    path = tmp_path / "named.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        load(path)
    assert str(caught.value) == f"{path}: {message}"


@pytest.mark.parametrize("density, warns", [
    (500.0, False), (2000.0, False),
    (math.nextafter(500.0, 0.0), True), (math.nextafter(2000.0, math.inf), True),
])
def test_plausible_density_band_edges(density, warns):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bird = BirdSpecies("Edge Bird", 0.1, 0.2, density, 10.0)
    assert bird.body_density == density  # a warned record is kept as given
    assert [str(w.message) for w in caught] == (
        [f"Edge Bird: body_density {density} kg/m^3 outside plausible range [500, 2000]"]
        if warns else [])


def test_implausible_density_warning_names_the_caller():
    with pytest.warns(UserWarning, match="outside plausible range") as caught:
        BirdSpecies("Lead Bird", 0.1, 0.2, 5000.0, 10.0)
    assert caught[0].filename == __file__


def test_bundled_table_reads_back_from_the_registry_format(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no bundled body density is outside the plausible band
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
