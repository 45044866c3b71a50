"""Bird species records and the species registry CSV format.

All quantities are SI: kilograms, metres, kg/m^3, m/s.
"""

import warnings

from ._record import NON_NEGATIVE, POSITIVE, Record, find_named

# Body densities outside this band are suspicious for real birds but not
# fatal: constructing such a record warns and keeps it, so exotic test
# inputs stay usable.
PLAUSIBLE_BODY_DENSITY = (500.0, 2000.0)  # kg/m^3

_SPECIES_COLUMNS = (("name", str.strip), ("mass_kg", float), ("length_m", float),
                    ("density_kg_m3", float), ("flight_speed_m_s", float))

_BUNDLED_SPECIES = (
    # name, mass, length, body density, flight speed
    ("Common Grackle", 0.11, 0.31, 1130.0, 13.41),
    ("Starling", 0.085, 0.22, 1230.0, 22.35),
    ("House Sparrow", 0.028, 0.16, 1140.0, 12.77),
    ("Mallard", 1.1, 0.57, 683.0, 29.06),
    ("Turkey Vulture", 2.0, 0.72, 982.0, 26.82),
    ("Laughing Gull", 0.32, 0.43, 592.0, 6.7),
    ("Bald Eagle", 5.6, 0.9, 550.0, 20.12),
    ("Canada Goose", 5.0, 0.92, 692.0, 17.88),
    ("Rock Dove", 0.36, 0.33, 868.0, 36.11),
    ("Ring-billed Gull", 0.52, 0.48, 862.0, 17.88),
    ("Herring Gull", 1.15, 0.66, 616.0, 17.88),
)


class BirdSpecies(Record):
    """Physical parameters of one bird species."""

    name: str
    mass: float          # kg
    length: float        # m
    body_density: float  # kg/m^3
    flight_speed: float  # m/s
    _ranges = dict(mass=POSITIVE, length=POSITIVE, body_density=POSITIVE,
                   flight_speed=NON_NEGATIVE)

    def __post_init__(self) -> None:
        lo, hi = PLAUSIBLE_BODY_DENSITY
        if not lo <= self.body_density <= hi:
            warnings.warn(
                f"{self.name or 'species'}: body_density {self.body_density} kg/m^3 "
                f"outside plausible range [{lo:g}, {hi:g}]",
                stacklevel=3,  # past __post_init__ and __init__ to the caller
            )


def load_species_registry(path) -> list[BirdSpecies]:
    """Load species records from a CSV file with the columns
    name,mass_kg,length_m,density_kg_m3,flight_speed_m_s.

    An empty file yields an empty registry. Duplicate names, malformed numbers
    and invariant violations raise ParseError naming the offending row.
    """
    from ._table import read_named
    return read_named(path, _SPECIES_COLUMNS, BirdSpecies, "species")


def bundled_species_registry() -> list[BirdSpecies]:
    """The 11 bundled species, as fresh records built from the constant table _BUNDLED_SPECIES."""
    return [BirdSpecies(*row) for row in _BUNDLED_SPECIES]


def find_species(registry: list[BirdSpecies], name: str) -> BirdSpecies:
    """Look a species up by name (exact match first, then case-insensitive)."""
    return find_named(registry, name, "species")
