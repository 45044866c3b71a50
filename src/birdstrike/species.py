"""Bird species records and the species registry CSV format.

All quantities are SI: kilograms, metres, kg/m^3, m/s.
"""

from __future__ import annotations

import warnings
from importlib import resources

from ._record import NON_NEGATIVE, POSITIVE, Record
from ._table import find_named, read_named

# Body densities outside this band are suspicious for real birds but not
# fatal: constructing such a record warns and keeps it, so exotic test
# inputs stay usable.
PLAUSIBLE_BODY_DENSITY = (500.0, 2000.0)  # kg/m^3

_SPECIES_COLUMNS = (("name", str.strip), ("mass_kg", float), ("length_m", float),
                    ("density_kg_m3", float), ("flight_speed_m_s", float))


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
    return read_named(path, _SPECIES_COLUMNS, BirdSpecies, "species")


def bundled_species_registry() -> list[BirdSpecies]:
    """The species set shipped with the package (11 species)."""
    ref = resources.files(__package__).joinpath("data/species.csv")
    with resources.as_file(ref) as path:
        return load_species_registry(path)


def find_species(registry: list[BirdSpecies], name: str) -> BirdSpecies:
    """Look a species up by name (exact match first, then case-insensitive)."""
    return find_named(registry, name, "species")
