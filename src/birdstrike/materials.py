"""Specimen (aircraft-skin) materials and aircraft parameters."""

from ._record import POSITIVE, Record, find_named

ALUMINIUM_DENSITY = 2780.0   # kg/m^3, 2024-T3 handbook value
CFRP_DENSITY_RATIO = 0.42    # CFRP sheet density relative to the aluminium specimen
CRUISE_SPEED = 90.0          # m/s (175 kt), mid-range air-taxi cruise speed

_MATERIALS_COLUMNS = (("name", str.strip), ("density_kg_m3", float))


class MaterialSpec(Record):
    name: str
    density: float  # kg/m^3
    _ranges = dict(density=POSITIVE)


ALUMINIUM_2024_T3 = MaterialSpec("Aluminium-2024-T3", ALUMINIUM_DENSITY)
CFRP = MaterialSpec("CFRP", CFRP_DENSITY_RATIO * ALUMINIUM_DENSITY)


def builtin_materials() -> list[MaterialSpec]:
    """The two stock specimen materials (aluminium sheet and CFRP sheet)."""
    return [ALUMINIUM_2024_T3, CFRP]


def load_materials(path) -> list[MaterialSpec]:
    """Load a materials override CSV (columns name,density_kg_m3); a duplicate
    name or an invalid value raises ParseError naming the row."""
    from ._table import read_named
    return read_named(path, _MATERIALS_COLUMNS, MaterialSpec, "material")


def find_material(materials: list[MaterialSpec], name: str) -> MaterialSpec:
    return find_named(materials, name, "material")
