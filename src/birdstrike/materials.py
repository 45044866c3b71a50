"""Specimen (aircraft-skin) materials and aircraft parameters."""

from __future__ import annotations

from ._record import POSITIVE, Record, find_named

ALUMINIUM_DENSITY = 2780.0   # kg/m^3, 2024-T3 handbook value
CFRP_DENSITY_RATIO = 0.42    # CFRP sheet density relative to the aluminium specimen
SPECIMEN_THICKNESS = 0.002   # m, representative air-taxi fuselage skin gauge
CRUISE_SPEED = 90.0          # m/s (175 kt), mid-range air-taxi cruise speed

_MATERIALS_COLUMNS = (("name", str.strip), ("density_kg_m3", float), ("thickness_m", float))


class MaterialSpec(Record):
    name: str
    density: float    # kg/m^3
    thickness: float  # m
    _ranges = dict(density=POSITIVE, thickness=POSITIVE)


ALUMINIUM_2024_T3 = MaterialSpec("Aluminium-2024-T3", ALUMINIUM_DENSITY, SPECIMEN_THICKNESS)
CFRP = MaterialSpec("CFRP", CFRP_DENSITY_RATIO * ALUMINIUM_DENSITY, SPECIMEN_THICKNESS)


def builtin_materials() -> list[MaterialSpec]:
    """The two stock specimen materials (aluminium sheet and CFRP sheet)."""
    return [ALUMINIUM_2024_T3, CFRP]


def load_materials(path) -> list[MaterialSpec]:
    """Load a materials override CSV (columns name,density_kg_m3,thickness_m); a
    duplicate name or an invalid value raises ParseError naming the row."""
    from ._table import read_named
    return read_named(path, _MATERIALS_COLUMNS, MaterialSpec, "material")


def find_material(materials: list[MaterialSpec], name: str) -> MaterialSpec:
    return find_named(materials, name, "material")
