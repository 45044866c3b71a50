"""Surrogate bird projectile sizing and the five-projectile drop-test set.

A bird is replaced by a 3D-printed body of matching mass, length and density.
Cylinder sizing inverts V = pi*r^2*l = m/rho into r = sqrt(m/(rho*pi*l)); the
printed density is controlled through the infill fraction.
"""

from __future__ import annotations

import json
import math

from ._record import NON_NEGATIVE, POSITIVE, TEXT, Record
from ._table import read_json
from .errors import InvalidParameterError, require
from .species import BirdSpecies

ABS_FILAMENT_DENSITY = 1040.0  # kg/m^3, solid printed ABS
BASELINE_INFILL = 0.15         # printer preset: minimum infill
DENSE_INFILL = 0.40            # printer preset: maximum infill
RADIUS_VARIANT_SCALE = 0.5
LENGTH_VARIANT_SCALE = 15.0 / 22.0  # shortens the 0.22 m reference bird to 0.15 m
DIMENSION_SIG_FIGS = 2         # manufacturing resolution of the projectile set


def round_sig(value: float, digits: int) -> float:
    """Round to `digits` significant figures, halves away from zero."""
    require("digits", digits, 1, integer=True)
    if value == 0 or not math.isfinite(value):
        return value
    # imported here, not at module level: decimal (with numbers) takes about 2 ms
    # to import, which every CLI command would pay at start-up
    from decimal import ROUND_HALF_UP, Decimal

    quantum = Decimal(1).scaleb(int(math.floor(math.log10(abs(value)))) - digits + 1)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def cylinder_radius_for(mass: float, body_density: float, length: float) -> float:
    """Radius of the cylinder with the given mass, density and length."""
    require("mass", mass, above=True)
    require("body_density", body_density, above=True)
    require("length", length, above=True)
    return math.sqrt(mass / (body_density * math.pi * length))


def effective_density(
    solid_density: float, infill_fraction: float, shell_fraction: float = 0.0
) -> float:
    """Printed-part density: solid shell plus partially filled interior.

    shell_fraction is the volume fraction printed solid regardless of infill;
    0 (the default) is the pure-infill model.
    """
    require("solid_density", solid_density, above=True)
    require("infill_fraction", infill_fraction, 0.0, 1.0)
    require("shell_fraction", shell_fraction, 0.0, 1.0)
    return solid_density * (shell_fraction + (1.0 - shell_fraction) * infill_fraction)


class Cylinder(Record):
    radius: float  # m
    height: float  # m
    _ranges = dict(radius=POSITIVE, height=POSITIVE)

    def volume(self) -> float:
        return math.pi * self.radius * self.radius * self.height

    @property
    def length(self) -> float:
        """Axial extent presented to the specimen."""
        return self.height


class Ellipsoid(Record):
    a: float  # m, semi-axis along the fall direction
    b: float  # m
    c: float  # m
    _ranges = dict(a=POSITIVE, b=POSITIVE, c=POSITIVE)

    def volume(self) -> float:
        return (4.0 / 3.0) * math.pi * self.a * self.b * self.c

    @property
    def length(self) -> float:
        return 2.0 * self.a


Shape = Cylinder | Ellipsoid


class ProjectileSpec(Record):
    """One manufactured surrogate projectile."""

    serial: int
    shape: Shape
    solid_material_density: float  # kg/m^3
    infill_fraction: float
    effective_density: float       # kg/m^3
    mass: float                    # kg
    varying_factor: str
    _ranges = dict(varying_factor=TEXT, serial=(1, math.inf, False),
                   solid_material_density=POSITIVE, infill_fraction=(0.0, 1.0, False),
                   effective_density=NON_NEGATIVE, mass=NON_NEGATIVE)

    def __post_init__(self) -> None:
        expected = self.effective_density * self.shape.volume()
        if abs(self.mass - expected) > 1e-9 * max(abs(expected), 1e-300):
            raise InvalidParameterError(
                f"mass {self.mass} does not equal effective_density * volume ({expected})"
            )


def generate_projectile_set(
    base: BirdSpecies,
    solid_density: float = ABS_FILAMENT_DENSITY,
    shell_fraction: float = 0.0,
) -> list[ProjectileSpec]:
    """The five-projectile set that varies one bird parameter at a time.

    SN1 is the base cylinder sized from the species (dimensions rounded to
    manufacturing resolution); SN2 raises the infill, SN3 halves the radius,
    SN4 shortens the length, SN5 is the ellipsoid inscribed in the base
    cylinder. Serials and varying-factor labels match the manufactured set.
    """
    radius = round_sig(
        cylinder_radius_for(base.mass, base.body_density, base.length), DIMENSION_SIG_FIGS
    )
    height = round_sig(base.length, DIMENSION_SIG_FIGS)
    short = round_sig(height * LENGTH_VARIANT_SCALE, DIMENSION_SIG_FIGS)
    rows = (  # serial, shape, infill, varying-factor label
        (1, Cylinder(radius, height), BASELINE_INFILL, "Base model"),
        (2, Cylinder(radius, height), DENSE_INFILL, "Bird density & bird mass (Infill)"),
        (3, Cylinder(radius * RADIUS_VARIANT_SCALE, height), BASELINE_INFILL,
         "Bird radius (& bird mass)"),
        (4, Cylinder(radius, short), BASELINE_INFILL, "Bird length (& bird mass)"),
        (5, Ellipsoid(height / 2.0, radius, radius), BASELINE_INFILL, "Bird shape"),
    )
    specs = []
    for serial, shape, infill, label in rows:
        density = effective_density(solid_density, infill, shell_fraction)
        specs.append(ProjectileSpec(serial, shape, solid_density, infill,
                                    density, density * shape.volume(), label))
    return specs


# The descriptor JSON file format: each "shape" name and its record, whose fields are the
# "dims_m" keys; then each other ProjectileSpec field and its key, in file order, with
# "shape" and "dims_m" after the first.
_SHAPES = {"cylinder": Cylinder, "ellipsoid": Ellipsoid}
_DESCRIPTOR_KEYS = dict(serial="serial", infill_fraction="infill_fraction",
                        solid_material_density="solid_density_kg_m3",
                        effective_density="effective_density_kg_m3", mass="mass_kg",
                        varying_factor="varying_factor")


def geometry_payload(spec: ProjectileSpec) -> dict:
    """Plain-dict form of a projectile descriptor (the JSON file schema)."""
    shape_name = next(name for name, shape in _SHAPES.items() if isinstance(spec.shape, shape))
    first, *rest = ((key, getattr(spec, field)) for field, key in _DESCRIPTOR_KEYS.items())
    return dict([first, ("shape", shape_name), ("dims_m", spec.shape._asdict()), *rest])


def export_geometry(spec: ProjectileSpec, path) -> None:
    """Write a projectile descriptor JSON; load_geometry reads it back exactly."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(geometry_payload(spec), handle, indent=2)
        handle.write("\n")


def load_geometry(path) -> ProjectileSpec:
    """Read a projectile descriptor written by export_geometry."""
    def build(payload) -> ProjectileSpec:
        shape_name = payload["shape"]
        dims = payload["dims_m"]
        if not isinstance(shape_name, str) or shape_name not in _SHAPES:
            raise InvalidParameterError(f"unknown shape {shape_name!r}")
        shape = _SHAPES[shape_name](*[dims[key] for key in _SHAPES[shape_name]._fields])
        # the keys are read in field order, which is not file order
        return ProjectileSpec(shape=shape, **{field: payload[_DESCRIPTOR_KEYS[field]]
                                              for field in ProjectileSpec._fields
                                              if field in _DESCRIPTOR_KEYS})

    return read_json(path, build)
