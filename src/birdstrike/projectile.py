"""Surrogate bird projectile sizing and the five-projectile drop-test set.

A bird is replaced by a 3D-printed body of matching mass, length and density.
Cylinder sizing inverts V = pi*r^2*l = m/rho into r = sqrt(m/(rho*pi*l)); the
printed density is controlled through the infill fraction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
    require("digits", digits, 1)
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


@dataclass(frozen=True)
class Cylinder:
    radius: float  # m
    height: float  # m

    def __post_init__(self) -> None:
        require("radius", self.radius, above=True)
        require("height", self.height, above=True)

    def volume(self) -> float:
        return math.pi * self.radius * self.radius * self.height

    @property
    def length(self) -> float:
        """Axial extent presented to the specimen."""
        return self.height


@dataclass(frozen=True)
class Ellipsoid:
    a: float  # m, semi-axis along the fall direction
    b: float  # m
    c: float  # m

    def __post_init__(self) -> None:
        require("a", self.a, above=True)
        require("b", self.b, above=True)
        require("c", self.c, above=True)

    def volume(self) -> float:
        return (4.0 / 3.0) * math.pi * self.a * self.b * self.c

    @property
    def length(self) -> float:
        return 2.0 * self.a


Shape = Cylinder | Ellipsoid


@dataclass(frozen=True)
class ProjectileSpec:
    """One manufactured surrogate projectile."""

    serial: int
    shape: Shape
    solid_material_density: float  # kg/m^3
    infill_fraction: float
    effective_density: float       # kg/m^3
    mass: float                    # kg
    varying_factor: str

    def __post_init__(self) -> None:
        require("serial", self.serial, 1)
        require("solid_material_density", self.solid_material_density, above=True)
        require("infill_fraction", self.infill_fraction, 0.0, 1.0)
        require("effective_density", self.effective_density)
        require("mass", self.mass)
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

    def cylinder_spec(serial: int, r: float, h: float, infill: float, label: str) -> ProjectileSpec:
        density = effective_density(solid_density, infill, shell_fraction)
        shape = Cylinder(r, h)
        return ProjectileSpec(serial, shape, solid_density, infill,
                              density, density * shape.volume(), label)

    baseline_density = effective_density(solid_density, BASELINE_INFILL, shell_fraction)
    ellipsoid = Ellipsoid(height / 2.0, radius, radius)
    return [
        cylinder_spec(1, radius, height, BASELINE_INFILL, "Base model"),
        cylinder_spec(2, radius, height, DENSE_INFILL, "Bird density & bird mass (Infill)"),
        cylinder_spec(3, radius * RADIUS_VARIANT_SCALE, height, BASELINE_INFILL,
                      "Bird radius (& bird mass)"),
        cylinder_spec(4, radius, round_sig(height * LENGTH_VARIANT_SCALE, DIMENSION_SIG_FIGS),
                      BASELINE_INFILL, "Bird length (& bird mass)"),
        ProjectileSpec(5, ellipsoid, solid_density, BASELINE_INFILL, baseline_density,
                       baseline_density * ellipsoid.volume(), "Bird shape"),
    ]


def geometry_payload(spec: ProjectileSpec) -> dict:
    """Plain-dict form of a projectile descriptor (the JSON file schema)."""
    if isinstance(spec.shape, Cylinder):
        shape_name = "cylinder"
        dims = {"radius": spec.shape.radius, "height": spec.shape.height}
    else:
        shape_name = "ellipsoid"
        dims = {"a": spec.shape.a, "b": spec.shape.b, "c": spec.shape.c}
    return {
        "serial": spec.serial,
        "shape": shape_name,
        "dims_m": dims,
        "infill_fraction": spec.infill_fraction,
        "solid_density_kg_m3": spec.solid_material_density,
        "effective_density_kg_m3": spec.effective_density,
        "mass_kg": spec.mass,
        "varying_factor": spec.varying_factor,
    }


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
        if shape_name == "cylinder":
            shape: Shape = Cylinder(dims["radius"], dims["height"])
        elif shape_name == "ellipsoid":
            shape = Ellipsoid(dims["a"], dims["b"], dims["c"])
        else:
            raise InvalidParameterError(f"unknown shape {shape_name!r}")
        return ProjectileSpec(
            serial=payload["serial"],
            shape=shape,
            solid_material_density=payload["solid_density_kg_m3"],
            infill_fraction=payload["infill_fraction"],
            effective_density=payload["effective_density_kg_m3"],
            mass=payload["mass_kg"],
            varying_factor=payload["varying_factor"],
        )

    return read_json(path, build)
