"""Surrogate bird projectile sizing and the five-projectile drop-test set.

A bird is replaced by a 3D-printed body of matching mass, length and density.
Cylinder sizing inverts V = pi*r^2*l = m/rho into r = sqrt(m/(rho*pi*l)); the
printed density is controlled through the infill fraction.
"""

import math

from ._record import POSITIVE, TEXT, Record
from .errors import InvalidParameterError, require
from .species import BirdSpecies

ABS_FILAMENT_DENSITY = 1040.0  # kg/m^3, solid printed ABS
BASELINE_INFILL = 0.15         # printer preset: minimum infill
DENSE_INFILL = 0.40            # printer preset: maximum infill
RADIUS_VARIANT_SCALE = 0.5
LENGTH_VARIANT_SCALE = 15.0 / 22.0  # shortens the 0.22 m reference bird to 0.15 m
DIMENSION_SIG_FIGS = 2         # manufacturing resolution of the projectile set


def round_sig(value: float, digits: int) -> float:
    """Round to `digits` significant figures, halves away from zero; raise past float range.
    A non-float value passes errors.require first; 0, nan and inf are returned unchanged."""
    require("digits", digits, 1, integer=True)
    if value.__class__ is not float:
        require("value", value, -math.inf)
        value = float(value)
    if not math.isfinite(value):
        return value
    # repr's digits, n * 10**e, rounded half up in integers: float() of a decimal string is
    # correctly rounded, as float(Decimal) is, so decimal (2 ms to import) is not needed.
    mantissa, _, exponent = repr(abs(value)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    n, e = int(whole + fraction), int(exponent or 0) - len(fraction)
    drop = max(len(str(n)) - digits, 0)
    unit = 10 ** drop
    n, e = (n + unit // 2) // unit, e + drop
    rounded = math.copysign(float(f"{n}e{e}"), value)
    if math.isinf(rounded):
        raise InvalidParameterError(f"{value!r} rounded to {digits} significant digits overflows")
    return rounded


def cylinder_radius_for(mass: float, body_density: float, length: float) -> float:
    """Radius of the cylinder with the given mass, density and length, if finite and > 0."""
    require("mass", mass, above=True)
    require("body_density", body_density, above=True)
    require("length", length, above=True)
    denominator = body_density * math.pi * length  # 0 if the product underflows
    radius = math.sqrt(mass / denominator) if denominator else math.inf
    if not 0.0 < radius < math.inf:
        raise InvalidParameterError(f"mass {mass!r}, body_density {body_density!r} and length "
                                    f"{length!r} give no finite cylinder radius > 0")
    return radius


def effective_density(
    solid_density: float, infill_fraction: float, shell_fraction: float = 0.0
) -> float:
    """Printed-part density: solid shell plus partially filled interior.

    shell_fraction is the volume fraction printed solid regardless of infill;
    0 (the default) is the pure-infill model.
    """
    if not (solid_density.__class__ is float and 0.0 < solid_density < math.inf  # guard rule
            and infill_fraction.__class__ is float and 0.0 <= infill_fraction <= 1.0
            and shell_fraction.__class__ is float and 0.0 <= shell_fraction <= 1.0):
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
    """One manufactured surrogate projectile; its density and mass are derived, not stored."""

    serial: int
    shape: Shape
    solid_material_density: float  # kg/m^3
    infill_fraction: float
    shell_fraction: float
    varying_factor: str
    _ranges = dict(varying_factor=TEXT, serial=(1, math.inf, False),
                   solid_material_density=POSITIVE, infill_fraction=(0.0, 1.0, False),
                   shell_fraction=(0.0, 1.0, False))

    def __post_init__(self) -> None:
        if not isinstance(self.shape, Shape):
            raise InvalidParameterError(
                f"shape must be a Cylinder or Ellipsoid, got {self.shape!r}")
        mass = self.mass
        if not mass < math.inf:  # inf, or nan from 0 * inf
            require("mass", mass)

    @property
    def effective_density(self) -> float:  # kg/m^3
        return effective_density(self.solid_material_density, self.infill_fraction,
                                 self.shell_fraction)

    @property
    def mass(self) -> float:
        """kg: effective density times the shape's volume."""
        return self.effective_density * self.shape.volume()


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
    effective_density(solid_density, 0.0, shell_fraction)  # checks both, by these names
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
    return [ProjectileSpec(serial, shape, solid_density, infill, shell_fraction, label)
            for serial, shape, infill, label in rows]


def geometry_payload(spec: ProjectileSpec) -> dict:
    """Plain-dict form of a projectile descriptor (the JSON file schema), in file order."""
    return {"serial": spec.serial, "shape": type(spec.shape).__name__.lower(),
            "dims_m": spec.shape._asdict(), "infill_fraction": spec.infill_fraction,
            "solid_density_kg_m3": spec.solid_material_density,
            "effective_density_kg_m3": spec.effective_density, "mass_kg": spec.mass,
            "varying_factor": spec.varying_factor}


def export_geometry(spec: ProjectileSpec, path) -> None:
    """Write a projectile descriptor JSON file. Descriptors are write-only: the
    package never reads one back."""
    from ._table import render_json
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_json(geometry_payload(spec)))
