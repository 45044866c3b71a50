"""Bird-strike impact force modelling and drop-weight test engineering toolkit."""

from .errors import (
    BirdstrikeError,
    InvalidParameterError,
    ParseError,
    StationaryAircraftError,
)
from .harness import (
    ConformanceReport,
    MeasurementSet,
    ScenarioConformance,
    TestMatrix,
    TestScenario,
    VelocitySplit,
    analyze,
    build_test_matrix,
    conformance_report,
    ingest_measurements,
    matrix_to_json,
    nominal_velocity_mismatches,
    percent_error,
    read_matrix,
    render_report_csv,
    render_report_json,
    scenario_stats,
    theoretical_reference,
)
from .impact import (
    CertificationLimits,
    CertificationVerdict,
    ImpactResult,
    ImpactScenario,
    SensitivityRow,
    check_certification,
    impact_force,
    impact_force_stationary,
    scale_scenario,
    sensitivity_table,
)
from .kinematics import (
    DragParams,
    DropPlan,
    GRAVITY_PRESETS,
    GRAVITY_STANDARD,
    PUBLISHED_PLANS,
    drag_fall_distance,
    fall_time_for_drop,
    ideal_impact_velocity,
    impact_velocity_from_drop,
    impact_velocity_from_timing,
    make_drop_plan,
    plan_flags,
    required_drop_height,
    terminal_velocity,
)
from .materials import (
    CRUISE_SPEED,
    MaterialSpec,
    builtin_materials,
    find_material,
    load_materials,
)
from .projectile import (
    Cylinder,
    Ellipsoid,
    ProjectileSpec,
    cylinder_radius_for,
    effective_density,
    export_geometry,
    generate_projectile_set,
    round_sig,
)
from .species import (
    BirdSpecies,
    bundled_species_registry,
    find_species,
    load_species_registry,
)

__version__ = "0.1.0"
