"""Quasi-conformal retargeting of repelling cycle multipliers for
polynomial germs: charts, torus shears, invariant Beltrami fields, grid
straightening, and the arithmetic margin for small divisors."""

from .errors import (
    ChartError,
    ConfigError,
    ConvergenceError,
    DegenerateCycleError,
    DomainError,
    InsufficientDataError,
    ShearError,
    SingularDerivativeError,
    ToolkitError,
    UnreliableEstimateError,
)
from .germ import Germ, auto_radius
from .cycles import Cycle, classify, cycles_to_csv, find_cycles, multiplier_of
from .cycles import repelling_cycle, repelling_cycles
from .koenigs import KoenigsChart, build_chart, critical_points, phi_iterative
from .beltrami import (
    BeltramiField,
    FieldEntry,
    TorusShear,
    field_to_csv,
    pullback_by_holomorphic,
    shear_coefficient,
    tau_of,
    transport_forward,
)
from .local_deform import (
    LocalConjugacy,
    cauchy_cycle_derivative,
    holomorphy_residual,
    measure_multiplier,
)
from .numdiff import wirtinger_dbar, wirtinger_pair
from .straighten import (
    Box,
    DeformedGerm,
    Deformation,
    GridMap,
    box_for,
    build_field,
    global_deform,
    motion_sample,
    solve_beltrami,
)
from .cremer import (
    ContinuedFraction,
    cremer_margin,
    golden_quotients,
    growth_ratios,
    margin_rows_csv,
    pell_quotients,
    tower_quotients,
)
from .render import field_magnitude_raster, mesh_raster, to_ppm

__version__ = "0.1.0"

__all__ = [
    "Germ", "auto_radius",
    "Cycle", "classify", "cycles_to_csv", "find_cycles", "multiplier_of",
    "repelling_cycle", "repelling_cycles",
    "KoenigsChart", "build_chart", "critical_points", "phi_iterative",
    "BeltramiField", "FieldEntry", "TorusShear", "field_to_csv",
    "pullback_by_holomorphic", "shear_coefficient", "tau_of", "transport_forward",
    "LocalConjugacy", "cauchy_cycle_derivative", "holomorphy_residual", "measure_multiplier",
    "wirtinger_dbar", "wirtinger_pair",
    "Box", "DeformedGerm", "Deformation", "GridMap", "box_for", "build_field",
    "global_deform", "motion_sample", "solve_beltrami",
    "ContinuedFraction", "cremer_margin", "golden_quotients", "growth_ratios",
    "margin_rows_csv", "pell_quotients", "tower_quotients",
    "field_magnitude_raster", "mesh_raster", "to_ppm",
    "ToolkitError", "ConfigError", "DomainError", "ConvergenceError",
    "SingularDerivativeError", "DegenerateCycleError", "ChartError", "ShearError",
    "UnreliableEstimateError", "InsufficientDataError",
]
