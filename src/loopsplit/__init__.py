"""loopsplit: truncated loop-group factorizations and their surface geometry.

Numerical kernels for matrix Laurent polynomials on the circle: Birkhoff and
tau-Iwasawa factorizations, splitting and merging of limited-connection-order
frame fields, dressing, and the pipeline producing constant-curvature
immersions into spheres and hyperbolic spaces.
"""

from .errors import (
    BigCellViolation,
    ConfigError,
    DegenerateLambda,
    DimensionMismatch,
    IntegrabilityViolation,
    LoopsplitError,
    NonRealFrame,
    NotInIwasawaCell,
    ParseError,
    SingularLoop,
    ValidationError,
    ZeroLambda,
)
from .loops import (
    GroupSpec,
    LaurentLoop,
    constant,
    distance,
    from_terms,
    group_residual,
    identity,
    loop_exp,
    mul,
    truncated_inverse,
    zero_loop,
)
from .symmetry import (
    SymmetrySpec,
    apply_involution,
    apply_reality,
    apply_sigma,
    apply_tau,
    fixed_residual,
    phi_map,
)
from .factorization import (
    BirkhoffResult,
    IwasawaResult,
    birkhoff_left,
    birkhoff_right,
    default_window,
    solve_constant_tau,
    tau_iwasawa,
    tau_iwasawa_minus,
)
from .fields import (
    ConnectionForm,
    FrameField,
    Grid2D,
    Potential,
    connection_order,
    dress_minus,
    dress_pair,
    dress_plus,
    field_distance,
    gauge_parallel,
    integrate_basic_pair,
    integrate_potential,
    maurer_cartan,
    mc_residual,
    merge,
    split,
    tau_merge,
)
from .spaceforms import (
    ExtendedConnectionSpec,
    ImmersionGrid,
    assemble_connection,
    classify_curvature,
    correspondence_route,
    curvature_c,
    example_flat_target,
    example_sphere_family,
    example_sphere_field,
    example_sphere_frame,
    extract_immersion,
    flat_to_nonflat,
    nonflat_to_flat,
    validate_adapted,
)
from .config import RunConfig, default_config, parse_config, parse_lambda

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
