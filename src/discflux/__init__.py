"""Conservation laws with a flux that switches branches at x = 0.

The package covers the full pipeline: sampled flux pairs, admissibility
transforms (crossing checks, connections, constructive builders), a viscous
finite-volume solver in the relabelled variable, exact Riemann references for
a single branch, entropy-residual diagnostics, and run persistence.
"""

from .curves import MonotoneBijection, SampledCurve
from .errors import (
    CompositionError,
    ConstructionError,
    CoverageError,
    DiscFluxError,
    DomainError,
    StabilityError,
)
from .fluxes import (
    FluxPair,
    clip_flux,
    compose_flux,
    find_local_maxima,
    get_flux,
    load_flux_csv,
    registry_names,
    save_flux_csv,
)
from .transforms import (
    Connection,
    CrossingReport,
    TransformPair,
    build_connection_transform,
    build_translation_transform,
    check_crossing,
    composed_fluxes,
    identity_transform,
    is_connection,
    verify_transform,
)
from .riemann import Wave, classical_riemann, steady_connection_state
from .solver import (
    SolutionField,
    SolverConfig,
    ladder,
    mollify_initial,
    reconstruct_u,
    smooth_heaviside,
    solve,
)
from .diagnostics import (
    HatFunction,
    SpaceTimeHat,
    bounds_report,
    ladder_bounds,
    default_test_functions,
    entropy_residual_connection,
    entropy_residual_pair,
    entropy_residual_side,
    extract_traces,
    l1_distances,
    ordering_preserved,
    sgn,
)
from .runio import config_hash, load_transform_csv, read_run, save_transform_csv, write_run

__version__ = "0.1.0"

__all__ = [
    "CompositionError",
    "Connection",
    "ConstructionError",
    "CoverageError",
    "CrossingReport",
    "DiscFluxError",
    "DomainError",
    "FluxPair",
    "HatFunction",
    "MonotoneBijection",
    "SampledCurve",
    "SolutionField",
    "SolverConfig",
    "SpaceTimeHat",
    "StabilityError",
    "TransformPair",
    "Wave",
    "bounds_report",
    "ladder_bounds",
    "build_connection_transform",
    "build_translation_transform",
    "check_crossing",
    "classical_riemann",
    "clip_flux",
    "compose_flux",
    "composed_fluxes",
    "config_hash",
    "default_test_functions",
    "entropy_residual_connection",
    "entropy_residual_pair",
    "entropy_residual_side",
    "extract_traces",
    "find_local_maxima",
    "get_flux",
    "identity_transform",
    "is_connection",
    "l1_distances",
    "ladder",
    "load_flux_csv",
    "load_transform_csv",
    "mollify_initial",
    "ordering_preserved",
    "read_run",
    "reconstruct_u",
    "registry_names",
    "save_flux_csv",
    "save_transform_csv",
    "sgn",
    "smooth_heaviside",
    "solve",
    "steady_connection_state",
    "verify_transform",
    "write_run",
]
