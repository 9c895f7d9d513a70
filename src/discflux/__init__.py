"""Conservation laws with a flux that switches branches at x = 0.

The package covers the full pipeline: sampled flux pairs, admissibility
transforms (crossing checks, connections, constructive builders), a monotone
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
    get_flux,
    registry_names,
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
)
from .runio import load_transform_csv, read_run, save_transform_csv, write_run

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
    "composed_fluxes",
    "default_test_functions",
    "entropy_residual_connection",
    "entropy_residual_pair",
    "entropy_residual_side",
    "extract_traces",
    "get_flux",
    "identity_transform",
    "is_connection",
    "l1_distances",
    "ladder",
    "load_transform_csv",
    "ordering_preserved",
    "read_run",
    "registry_names",
    "save_transform_csv",
    "solve",
    "steady_connection_state",
    "verify_transform",
    "write_run",
]
