"""Exact nearest-point projection onto the cross {(x, y) : <x, y> = 0}.

The package has four layers: dense vector primitives (:mod:`.linalg`),
the closed-form projection with its case classification and set-valued
degenerate family (:mod:`.projection`), independent verification oracles
(:mod:`.oracle`), and projection-splitting feasibility solvers for
complementarity-style constraints (:mod:`.solvers`).  A CLI front end
lives in :mod:`.cli` (console script ``crossproj``).
"""

__version__ = "0.1.0"

from .errors import (
    CaseError,
    DimensionMismatch,
    DivergenceError,
    DomainError,
    NotUnitNorm,
    SingularSystem,
)
from .linalg import (
    Pair,
    as_pair,
    as_vector,
    block_solve,
    inner,
    norm,
)
from .projection import (
    DEFAULT_TOLS,
    CaseTag,
    FamilyProjection,
    ProjectionResult,
    SingletonProjection,
    Tolerances,
    classify,
    family_samples,
    membership_residual,
    objective,
    project,
)
from .oracle import (
    CheckReport,
    OracleReport,
    check,
    lagrangian_oracle,
    subspace_oracle,
)
from .solvers import (
    AffinePairConstraint,
    BoxPairConstraint,
    FeasibilityProblem,
    OrthantPairConstraint,
    SolverTrace,
    alternating_projections,
    default_start,
    douglas_rachford,
    generate_instance,
    instance_from_dict,
    instance_to_dict,
)

__all__ = [
    "__version__",
    # errors
    "CaseError",
    "DimensionMismatch",
    "DivergenceError",
    "DomainError",
    "NotUnitNorm",
    "SingularSystem",
    # linalg
    "Pair",
    "as_pair",
    "as_vector",
    "block_solve",
    "inner",
    "norm",
    # projection
    "DEFAULT_TOLS",
    "CaseTag",
    "FamilyProjection",
    "ProjectionResult",
    "SingletonProjection",
    "Tolerances",
    "classify",
    "family_samples",
    "membership_residual",
    "objective",
    "project",
    # oracle
    "CheckReport",
    "OracleReport",
    "check",
    "lagrangian_oracle",
    "subspace_oracle",
    # solvers
    "AffinePairConstraint",
    "BoxPairConstraint",
    "FeasibilityProblem",
    "OrthantPairConstraint",
    "SolverTrace",
    "alternating_projections",
    "default_start",
    "douglas_rachford",
    "generate_instance",
    "instance_from_dict",
    "instance_to_dict",
]
