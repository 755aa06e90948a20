"""The public surface of the package, pinned so any change to it shows in a diff."""

import crossproj

PUBLIC = [
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
    "LambdaPair",
    "ProjectionResult",
    "SingletonProjection",
    "Tolerances",
    "candidate",
    "classify",
    "degenerate_family",
    "distance_sq",
    "family_enumerate",
    "family_samples",
    "membership",
    "membership_residual",
    "objective",
    "project",
    "project_1d",
    "solve_lambda",
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
    "project_orthant_pair",
]


def test_all_is_pinned():
    assert crossproj.__all__ == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in crossproj.__all__ if not hasattr(crossproj, name)]
    assert missing == []
