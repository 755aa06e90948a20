"""The public surface of the package, pinned so any change to it shows in a diff."""

import dataclasses
import inspect

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

#: The parameter names of every public function, so an added or removed
#: knob shows in a diff as an added or removed name does.
SIGNATURES = {
    # linalg
    "as_pair": ["x", "y"],
    "as_vector": ["v", "name"],
    "block_solve": ["lam", "rhs"],
    "inner": ["x", "y"],
    "norm": ["x"],
    # projection
    "classify": ["x0", "y0", "tols"],
    "family_samples": ["x0", "y0", "count", "tols"],
    "membership_residual": ["p"],
    "objective": ["p", "x0", "y0"],
    "project": ["x0", "y0", "tols"],
    # oracle
    "check": ["x0", "y0", "seed", "tols"],
    "lagrangian_oracle": ["x0", "y0", "tols"],
    "subspace_oracle": ["x0", "y0", "tols"],
    # solvers
    "alternating_projections": ["problem", "start", "max_iter", "tol"],
    "default_start": ["kind", "dim", "seed"],
    "douglas_rachford": ["problem", "start", "max_iter", "tol"],
    "generate_instance": ["kind", "dim", "seed"],
    "instance_from_dict": ["doc"],
    "instance_to_dict": ["problem", "witness", "seed"],
}

#: The fields of every public dataclass, so an added or removed knob or
#: result field shows in a diff as a function parameter does.
FIELDS = {
    # projection
    "Tolerances": ["orth", "deg"],
    "SingletonProjection": ["tag", "point", "lam", "half_dist_sq", "dist"],
    "FamilyProjection": ["tag", "x0", "y0", "canonical", "half_dist_sq", "dist", "_k"],
    # oracle
    "OracleReport": [
        "mode", "best_point", "best_objective", "gap_vs_formula",
        "candidates_examined", "tie_count", "ties",
    ],
    "CheckReport": ["case", "items"],
    # solvers
    "SolverTrace": [
        "method", "iterates", "residuals_c", "residuals_b", "case_tags",
        "converged", "iterations", "config",
    ],
    "FeasibilityProblem": ["dim", "constraint"],
    "OrthantPairConstraint": [],
    "AffinePairConstraint": ["anchor_x", "basis_x", "anchor_y", "basis_y"],
    "BoxPairConstraint": ["lo_x", "hi_x", "lo_y", "hi_y"],
}


def test_all_is_pinned():
    assert crossproj.__all__ == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in crossproj.__all__ if not hasattr(crossproj, name)]
    assert missing == []


def test_signatures_are_pinned():
    functions = {
        name: list(inspect.signature(obj).parameters)
        for name in crossproj.__all__
        if inspect.isfunction(obj := getattr(crossproj, name))
    }
    assert functions == SIGNATURES


def test_dataclass_fields_are_pinned():
    classes = {
        name: [f.name for f in dataclasses.fields(obj)]
        for name in crossproj.__all__
        if inspect.isclass(obj := getattr(crossproj, name)) and dataclasses.is_dataclass(obj)
    }
    assert classes == FIELDS
