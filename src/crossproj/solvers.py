"""Feasibility solvers built on the cross projection.

Finds points in the intersection of the cross C = {(x, y) : <x, y> = 0}
with a second constraint set B -- complementarity over the nonnegative
orthant, a pair of affine targets, or coordinate boxes -- by alternating
projections or Douglas-Rachford splitting.  C is nonconvex, so neither
method carries a convergence guarantee; runs are capped, fully traced, and
deterministic.  Where an iterate's cross projection is set valued the
solver takes the configured canonical selection and records that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import DivergenceError, DomainError
from .linalg import Pair, _inf_norm, _joint_norm, as_pair
from .projection import SingletonProjection, _distance, project

_SELECTIONS = ("first", "second", "alternate")


def project_orthant_pair(p: Pair) -> Pair:
    """Clamp both components to the nonnegative orthant (which is self-dual)."""
    return Pair(np.maximum(p.x, 0.0), np.maximum(p.y, 0.0))


@dataclass(frozen=True, eq=False)
class OrthantPairConstraint:
    """x and y each in the nonnegative orthant."""

    kind: ClassVar[str] = "orthant"

    def project(self, p: Pair) -> Pair:
        return project_orthant_pair(p)

    def distance(self, p: Pair) -> float:
        return _joint_norm(np.minimum(p.x, 0.0), np.minimum(p.y, 0.0))


def _distance_via_project(self, p: Pair) -> float:
    """Distance from p to the constraint set, through the set's own projection."""
    q = self.project(p)
    return _joint_norm(p.x - q.x, p.y - q.y)


@dataclass(frozen=True, eq=False)
class AffinePairConstraint:
    """x in anchor_x + rowspan(basis_x), y in anchor_y + rowspan(basis_y).

    Bases are (k, n) arrays with orthonormal rows; k = 0 pins the component
    to its anchor and k = n leaves it free.
    """

    anchor_x: np.ndarray
    basis_x: np.ndarray
    anchor_y: np.ndarray
    basis_y: np.ndarray

    kind: ClassVar[str] = "affine"

    def _proj_component(self, v, anchor, basis):
        d = v - anchor
        if basis.shape[0] == 0:
            return anchor.copy()
        return anchor + basis.T @ (basis @ d)

    def project(self, p: Pair) -> Pair:
        return Pair(
            self._proj_component(p.x, self.anchor_x, self.basis_x),
            self._proj_component(p.y, self.anchor_y, self.basis_y),
        )

    distance = _distance_via_project


@dataclass(frozen=True, eq=False)
class BoxPairConstraint:
    """Coordinate bounds lo <= x <= hi and lo <= y <= hi (componentwise)."""

    lo_x: np.ndarray
    hi_x: np.ndarray
    lo_y: np.ndarray
    hi_y: np.ndarray

    kind: ClassVar[str] = "box"

    def project(self, p: Pair) -> Pair:
        return Pair(np.clip(p.x, self.lo_x, self.hi_x), np.clip(p.y, self.lo_y, self.hi_y))

    distance = _distance_via_project


Constraint = OrthantPairConstraint | AffinePairConstraint | BoxPairConstraint


@dataclass(frozen=True, eq=False)
class FeasibilityProblem:
    """Find (x, y) with <x, y> = 0 inside the given constraint set."""

    dim: int
    constraint: Constraint

    @property
    def kind(self) -> str:
        return self.constraint.kind


@dataclass(eq=False)
class SolverTrace:
    """Recorded history of one solver run.

    ``residuals_c`` and ``residuals_b`` hold the distance to the cross and
    to the constraint set for each recorded iterate of the monitored
    sequence; ``residuals`` is their sum, the merit the stopping rule uses.
    ``case_tags`` records the projection case seen at each iterate, which
    makes any set-valued selections auditable.
    """

    method: str
    iterates: list[Pair] = field(default_factory=list)
    residuals_c: list[float] = field(default_factory=list)
    residuals_b: list[float] = field(default_factory=list)
    case_tags: list[str] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    config: dict = field(default_factory=dict)

    @property
    def residuals(self) -> list[float]:
        return [c + b for c, b in zip(self.residuals_c, self.residuals_b)]

    def final_residual(self) -> float:
        if not self.residuals_c:
            return math.inf
        return self.residuals_c[-1] + self.residuals_b[-1]

    def csv_rows(self):
        """(iteration, residual_C, residual_B, case_tag) rows."""
        for k in range(len(self.residuals_c)):
            yield k, self.residuals_c[k], self.residuals_b[k], self.case_tags[k]

    def write_csv(self, stream) -> None:
        stream.write("iteration,residual_C,residual_B,case_tag\n")
        for k, rc, rb, tag in self.csv_rows():
            stream.write(f"{k},{rc:.17g},{rb:.17g},{tag}\n")

    def summary(self) -> dict:
        return {
            "method": self.method,
            "converged": self.converged,
            "iterations": self.iterations,
            "final_residual_C": self.residuals_c[-1] if self.residuals_c else None,
            "final_residual_B": self.residuals_b[-1] if self.residuals_b else None,
            "final_residual": self.final_residual() if self.residuals_c else None,
            "config": dict(self.config),
        }


def _select(result, selection: str, k: int) -> Pair:
    if isinstance(result, SingletonProjection):
        return result.point
    if selection == "first":
        return result.canonical[0]
    if selection == "second":
        return result.canonical[1]
    return result.canonical[k % 2]


def _diverged(method: str, trace: SolverTrace) -> DivergenceError:
    return DivergenceError(f"{method}: iterate became non-finite", trace=trace)


def _check_finite(p: Pair, method: str, trace: SolverTrace) -> None:
    # the inf-norm is finite exactly when every coordinate is
    if not (math.isfinite(_inf_norm(p.x)) and math.isfinite(_inf_norm(p.y))):
        raise _diverged(method, trace)


def _start_run(method, problem, start, max_iter, tol, selection) -> tuple[Pair, SolverTrace]:
    """The validated start pair and the run's empty trace."""
    if max_iter < 1:
        raise DomainError("max_iter must be >= 1")
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if selection not in _SELECTIONS:
        raise DomainError(f"selection must be one of {_SELECTIONS}")
    z = as_pair(*start)
    config = {
        "max_iter": max_iter,
        "tol": tol,
        "selection": selection,
        "kind": problem.kind,
        "dim": problem.dim,
    }
    return z, SolverTrace(method=method, config=config)


def alternating_projections(
    problem: FeasibilityProblem,
    start: Pair,
    max_iter: int = 1000,
    tol: float = 1e-8,
    selection: str = "first",
) -> SolverTrace:
    """Alternate the cross projection with the constraint projection.

    Each iteration checks the current iterate's combined residual
    d_C(z) + d_B(z) (recording it) and, if above ``tol``, updates
    z <- P_B(select(P_C(z))).  Stopping on the combined residual makes both
    set distances individually meet ``tol`` at convergence.  The projection
    of the next step validates each update, so it is checked for
    finiteness once; only the last update is checked on its own.
    """
    z, trace = _start_run("ap", problem, start, max_iter, tol, selection)
    for k in range(max_iter):
        try:
            pc = project(z.x, z.y)
        except DomainError:
            raise _diverged("alternating_projections", trace) from None
        trace.iterations = k + 1
        d_c = pc.dist
        d_b = problem.constraint.distance(z)
        trace.iterates.append(z)
        trace.residuals_c.append(d_c)
        trace.residuals_b.append(d_b)
        trace.case_tags.append(pc.tag.value)
        if d_c + d_b <= tol:
            trace.converged = True
            break
        z = problem.constraint.project(_select(pc, selection, k))
    else:
        _check_finite(z, "alternating_projections", trace)
    return trace


def douglas_rachford(
    problem: FeasibilityProblem,
    start: Pair,
    max_iter: int = 2000,
    tol: float = 1e-8,
    selection: str = "first",
) -> SolverTrace:
    """Douglas-Rachford splitting z <- z + P_B(2*s - z) - s, s = select(P_C(z)).

    The governing sequence z is monitored through its shadow s (the
    selected cross projection); residuals and the stopping rule use the
    shadow's combined distance d_C(s) + d_B(s), the same merit as
    :func:`alternating_projections`, and like it checks each update for
    finiteness once, through the next step's projection.  A shadow that
    overflows from a finite iterate also ends the run as divergent.
    """
    z, trace = _start_run("dr", problem, start, max_iter, tol, selection)
    for k in range(max_iter):
        try:
            pc = project(z.x, z.y)
            shadow = _select(pc, selection, k)
            d_c = _distance(shadow.x, shadow.y)
        except DomainError:
            raise _diverged("douglas_rachford", trace) from None
        trace.iterations = k + 1
        d_b = problem.constraint.distance(shadow)
        trace.iterates.append(shadow)
        trace.residuals_c.append(d_c)
        trace.residuals_b.append(d_b)
        trace.case_tags.append(pc.tag.value)
        if d_c + d_b <= tol:
            trace.converged = True
            break
        reflected = Pair(2.0 * shadow.x - z.x, 2.0 * shadow.y - z.y)
        pb = problem.constraint.project(reflected)
        z = Pair(z.x + pb.x - shadow.x, z.y + pb.y - shadow.y)
    else:
        _check_finite(z, "douglas_rachford", trace)
    return trace


_KINDS = ("orthant", "affine", "box")


def _complementary_witness(rng: np.random.Generator, dim: int, nonneg: bool) -> Pair:
    """Pair with disjoint supports, hence exactly zero inner product."""
    on_x = rng.random(dim) < 0.5
    mag_x = rng.uniform(0.5, 2.0, dim)
    mag_y = rng.uniform(0.5, 2.0, dim)
    if not nonneg:
        mag_x *= rng.choice([-1.0, 1.0], dim)
        mag_y *= rng.choice([-1.0, 1.0], dim)
    return Pair(np.where(on_x, mag_x, 0.0), np.where(~on_x, mag_y, 0.0))


def _orthonormal_rows(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    if k == 0:
        return np.zeros((0, n))
    a = rng.standard_normal((n, k))
    q, r = np.linalg.qr(a)
    return (q * np.sign(np.diag(r))).T


def generate_instance(kind: str, dim: int, seed: int = 0):
    """Deterministic feasible instance with a planted witness.

    The witness (x*, y*) has disjoint supports, so <x*, y*> = 0 holds
    exactly (not merely to round-off), and the constraint set is built
    around it: the orthant witness is componentwise nonnegative, the
    affine targets pass through the witness, and the boxes contain it.
    Returns ``(problem, witness)``.
    """
    if kind not in _KINDS:
        raise DomainError(f"instance kind must be one of {_KINDS}")
    if dim < 1:
        raise DomainError("dim must be >= 1")
    rng = np.random.default_rng([seed, dim, _KINDS.index(kind)])

    if kind == "orthant":
        witness = _complementary_witness(rng, dim, nonneg=True)
        return FeasibilityProblem(dim, OrthantPairConstraint()), witness

    if kind == "affine":
        witness = _complementary_witness(rng, dim, nonneg=False)
        kx = int(rng.integers(1, dim + 1))
        ky = int(rng.integers(1, dim + 1))
        constraint = AffinePairConstraint(
            anchor_x=witness.x.copy(),
            basis_x=_orthonormal_rows(rng, kx, dim),
            anchor_y=witness.y.copy(),
            basis_y=_orthonormal_rows(rng, ky, dim),
        )
        return FeasibilityProblem(dim, constraint), witness

    witness = _complementary_witness(rng, dim, nonneg=False)
    slack_lo = rng.uniform(0.1, 1.0, (2, dim))
    slack_hi = rng.uniform(0.1, 1.0, (2, dim))
    constraint = BoxPairConstraint(
        lo_x=witness.x - slack_lo[0],
        hi_x=witness.x + slack_hi[0],
        lo_y=witness.y - slack_lo[1],
        hi_y=witness.y + slack_hi[1],
    )
    return FeasibilityProblem(dim, constraint), witness


def default_start(kind: str, dim: int, seed: int = 0) -> Pair:
    """Deterministic random starting point matched to an instance seed."""
    rng = np.random.default_rng([seed, dim, _KINDS.index(kind), 997])
    return Pair(rng.uniform(-2.0, 2.0, dim), rng.uniform(-2.0, 2.0, dim))


def instance_to_dict(problem: FeasibilityProblem, witness: Pair, seed: int | None = None) -> dict:
    """JSON-ready description of an instance (schema crossproj/instance/v1)."""
    doc = {
        "schema": "crossproj/instance/v1",
        "kind": problem.kind,
        "dim": problem.dim,
        "witness": {"x": list(witness.x), "y": list(witness.y)},
    }
    if seed is not None:
        doc["seed"] = seed
    c = problem.constraint
    if isinstance(c, AffinePairConstraint):
        doc["constraint"] = {
            "anchor_x": list(c.anchor_x),
            "basis_x": [list(row) for row in c.basis_x],
            "anchor_y": list(c.anchor_y),
            "basis_y": [list(row) for row in c.basis_y],
        }
    elif isinstance(c, BoxPairConstraint):
        doc["constraint"] = {
            "lo_x": list(c.lo_x),
            "hi_x": list(c.hi_x),
            "lo_y": list(c.lo_y),
            "hi_y": list(c.hi_y),
        }
    else:
        doc["constraint"] = {}
    return doc


def _field_vector(data: dict, name: str, dim: int) -> np.ndarray:
    if name not in data:
        raise DomainError(f"instance constraint is missing field {name!r}")
    arr = np.asarray(data[name], dtype=float)
    if arr.shape != (dim,):
        raise DomainError(f"instance field {name!r} must have length {dim}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"instance field {name!r} has non-finite entries")
    return arr


#: Largest |B B^T - I| entry accepted for an instance file's affine basis B.
_ORTHONORMAL_TOL = 1e-9


def _field_basis(data: dict, name: str, dim: int) -> np.ndarray:
    try:
        basis = np.asarray(data.get(name, []), dtype=float).reshape(-1, dim)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"instance field {name!r} rows must have length {dim}: {exc}") from exc
    if not np.all(np.isfinite(basis)):
        raise DomainError(f"instance field {name!r} has non-finite entries")
    gap = np.abs(basis @ basis.T - np.eye(basis.shape[0])).max(initial=0.0)
    if not gap <= _ORTHONORMAL_TOL:
        raise DomainError(
            f"instance field {name!r} must have orthonormal rows (max |B B^T - I| = {gap:.3g})"
        )
    return basis


def _field_bounds(data: dict, axis: str, dim: int) -> tuple[np.ndarray, np.ndarray]:
    lo = _field_vector(data, f"lo_{axis}", dim)
    hi = _field_vector(data, f"hi_{axis}", dim)
    bad = np.flatnonzero(lo > hi)
    if bad.size:
        raise DomainError(f"instance field 'lo_{axis}' exceeds 'hi_{axis}' at coordinate {bad[0]}")
    return lo, hi


def instance_from_dict(doc: dict):
    """Inverse of :func:`instance_to_dict`; validates shapes, finiteness,
    orthonormal affine bases and ordered box bounds."""
    try:
        kind = doc["kind"]
        dim = int(doc["dim"])
        wit = doc["witness"]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"instance document is missing field {exc}") from exc
    if kind not in _KINDS:
        raise DomainError(f"unknown instance kind {kind!r}")
    if dim < 1:
        raise DomainError("instance dim must be >= 1")
    witness = Pair(_field_vector(wit, "x", dim), _field_vector(wit, "y", dim))
    data = doc.get("constraint", {})

    if kind == "orthant":
        constraint: Constraint = OrthantPairConstraint()
    elif kind == "affine":
        constraint = AffinePairConstraint(
            anchor_x=_field_vector(data, "anchor_x", dim),
            basis_x=_field_basis(data, "basis_x", dim),
            anchor_y=_field_vector(data, "anchor_y", dim),
            basis_y=_field_basis(data, "basis_y", dim),
        )
    else:
        (lo_x, hi_x), (lo_y, hi_y) = _field_bounds(data, "x", dim), _field_bounds(data, "y", dim)
        constraint = BoxPairConstraint(lo_x=lo_x, hi_x=hi_x, lo_y=lo_y, hi_y=hi_y)
    return FeasibilityProblem(dim, constraint), witness
