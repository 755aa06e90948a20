"""Feasibility solvers built on the cross projection.

Finds points in the intersection of the cross C = {(x, y) : <x, y> = 0}
with a second constraint set B -- complementarity over the nonnegative
orthant, a pair of affine targets, or coordinate boxes -- by alternating
projections or Douglas-Rachford splitting.  C is nonconvex, so neither
method carries a convergence guarantee; runs are capped, fully traced, and
deterministic.  Where an iterate's cross projection is set valued the
solver takes its first canonical member, (0, y0), and records the case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatch, DivergenceError, DomainError
from .linalg import Pair, _haar_columns, _inf_norm, _joint_norm, _int_at_least, as_pair
from .linalg import _real, _real_array
from .projection import DEFAULT_TOLS, _classified, _cross_distance, _dist, _selected
from .projection import project  # noqa: F401 -- stays bound for bench/tracing.py

#: Largest |B B^T - I| entry accepted for an affine basis B.
_ORTHONORMAL_TOL = 1e-9


def _check_fields(constraint) -> None:
    """Store each field of a constraint as a float array, checked finite."""
    for f in fields(constraint):
        arr = _real_array(getattr(constraint, f.name), f"instance field {f.name!r}")
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"instance field {f.name!r} has non-finite entries")
        object.__setattr__(constraint, f.name, arr)


@dataclass(frozen=True, eq=False)
class OrthantPairConstraint:
    """x and y each in the nonnegative orthant."""

    kind: ClassVar[str] = "orthant"
    #: np.maximum(v, 0.0) is never below 0.0, so the distance of P_B's output is 0.0
    _idempotent: ClassVar[bool] = True

    def project(self, p: Pair) -> Pair:
        return Pair(np.maximum(p.x, 0.0), np.maximum(p.y, 0.0))

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
    #: a re-projection moves P_B's output by round-off (up to about 8e-15)
    _idempotent: ClassVar[bool] = False

    def __post_init__(self) -> None:
        _check_fields(self)
        for name in ("basis_x", "basis_y"):
            basis = getattr(self, name)
            gap = np.abs(basis @ basis.T - np.eye(basis.shape[0])).max(initial=0.0)
            if not gap <= _ORTHONORMAL_TOL:
                raise DomainError(
                    f"instance field {name!r} must have orthonormal rows"
                    f" (max |B B^T - I| = {gap:.3g})"
                )

    def project(self, p: Pair) -> Pair:
        # a + B^T (B (v - a)) per component; a (0, n) basis gives the anchor
        ax, bx, ay, by = self.anchor_x, self.basis_x, self.anchor_y, self.basis_y
        return Pair(ax + bx.T @ (bx @ (p.x - ax)), ay + by.T @ (by @ (p.y - ay)))

    distance = _distance_via_project


@dataclass(frozen=True, eq=False)
class BoxPairConstraint:
    """Coordinate bounds lo <= x <= hi and lo <= y <= hi (componentwise)."""

    lo_x: np.ndarray
    hi_x: np.ndarray
    lo_y: np.ndarray
    hi_y: np.ndarray

    kind: ClassVar[str] = "box"
    #: with lo <= hi, np.clip's output lies in [lo, hi], so its distance is 0.0
    _idempotent: ClassVar[bool] = True

    def __post_init__(self) -> None:
        _check_fields(self)
        for axis in ("x", "y"):
            bad = np.flatnonzero(getattr(self, f"lo_{axis}") > getattr(self, f"hi_{axis}"))
            if bad.size:
                raise DomainError(
                    f"instance field 'lo_{axis}' exceeds 'hi_{axis}' at coordinate {bad[0]}"
                )

    def project(self, p: Pair) -> Pair:
        # np.clip's bits from the method it dispatches to, without its wrapper
        x, y = np.asarray(p.x), np.asarray(p.y)
        return Pair(x.clip(self.lo_x, self.hi_x), y.clip(self.lo_y, self.hi_y))

    distance = _distance_via_project


Constraint = OrthantPairConstraint | AffinePairConstraint | BoxPairConstraint

#: Each constraint class by its kind, in the order instance seeds use.
_CONSTRAINTS = {c.kind: c for c in (OrthantPairConstraint, AffinePairConstraint, BoxPairConstraint)}


@dataclass(frozen=True, eq=False)
class FeasibilityProblem:
    """Find (x, y) with <x, y> = 0 inside the given constraint set."""

    dim: int
    constraint: Constraint

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", _int_at_least(self.dim, "dim"))
        c = self.constraint
        if not all(hasattr(c, name) for name in ("kind", "project", "distance")):
            raise DomainError(f"constraint must be one of the kinds {tuple(_CONSTRAINTS)}, or"
                              f" have kind, project and distance, not {type(c).__name__}")
        for name, arr in vars(c).items():
            if np.shape(arr)[-1:] != (self.dim,):
                raise DimensionMismatch(f"{name!r} has shape {np.shape(arr)}, dim is {self.dim}")

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
    makes any set-valued step, which takes (0, y0), auditable.
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

    def write_csv(self, stream) -> None:
        """One (iteration, residual_C, residual_B, case_tag) row per recorded iterate."""
        stream.write("iteration,residual_C,residual_B,case_tag\n")
        for k, (rc, rb, tag) in enumerate(zip(self.residuals_c, self.residuals_b, self.case_tags)):
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


def _diverged(method: str, trace: SolverTrace) -> DivergenceError:
    return DivergenceError(f"{method}: iterate became non-finite", trace=trace)


def _start_run(method, problem, start, max_iter, tol) -> tuple[Pair, SolverTrace]:
    """The validated start pair and the run's empty trace."""
    max_iter = _int_at_least(max_iter, "max_iter")
    if not 0.0 < (tol := _real(tol, "tol")) < math.inf:
        raise DomainError("tol must be finite and > 0")
    z = as_pair(*start)
    if z.x.shape[0] != problem.dim:
        raise DimensionMismatch(f"start has dimension {z.x.shape[0]}, problem has {problem.dim}")
    config = {"max_iter": max_iter, "tol": tol, "kind": problem.kind, "dim": problem.dim}
    return z, SolverTrace(method=method, config=config)


def _run(name, method, problem, start, max_iter, tol, monitor, update,
         update_in_b=False) -> SolverTrace:
    """The loop both solvers share.  Each step classifies z once: from its
    record ``rec``, s in P_C(z) is taken with no result built ((0, y0) where
    P_C(z) is set valued), ``monitor(z, s, rec)`` gives the point to record
    and its distance to the cross, and ``update(constraint, z, s)`` the next
    z.  The next step's classification validates each update, so only the
    last update is checked on its own.

    The distance to B is measured by ``constraint.distance``, except where
    ``update_in_b`` says the recorded point is the update itself, P_B's own
    output, and the constraint's kind states that P_B is idempotent in
    floating point (``_idempotent``): there every step after the first
    records the 0.0 that the measurement would return."""
    z, trace = _start_run(method, problem, start, max_iter, tol)
    constraint = problem.constraint
    exact_b = update_in_b and getattr(constraint, "_idempotent", False)
    for k in range(max_iter):
        try:
            rec = _classified(z.x, z.y, DEFAULT_TOLS)
            s = _selected(rec)
            point, d_c = monitor(z, s, rec)
        except DomainError:
            raise _diverged(name, trace) from None
        trace.iterations = k + 1
        d_b = 0.0 if k and exact_b else constraint.distance(point)
        trace.iterates.append(point)
        trace.residuals_c.append(d_c)
        trace.residuals_b.append(d_b)
        trace.case_tags.append(rec.tag.value)
        if d_c + d_b <= tol:
            trace.converged = True
            break
        z = update(constraint, z, s)
    else:  # the inf-norm is finite exactly when every coordinate is
        if not (math.isfinite(_inf_norm(z.x)) and math.isfinite(_inf_norm(z.y))):
            raise _diverged(name, trace)
    return trace


def alternating_projections(
    problem: FeasibilityProblem,
    start: Pair,
    max_iter: int = 1000,
    tol: float = 1e-8,
) -> SolverTrace:
    """Alternate the cross projection with the constraint projection.

    Each iteration checks the current iterate's combined residual
    d_C(z) + d_B(z) (recording it) and, if above ``tol``, updates
    z <- P_B(s), s in P_C(z) ((0, y0) where P_C(z) is set valued).
    Stopping on the combined residual makes both set distances individually
    meet ``tol`` at convergence.

    d_C(z) is the distance of the step's own cross projection of z.  d_B(z)
    is measured at the start; after it z is P_B's output, which lies exactly
    in an orthant or a box, so there it is 0.0 without a measurement, and
    an affine set (or any constraint that does not state it) measures it.
    """
    return _run(
        "alternating_projections", "ap", problem, start, max_iter, tol,
        monitor=lambda z, s, rec: (z, _dist(rec)),
        update=lambda constraint, z, s: constraint.project(s),
        update_in_b=True,
    )


def _reflect_step(constraint, z: Pair, s: Pair) -> Pair:
    """z + P_B(2*s - z) - s."""
    pb = constraint.project(Pair(2.0 * s.x - z.x, 2.0 * s.y - z.y))
    return Pair(z.x + pb.x - s.x, z.y + pb.y - s.y)


def douglas_rachford(
    problem: FeasibilityProblem,
    start: Pair,
    max_iter: int = 2000,
    tol: float = 1e-8,
) -> SolverTrace:
    """Douglas-Rachford splitting z <- z + P_B(2*s - z) - s, s in P_C(z).

    The governing sequence z is monitored through its shadow s (its cross
    projection, (0, y0) where that is set valued); residuals and the
    stopping rule use the shadow's combined distance d_C(s) + d_B(s), the
    same merit as :func:`alternating_projections`.  d_C(s) is the distance
    the cross projection of s would report, read from its classification
    alone, with no result built; d_B(s) is measured by the constraint.  A
    shadow that overflows from a finite iterate also ends the run as
    divergent.
    """
    return _run(
        "douglas_rachford", "dr", problem, start, max_iter, tol,
        monitor=lambda z, s, rec: (s, _cross_distance(s.x, s.y)),
        update=_reflect_step,
    )


def _complementary_witness(rng: np.random.Generator, dim: int, nonneg: bool) -> Pair:
    """Pair with disjoint supports, hence exactly zero inner product."""
    on_x = rng.random(dim) < 0.5
    mag_x = rng.uniform(0.5, 2.0, dim)
    mag_y = rng.uniform(0.5, 2.0, dim)
    if not nonneg:
        mag_x *= rng.choice([-1.0, 1.0], dim)
        mag_y *= rng.choice([-1.0, 1.0], dim)
    return Pair(np.where(on_x, mag_x, 0.0), np.where(~on_x, mag_y, 0.0))


def _kind_index(kind) -> int:
    """Position of ``kind`` in ``_CONSTRAINTS``, which seeds instances and starts."""
    if not isinstance(kind, str) or kind not in _CONSTRAINTS:
        raise DomainError(f"instance kind must be one of {tuple(_CONSTRAINTS)}, not {kind!r}")
    return list(_CONSTRAINTS).index(kind)


def generate_instance(kind: str, dim: int, seed: int = 0):
    """Deterministic feasible instance with a planted witness.

    The witness (x*, y*) has disjoint supports, so <x*, y*> = 0 holds
    exactly (not merely to round-off), and the constraint set is built
    around it: the orthant witness is componentwise nonnegative, the
    affine targets pass through the witness, and the boxes contain it.
    Returns ``(problem, witness)``.
    """
    index, dim = _kind_index(kind), _int_at_least(dim, "dim")
    rng = np.random.default_rng([_int_at_least(seed, "seed", 0), dim, index])

    if kind == "orthant":
        witness = _complementary_witness(rng, dim, nonneg=True)
        return FeasibilityProblem(dim, OrthantPairConstraint()), witness

    if kind == "affine":
        witness = _complementary_witness(rng, dim, nonneg=False)
        kx = int(rng.integers(1, dim + 1))
        ky = int(rng.integers(1, dim + 1))
        constraint = AffinePairConstraint(
            anchor_x=witness.x.copy(),
            basis_x=_haar_columns(rng, dim, kx).T,
            anchor_y=witness.y.copy(),
            basis_y=_haar_columns(rng, dim, ky).T,
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
    index, dim = _kind_index(kind), _int_at_least(dim, "dim")
    rng = np.random.default_rng([_int_at_least(seed, "seed", 0), dim, index, 997])
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
        doc["seed"] = _int_at_least(seed, "seed", 0)
    c = problem.constraint
    doc["constraint"] = {f.name: getattr(c, f.name).tolist() for f in fields(c)}
    return doc


def _field(doc, *path: str):
    """``doc[path[0]][path[1]]...``, each level a JSON object holding its key."""
    for i, key in enumerate(path):
        if not isinstance(doc, dict) or key not in doc:
            raise DomainError(f"missing field {'.'.join(path[: i + 1])!r}")
        doc = doc[key]
    return doc


def _numbers(raw, name: str, dim: int, rows: bool = False) -> np.ndarray:
    """A list of ``dim`` finite JSON numbers as a vector; with ``rows``, a list of them as rows."""
    if not isinstance(raw, list):
        raise DomainError(f"field {name!r} must be an array")
    if rows:
        return np.reshape([_numbers(r, f"{name}[{i}]", dim) for i, r in enumerate(raw)], (-1, dim))
    if len(raw) != dim:
        raise DomainError(f"field {name!r} has length {len(raw)}, expected dim = {dim}")
    for i, v in enumerate(raw):
        if not math.isfinite(_real(v, f"field '{name}[{i}]'")):
            raise DomainError(f"field '{name}[{i}]' is not finite")
    return np.array(raw, dtype=float)


def instance_from_dict(doc: dict):
    """Inverse of :func:`instance_to_dict`, reading the lists it writes (not numpy arrays):
    ``dim`` finite numbers per vector and per basis row, no rows for a missing basis."""
    kind = _field(doc, "kind")
    _kind_index(kind)
    dim = _int_at_least(_field(doc, "dim"), "field 'dim'")
    witness = Pair(*(_numbers(_field(doc, "witness", a), f"witness.{a}", dim) for a in "xy"))
    data = doc.get("constraint", {})
    values = {}
    for f in fields(cls := _CONSTRAINTS[kind]):
        rows = f.name.startswith("basis_")  # a missing basis has no rows
        raw = data.get(f.name, []) if rows and isinstance(data, dict) else _field(data, f.name)
        values[f.name] = _numbers(raw, f.name, dim, rows)
    return FeasibilityProblem(dim, cls(**values)), witness
