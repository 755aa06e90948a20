"""Independent verification of the closed-form cross projection.

Two oracles cross-check :func:`crossproj.projection.project`:

* :func:`lagrangian_oracle` sweeps the complete finite candidate set (the
  two multiplier candidates plus the axis selections) and picks the
  objective minimizer; away from the degenerate ray this is exact.
* :func:`subspace_oracle` sweeps pairs (P_U x0, P_{U-perp} y0) over
  U = {0} and lines U = span{u} on a uniform angle lattice of the unit
  sphere.  Every such pair lies in the cross, so the best value found is
  an upper bound on half the squared distance that tightens with the
  lattice.

The cross is the union of those products U x U-perp, so their exact
minimum is half the squared distance: |x0|^2/2 - lambda_max(M)^+/2 for the
rank-2 M = x0 x0^T - y0 y0^T.  :func:`check` takes it by QR and a 2x2
``eigvalsh`` on span{x0, y0} and bundles it with the Lagrangian sweep and
the module invariants into a pass/fail battery for one input; failures are
data, not exceptions.  The sweep scores each candidate once: its report
feeds ``lagrangian_*`` and ``point_match``, its objectives ``stability``
and ``plus_branch_larger``.  Every item of the battery tests the answer
:func:`project` gave for that input; the paper's identities that hold at
any multiplier are pinned by the test suite, not re-derived per input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularSystem
from .linalg import Pair, _haar_columns, _positive_int, _sphere_lattice, block_solve, norm
from .projection import (  # noqa: F401 -- classify stays bound for bench/tracing.py
    DEFAULT_TOLS,
    CaseTag,
    SingletonProjection,
    Tolerances,
    _family_member,
    _objective,
    _reduce,
    _Reduction,
    classify,
    project,
)

#: Width of |1 - lam^2| next to the degenerate ray inside which :func:`check`
#: replaces its exact-match items with the stability bound (``near_ray``).
FALLBACK_BAND = 1e-6

#: Objectives within this band of the minimum count as tied.
TIE_TOL = 1e-12

#: A pair counts as lying in the cross when |<x/c, y/c>| <= MEMBERSHIP_TOL *
#: (1 + |x0/c||y0/c|), c the input's power-of-two scale (:func:`_membership`).
MEMBERSHIP_TOL = 1e-9

#: Grid sweeps up to this many lattice points are evaluated directly; for
#: n = 3 beyond it the separable row reduction kicks in.
_DIRECT_GRID_LIMIT = 2_000_000


@dataclass(eq=False)
class OracleReport:
    """Outcome of one oracle run.

    ``gap_vs_formula`` is the oracle's best objective minus the closed-form
    half squared distance; it is never materially negative (the formula is
    a lower envelope) and shrinks to zero as the oracle tightens.
    ``tie_count`` counts candidates within ``TIE_TOL`` of the minimum
    (1 means the minimizer was unique at that granularity); ``ties`` holds
    the non-selected tied points, capped at 16 entries.
    """

    mode: str
    best_point: Pair
    best_objective: float
    gap_vs_formula: float
    candidates_examined: int
    tie_count: int = 1
    ties: list = field(default_factory=list)


def _lex_min_rows(us: np.ndarray) -> np.ndarray:
    """Lexicographically smallest row of a 2-D array, the first of equal rows.

    ``lexsort`` takes its last key as primary, hence the reversed columns;
    it is stable and compares -0.0 equal to 0.0.
    """
    return us[np.lexsort(us.T[::-1])[0]].copy()


def lagrangian_oracle(x0, y0, tols: Tolerances = DEFAULT_TOLS) -> OracleReport:
    """Objective minimizer over the complete finite candidate set.

    Candidates: the input itself when already orthogonal; the stationary
    pairs at both multiplier roots when the classification is generic; and
    the axis selections (0, y0) and (x0, 0), which lie in the cross
    exactly.  Candidates failing the membership certificate are discarded
    (this filters the ill-conditioned multiplier candidates that arise
    close to the degenerate ray).  For generic inputs the sweep is exact:
    every nearest point is one of the multiplier candidates.
    """
    return _lagrangian(_reduce(x0, y0, tols))[0]


def _lagrangian(core: _Reduction) -> tuple[OracleReport, list[float]]:
    # the sweep of lagrangian_oracle on a reduced input, and every candidate's objective in
    # order: the input or the multiplier roots in root order, then (0, y0), then (x0, 0)
    x0, y0 = core.x0, core.y0

    cands: list[Pair] = []
    if core.tag is CaseTag.ORTHOGONAL:
        cands.append(Pair(x0, y0))
    elif core.tag is CaseTag.GENERIC:
        for lam in core.lams:
            try:
                cands.append(block_solve(lam, Pair(x0, y0)))
            except SingularSystem:
                pass
    zero = np.zeros_like(x0)
    cands += [Pair(zero, y0), Pair(x0, zero)]

    objs = [_objective(p, x0, y0) for p in cands]
    feasible = [j for j, p in enumerate(cands) if _membership([p], core).passed]
    i = feasible[int(np.argmin([objs[j] for j in feasible]))]
    best, best_obj = cands[i], float(objs[i])
    ties = [cands[j] for j in feasible if j != i and objs[j] <= best_obj + TIE_TOL]
    return OracleReport(
        mode="lagrangian",
        best_point=best,
        best_objective=best_obj,
        gap_vs_formula=best_obj - core.half_dist_sq,
        candidates_examined=len(cands),
        tie_count=1 + len(ties),
        ties=ties[:16],
    ), objs


def _subspace_objectives(x0, y0, us: np.ndarray) -> np.ndarray:
    # f(P_U x0, P_{U-perp} y0) = |x0|^2/2 - <u,x0>^2/2 + <u,y0>^2/2
    sx = us @ x0
    sy = us @ y0
    return 0.5 * float(np.dot(x0, x0)) - 0.5 * sx * sx + 0.5 * sy * sy


def _grid3_row_candidates(x0, y0, r: int) -> np.ndarray:
    """Per-azimuth-row minimizers of the lattice sweep in R^3.

    With u = (cos t1, sin t1 cos t2, sin t1 sin t2), the subspace objective
    restricted to a fixed azimuth t2 is a pure sinusoid in 2*t1, so its
    minimum over the uniform t1 lattice sits at the lattice point nearest
    the sinusoid's trough.  Locating that index per row shrinks the r^2
    sweep to r direct evaluations without changing the lattice minimum.
    """
    th1 = np.linspace(0.0, np.pi, r)
    th2 = np.linspace(0.0, 2.0 * np.pi, r, endpoint=False)
    ax = x0[1] * np.cos(th2) + x0[2] * np.sin(th2)
    ay = y0[1] * np.cos(th2) + y0[2] * np.sin(th2)
    # objective along a row: const + A*cos(2 t1) + B*sin(2 t1), up to 1/2
    alpha = y0[0] ** 2 - x0[0] ** 2
    a_coef = 0.5 * (alpha - (ay * ay - ax * ax))
    b_coef = y0[0] * ay - x0[0] * ax
    phi = np.arctan2(b_coef, a_coef)
    h = 2.0 * np.pi / (r - 1)
    k = np.rint(np.mod(phi + np.pi, 2.0 * np.pi) / h).astype(np.intp)
    t1 = th1[k]
    s1 = np.sin(t1)
    return np.stack([np.cos(t1), s1 * np.cos(th2), s1 * np.sin(th2)], axis=1)


def subspace_oracle(
    x0, y0, resolution: int, tols: Tolerances = DEFAULT_TOLS
) -> OracleReport:
    """Best subspace pair (P_U x0, P_{U-perp} y0) over an angle lattice.

    The lattice has ``resolution`` points per angle, so resolution^(n-1)
    directions: exact in R^1, cheap through R^3 thanks to a separable
    per-row reduction, combinatorial beyond.  The trivial subspace U = {0}
    (candidate (0, y0)) is always included.  Ties within ``TIE_TOL`` are
    resolved toward the lexicographically smallest direction; in the
    separable fast path tie accounting happens at row-representative
    granularity.
    """
    core = _reduce(x0, y0, tols)
    x0, y0 = core.x0, core.y0
    resolution = _positive_int(resolution, "resolution")
    n = x0.size

    # (directions, lattice points they stand for)
    if n == 3 and resolution**2 > _DIRECT_GRID_LIMIT:
        lattice = [(_grid3_row_candidates(x0, y0, resolution), resolution**2)]
    else:
        # R^1 has one line; u and -u span the same subspace
        rows = [np.array([[1.0]])] if n == 1 else _sphere_lattice(n, resolution)
        lattice = ((us, len(us)) for us in rows)

    # streaming minimum from the zero direction (U = {0}) on, with a banded tie
    # count; ties go to the lexicographically smallest direction, so the
    # selected minimizer does not depend on evaluation order
    best, u, tie_count, examined = math.inf, None, 0, 0
    for us, count in itertools.chain([(np.zeros((1, n)), 1)], lattice):
        examined += count
        fs = _subspace_objectives(x0, y0, us)
        m = float(fs.min())
        if m < best - TIE_TOL:
            tie_count, u = 0, None
        best = min(best, m)
        mask = fs <= best + TIE_TOL
        hits = int(np.count_nonzero(mask))
        if hits:
            tie_count += hits
            tied = _lex_min_rows(us[mask])
            if u is None or tuple(tied) < tuple(u):
                u = tied

    if u is None or not np.any(u):
        best = Pair(np.zeros_like(x0), y0)
    else:
        best = _family_member(core.xs, core.ys, u, core.c)
    best_obj = float(_objective(best, x0, y0))
    return OracleReport(
        mode="subspace_grid",
        best_point=best,
        best_objective=best_obj,
        gap_vs_formula=best_obj - core.half_dist_sq,
        candidates_examined=examined,
        tie_count=max(tie_count, 1),
    )


def _spectral(core: _Reduction) -> float:
    """Exact minimum of the subspace objective over U = {0} and all lines,
    at unit scale.

    Over lines the objective is |x0|^2/2 - (u^T M u)/2 with
    M = x0 x0^T - y0 y0^T, so its minimum is |x0|^2/2 - lambda_max(M)^+/2
    (Courant-Fischer).  M has rank at most 2 and its range lies in
    span{x0, y0}, so lambda_max is that of the 2x2 B^T M B for a QR basis B
    of [x0 y0].  Kept as LAPACK QR and eigvalsh: the 2x2 root written out by
    hand is the formula that :func:`check` tests.
    """
    x0, y0 = core.xs, core.ys
    b = np.linalg.qr(np.stack((x0, y0), axis=1))[0]
    bx, by = x0 @ b, y0 @ b
    top = np.linalg.eigvalsh(np.outer(bx, bx) - np.outer(by, by))[-1]
    return 0.5 * float(x0.dot(x0)) - 0.5 * max(float(top), 0.0)


class CheckItem(NamedTuple):
    passed: bool
    residual: float
    tol: float


def _membership(pairs, core: _Reduction) -> CheckItem:
    # the largest |<x/c, y/c>| against MEMBERSHIP_TOL (1 + |x0/c||y0/c|): division
    # by the power of two c is exact, so the residual is finite where <x, y> overflows
    residual = max(abs(float((p.x / core.c).dot(p.y / core.c))) for p in pairs)
    tol = MEMBERSHIP_TOL * (1.0 + core.nx * core.ny)
    return CheckItem(residual <= tol, residual, tol)


@dataclass(eq=False)
class CheckReport:
    """Pass/fail verdicts with measured residuals for one input."""

    case: CaseTag
    items: dict[str, CheckItem]

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items.values())

    def failures(self) -> list[str]:
        return [name for name, item in self.items.items() if not item.passed]


def check(x0, y0, seed: int = 0, tols: Tolerances = DEFAULT_TOLS) -> CheckReport:
    """Run projection, the oracles, and the module invariants on one input.

    Every verdict is a (passed, residual, tol) triple; nothing raises on a
    failed invariant.  ``subspace_lower`` compares the formula with the
    exact subspace minimum of :func:`_spectral`, in every dimension.  Five
    items read the one Lagrangian sweep: ``lagrangian_lower``,
    ``lagrangian_match`` and ``point_match`` its report, ``stability`` and
    ``plus_branch_larger`` its axis and large-root objectives.  One regime
    decides which items apply: ``near_ray``, a generic input with
    |1 - lam^2| < FALLBACK_BAND.  There ``stability`` replaces
    ``lagrangian_match``, and the exact-match items (``point_match``,
    ``plus_branch_larger``, ``objective_identity``, ``subspace_reduction``,
    and the moved points of the symmetry items) are left out;
    ``stationarity`` stays, as the projected point is exact there too.  Every
    item tests the answer of :func:`project` on this input: the multiplier
    items ``vieta`` and ``orthogonality_quadratic`` (the root residual of
    q lam^2 - S lam + q, generic inputs only) read the roots the result was
    built from, and ``subspace_reduction`` rebuilds each emitted point, a
    family's sampled members included, as the subspace pair of its x part.
    The symmetry items ``homogeneity`` (t in 0.5, 2, 10), ``swap`` and
    ``rotation`` share one residual, :func:`_moved_residual`: each compares
    tag, half squared distance, the multiplier of a singleton, and, outside
    ``near_ray``, the moved points.  A move whose image leaves the float
    range is left out of its item; t = 0.5 always stays finite.
    """
    core = _reduce(x0, y0, tols)
    x0, y0, lams = core.x0, core.y0, core.lams
    res = project(x0, y0, tols)
    rng = np.random.default_rng(seed)
    items: dict[str, CheckItem] = {}

    def record(name: str, residual: float, tol: float) -> None:
        residual = float(residual)
        items[name] = CheckItem(bool(residual <= tol), residual, tol)

    tag = res.tag
    c = core.c
    nx, ny = core.nx * c, core.ny * c
    scale = 1.0 + nx + ny
    half = res.half_dist_sq

    # Near the degenerate ray the raw block_solve candidates lose precision and
    # the minimizing direction is fixed only to about eps/|x0 - y0|, so there
    # the exact-match items other than stationarity give way to the stability bound.
    near_ray = tag is CaseTag.GENERIC and abs(1.0 - res.lam * res.lam) < FALLBACK_BAND
    safe_generic = tag is CaseTag.GENERIC and not near_ray

    # emitted points: the singleton, or the canonical pair + sampled members
    if isinstance(res, SingletonProjection):
        emitted = [res.point]
    else:
        emitted = list(res.canonical)
        for _ in range(2):
            u = rng.standard_normal(x0.size)
            u /= np.linalg.norm(u)
            emitted.append(res.member(u))
    items["feasible"] = _membership(emitted, core)
    objs = [_objective(p, x0, y0) for p in emitted]

    lag, cand_objs = _lagrangian(core)
    gap = lag.best_objective - half  # the sweep's best against project's answer
    record("lagrangian_lower", -gap, 1e-9)
    if near_ray:
        record("stability", objs[0] - min(cand_objs[-2:]), 1e-7)
    else:
        record("lagrangian_match", abs(gap), 1e-10 * (1.0 + abs(half)))
    if safe_generic:
        record("point_match", _pair_diff(lag.best_point, res.point), 1e-8 * scale)

    record("subspace_lower", (core.half - _spectral(core)) * c * c, 1e-9)

    if tag is not CaseTag.ORTHOGONAL:
        record("vieta", abs(lams.lambda_minus * lams.lambda_plus - 1.0), 1e-10)

    if tag is CaseTag.GENERIC:
        # both roots solve the multiplier quadratic (1 + lam^2) q = lam S
        q, s = core.q * c * c, core.s * c * c
        root_res = max(abs((1.0 + lam * lam) * q - lam * s) for lam in lams)
        record("orthogonality_quadratic", root_res / (1.0 + s), 1e-10)
        pt = res.point
        stat = (
            norm(pt.x + res.lam * pt.y - x0) + norm(pt.y + res.lam * pt.x - y0)
        ) / scale
        record("stationarity", stat, 1e-10)
    if safe_generic:
        record("plus_branch_larger", half - cand_objs[1], 1e-12 * (1.0 + abs(half)))

    if not near_ray:
        record(
            "objective_identity",
            max(abs(f - half) for f in objs) / (1.0 + abs(half)),
            1e-10,
        )
        # every emitted point is a subspace pair for U = span of its x part
        rebuilt = [
            Pair(np.zeros_like(x0), y0) if (r := norm(p.x)) <= 1e-9 * (1.0 + nx)
            else _family_member(x0, y0, p.x / r)
            for p in emitted
        ]
        record("subspace_reduction", max(map(_pair_diff, rebuilt, emitted)) / scale, 1e-9)

    def symmetry(move, t: float = 1.0) -> float | None:
        # project the input moved by one symmetry of the cross and compare with
        # res; None where the moved input leaves the float range
        try:
            moved = project(*move(Pair(x0, y0)), tols)
        except DomainError:
            return None
        return _moved_residual(res, moved, move, not near_ray, t)

    def record_moves(name: str, residuals) -> None:
        # the item over the moves whose image is finite (t = 0.5 always is)
        residuals = [r for r in residuals if r is not None]
        if residuals:
            record(name, max(residuals) / scale, 1e-9)

    scalings = [(lambda p, t=t: Pair(t * p.x, t * p.y), t) for t in (0.5, 2.0, 10.0)]
    record_moves("homogeneity", [symmetry(move, t) for move, t in scalings])
    record_moves("swap", [symmetry(lambda p: Pair(p.y, p.x))])
    rot = np.array([[-1.0]]) if x0.size == 1 else _haar_columns(rng, x0.size, x0.size)
    record_moves("rotation", [symmetry(lambda p: Pair(rot @ p.x, rot @ p.y))])

    return CheckReport(case=tag, items=items)


def _pair_diff(a: Pair, b: Pair) -> float:
    return norm(a.x - b.x) + norm(a.y - b.y)


def _moved_residual(res, moved, move, compare_points: bool, t: float = 1.0) -> float:
    """Residual of one symmetry ``move`` of the cross (scale factor ``t``):
    inf if ``moved``, the projection of the moved input, changed tag; else
    the largest change of half the squared distance at scale t and of the
    multiplier, and, with ``compare_points``, the distance from each
    selection of ``moved`` to the nearest moved selection of ``res``, over t.
    Nearest matching lets the swap reverse a family's canonical pair.
    """
    if moved.tag is not res.tag:
        return math.inf
    worst = abs(moved.half_dist_sq - t * t * res.half_dist_sq) / (t * t)
    if isinstance(res, SingletonProjection):
        worst = max(worst, abs(moved.lam - res.lam))
    if compare_points:
        targets = [move(b) for b in res.selections()]
        for a in moved.selections():
            worst = max(worst, min(_pair_diff(a, b) for b in targets) / t)
    return worst
