"""Independent verification of the closed-form cross projection.

Two oracles cross-check :func:`crossproj.projection.project`:

* :func:`lagrangian_oracle` sweeps the complete finite candidate set (the
  two multiplier candidates plus the axis selections) and picks the
  objective minimizer; away from the degenerate ray this is exact.
* :func:`subspace_oracle` returns the best pair (P_U x0, P_{U-perp} y0)
  over U = {0} and the lines U = span{u}.  The cross is the union of those
  products U x U-perp, so the best pair is a nearest point: the line along
  the top eigenvector of the rank-2 M = x0 x0^T - y0 y0^T, or U = {0} where
  lambda_max(M) <= 0, and half the squared distance is
  |x0|^2/2 - lambda_max(M)^+/2.

Both that oracle and :func:`check` take the eigenpair from one routine,
:func:`_spectral`: QR and a 2x2 ``eigh`` on span{x0, y0}.  :func:`check`
bundles the exact subspace minimum with the Lagrangian sweep and the module
invariants into a pass/fail battery for one input; failures are data, not
exceptions.  The sweep scores each candidate once: its report
feeds ``lagrangian_*`` and ``point_match``, its objectives ``stability``
and ``plus_branch_larger``.  Every item of the battery tests the answer
:func:`project` gave for that input; the paper's identities that hold at
any multiplier are pinned by the test suite, not re-derived per input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularSystem
from .linalg import Pair, _haar_columns, _int_at_least, _over_pow2, block_solve, norm
from .projection import (  # noqa: F401 -- classify stays bound for bench/tracing.py
    DEFAULT_TOLS,
    CaseTag,
    SingletonProjection,
    Tolerances,
    _family_member,
    _line_members,
    _objective,
    _Record,
    _result,
    _unit,
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


@dataclass(eq=False)
class OracleReport:
    """Outcome of one oracle run.

    ``gap_vs_formula`` is the oracle's best objective minus the closed-form
    half squared distance; it is never materially negative (the formula is
    a lower envelope) and shrinks to zero as the oracle tightens.
    ``tie_count`` counts candidates within ``TIE_TOL`` of the minimum
    (1 means the minimizer was unique at that granularity), or, for the
    subspace oracle, 2 on the degenerate rays; ``ties`` holds the
    non-selected tied points, at most 3 of the Lagrangian sweep's 4 candidates.
    """

    mode: str
    best_point: Pair
    best_objective: float
    gap_vs_formula: float
    candidates_examined: int
    tie_count: int = 1
    ties: list = field(default_factory=list)


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
    return _lagrangian(_unit(x0, y0, tols))[0]


def _lagrangian(core: _Record) -> tuple[OracleReport, list[float]]:
    # the sweep of lagrangian_oracle on a unit-scale record, and every candidate's objective in
    # order: the input or the multiplier roots in root order, then (0, y0), then (x0, 0)
    x0, y0 = core.x0, core.y0

    cands: list[Pair] = []
    if core.tag is CaseTag.ORTHOGONAL:
        cands.append(Pair(x0, y0))
    elif core.tag is CaseTag.GENERIC:
        for lam in (core.lam, core.lam_plus):
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
        gap_vs_formula=best_obj - core.half * core.k * core.k,
        candidates_examined=len(cands),
        tie_count=1 + len(ties),
        ties=ties,
    ), objs


def subspace_oracle(x0, y0, tols: Tolerances = DEFAULT_TOLS) -> OracleReport:
    """Exact best subspace pair (P_U x0, P_{U-perp} y0) over U = {0} and all lines.

    The two candidates are the line along the top eigenvector u of M from
    :func:`_spectral`, the pair (<u,x0> u, y0 - <u,y0> u), and the trivial
    subspace, the pair (0, y0), which wins where lambda_max(M) <= 0.  On the
    degenerate rays M = 0, so every U ties: there the report has
    ``tie_count`` 2 and the other candidate in ``ties``, (x0, 0) on the exact
    rays, as :func:`lagrangian_oracle` reports them.
    """
    core = _unit(x0, y0, tols)
    x0, y0 = core.x0, core.y0
    top, u = _spectral(core)
    line = _family_member(core.xs, core.ys, u, core.k)
    zero = Pair(np.zeros_like(x0), y0)
    best, other = (line, zero) if top > 0.0 else (zero, line)
    ties = [other] if core.tag.is_degenerate else []
    best_obj = float(_objective(best, x0, y0))
    return OracleReport(
        mode="subspace_spectral",
        best_point=best,
        best_objective=best_obj,
        gap_vs_formula=best_obj - core.half * core.k * core.k,
        candidates_examined=2,
        tie_count=1 + len(ties),
        ties=ties,
    )


def _spectral(core: _Record) -> tuple[float, np.ndarray]:
    """Top eigenpair of M = x0 x0^T - y0 y0^T at unit scale: lambda_max(M)
    for (x0/c, y0/c) and a unit eigenvector of R^n for it.

    Over lines U = span{u} the subspace objective is |x0|^2/2 - (u^T M u)/2,
    so its minimum over U = {0} and all lines is |x0|^2/2 - lambda_max(M)^+/2
    (Courant-Fischer).  M has rank at most 2 and its range lies in
    span{x0, y0}, so its eigenpairs are those of the 2x2 B^T M B for a QR
    basis B of [x0 y0], mapped back by B.  Kept as LAPACK QR and eigh: the
    2x2 root written out by hand is the formula that :func:`check` tests.
    ``eigh`` takes -M, whose first eigenvector is B e1, along x0, where
    M = 0 (the degenerate rays), so the line there gives (x0, 0).
    """
    x0, y0 = core.xs, core.ys
    b = np.linalg.qr(np.stack((x0, y0), axis=1))[0]
    bx, by = x0 @ b, y0 @ b
    w, v = np.linalg.eigh(np.outer(by, by) - np.outer(bx, bx))
    return -float(w[0]), b @ v[:, 0]


class CheckItem(NamedTuple):
    passed: bool
    residual: float
    tol: float


def _membership(pairs, core: _Record) -> CheckItem:
    # the largest |<x/c, y/c>| against MEMBERSHIP_TOL (1 + |x0/c||y0/c|), relative to
    # the input's power-of-two scale c, so finite where <x, y> overflows; unvalidated,
    # so a non-finite Lagrangian candidate fails the test instead of raising
    residual = max(abs(float(_over_pow2(p.x, core.k).dot(_over_pow2(p.y, core.k)))) for p in pairs)
    tol = MEMBERSHIP_TOL * (1.0 + math.sqrt(core.xx) * math.sqrt(core.yy))
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

    The input is classified once, at unit scale: its result is built from
    that record as :func:`project` builds it, bit for bit, and the oracles
    read the same record; each move below is one :func:`project` call.
    ``seed`` (an integer >= 0) draws the rotation and a family's members.
    Every verdict is a (passed, residual, tol) triple; nothing raises on a
    failed invariant.  ``subspace_lower`` compares half the squared
    distance :func:`project` gave with the exact subspace minimum from
    :func:`_spectral`, in every dimension, both at unit scale (over c^2 for
    the input's power-of-two scale c), so its residual is finite at every
    finite input.  Five
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
    core = _unit(x0, y0, tols)
    x0, y0 = core.x0, core.y0
    res = _result(core)
    rng = np.random.default_rng(_int_at_least(seed, "seed", 0))
    items: dict[str, CheckItem] = {}

    def record(name: str, residual: float, tol: float) -> None:
        residual = float(residual)
        items[name] = CheckItem(bool(residual <= tol), residual, tol)

    tag = res.tag
    c = core.k
    nx, ny = math.sqrt(core.xx) * c, math.sqrt(core.yy) * c
    scale = 1.0 + nx + ny
    half = res.half_dist_sq

    # Near the degenerate ray the raw block_solve candidates lose precision and
    # the minimizing direction is fixed only to about eps/|x0 - y0|, so there
    # the exact-match items other than stationarity give way to the stability bound.
    near_ray = tag is CaseTag.GENERIC and abs(1.0 - res.lam * res.lam) < FALLBACK_BAND
    safe_generic = tag is CaseTag.GENERIC and not near_ray

    # emitted points: the singleton, or the canonical pair + sampled members
    emitted = res.selections()
    if res.is_set_valued:
        emitted += [p for _, p in _line_members(core, rng.standard_normal((2, x0.size)))]
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

    top = _spectral(core)[0]
    low = 0.5 * core.xx - 0.5 * max(top, 0.0)
    record("subspace_lower", 0.5 * (res.dist / c) ** 2 - low, 1e-9)

    if tag is not CaseTag.ORTHOGONAL:
        record("vieta", abs(core.lam * core.lam_plus - 1.0), 1e-10)

    if tag is CaseTag.GENERIC:
        # both roots solve the multiplier quadratic (1 + lam^2) q = lam S
        q, s = core.q * c * c, (core.xx + core.yy) * c * c
        root_res = max(abs((1.0 + lam * lam) * q - lam * s) for lam in (core.lam, core.lam_plus))
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
