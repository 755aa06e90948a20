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
``eigvalsh`` on span{x0, y0} and bundles it with the Lagrangian oracle and
the module invariants into a pass/fail battery for one input; failures are
data, not exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SingularSystem
from .linalg import Pair, _sphere_lattice, block_solve, norm
from .projection import (  # noqa: F401 -- classify stays bound for bench/tracing.py
    DEFAULT_TOLS,
    CaseTag,
    SingletonProjection,
    Tolerances,
    _assemble,
    _family_member,
    _objective,
    _reduce,
    _Reduction,
    classify,
    membership_residual,
    project,
)

#: Within this width of |1 - lam^2| the raw ``block_solve`` candidates lose
#: precision, so :func:`check` compares project's point with them only outside.
FALLBACK_BAND = 1e-6

#: Objectives within this band of the minimum count as tied.
TIE_TOL = 1e-12

#: Grid sweeps up to this many lattice points are evaluated directly; for
#: n = 3 beyond it the separable row reduction kicks in.
_DIRECT_GRID_LIMIT = 2_000_000

#: Multipliers sampled by :func:`check` for its two identity items.
_N_LAMBDA = 20


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


class _Tracker:
    """Streaming minimum over direction candidates.

    Keeps the running best objective, a banded tie count, and the
    lexicographically smallest direction among the tied candidates so the
    selected minimizer does not depend on evaluation order.
    """

    def __init__(self) -> None:
        self.best = math.inf
        self.best_u: np.ndarray | None = None
        self.tie_count = 0
        self.examined = 0

    def offer(self, fs: np.ndarray, us: np.ndarray, examined: int | None = None) -> None:
        self.examined += len(fs) if examined is None else examined
        m = float(fs.min())
        if m < self.best - TIE_TOL:
            self.best = m
            self.tie_count = 0
            self.best_u = None
        elif m < self.best:
            self.best = m
        mask = fs <= self.best + TIE_TOL
        hits = int(np.count_nonzero(mask))
        if hits:
            self.tie_count += hits
            u = _lex_min_rows(us[mask])
            if self.best_u is None or tuple(u) < tuple(self.best_u):
                self.best_u = u


def _lex_min_rows(us: np.ndarray) -> np.ndarray:
    """Lexicographically smallest row of a 2-D array."""
    idx = np.arange(us.shape[0])
    for col in range(us.shape[1]):
        vals = us[idx, col]
        idx = idx[vals == vals.min()]
        if idx.size == 1:
            break
    return us[idx[0]].copy()


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
    return _lagrangian(_reduce(x0, y0, tols), tols)


def _lagrangian(core: _Reduction, tols: Tolerances) -> OracleReport:
    # the sweep of lagrangian_oracle on an input already reduced at tols
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
    cands.append(Pair(zero, y0))
    cands.append(Pair(x0, zero))

    mem_tol = tols.membership * core.band_scale
    feasible = [p for p in cands if membership_residual(p) <= mem_tol]
    objs = [_objective(p, x0, y0) for p in feasible]
    i = int(np.argmin(objs))
    best, best_obj = feasible[i], float(objs[i])
    ties = [
        p for j, (p, f) in enumerate(zip(feasible, objs))
        if j != i and f <= best_obj + TIE_TOL
    ]
    return OracleReport(
        mode="lagrangian",
        best_point=best,
        best_objective=best_obj,
        gap_vs_formula=best_obj - core.half_dist_sq,
        candidates_examined=len(cands),
        tie_count=1 + len(ties),
        ties=ties[:16],
    )


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
    resolution = int(resolution)
    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    n = x0.size

    tracker = _Tracker()
    zero_u = np.zeros((1, n))
    tracker.offer(np.array([0.5 * float(np.dot(x0, x0))]), zero_u)

    if n == 1:
        # the only line in R^1; u and -u span the same subspace
        us = np.array([[1.0]])
        tracker.offer(_subspace_objectives(x0, y0, us), us)
    elif n == 3 and resolution**2 > _DIRECT_GRID_LIMIT:
        us = _grid3_row_candidates(x0, y0, resolution)
        tracker.offer(_subspace_objectives(x0, y0, us), us, examined=resolution**2)
    else:
        for us in _sphere_lattice(n, resolution):
            tracker.offer(_subspace_objectives(x0, y0, us), us)

    u = tracker.best_u
    if u is None or not np.any(u):
        best = Pair(np.zeros_like(x0), y0)
    else:
        best = _family_member(core.xs, core.ys, u, core.k)
    best_obj = float(_objective(best, x0, y0))
    return OracleReport(
        mode="subspace_grid",
        best_point=best,
        best_objective=best_obj,
        gap_vs_formula=best_obj - core.half_dist_sq,
        candidates_examined=tracker.examined,
        tie_count=max(tracker.tie_count, 1),
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
    x0, y0 = core.x0 / core.c, core.y0 / core.c
    b = np.linalg.qr(np.stack((x0, y0), axis=1))[0]
    bx, by = x0 @ b, y0 @ b
    top = np.linalg.eigvalsh(np.outer(bx, bx) - np.outer(by, by))[-1]
    return 0.5 * float(x0.dot(x0)) - 0.5 * max(float(top), 0.0)


class CheckItem(NamedTuple):
    passed: bool
    residual: float
    tol: float


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


def _random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 1:
        return np.array([[-1.0]])
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def _sample_multipliers(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` draws uniform on [-3, 3] with |1 - lam^2| >= 0.15, taking from
    ``rng`` exactly what a loop drawing and rejecting one at a time takes."""
    lams = np.empty(0)
    while lams.size < count:
        draw = rng.uniform(-3.0, 3.0, count - lams.size)
        lams = np.concatenate((lams, draw[np.abs(1.0 - draw * draw) >= 0.15]))
    return lams


def check(x0, y0, seed: int = 0, tols: Tolerances = DEFAULT_TOLS) -> CheckReport:
    """Run projection, the oracles, and the module invariants on one input.

    Every verdict is a (passed, residual, tol) triple; nothing raises on a
    failed invariant.  ``subspace_lower`` compares the formula with the
    exact subspace minimum of :func:`_spectral`, in every dimension.  The
    exact-equality invariants (oracle match, stationarity, strict ordering
    of the multiplier branches) compare :func:`project`'s point with the
    raw ``block_solve`` candidates, so they apply only to safely generic
    inputs, |1 - lam^2| >= FALLBACK_BAND; nearer the degenerate ray those
    candidates lose precision, and the stability bound is checked instead.
    The identity items ``orthogonality_quadratic`` and
    ``objective_closed_form`` sweep all sampled multipliers in one array
    pass and match the one-at-a-time scalar loop up to rounding.
    """
    core = _reduce(x0, y0, tols)
    x0, y0, lams = core.x0, core.y0, core.lams
    rng = np.random.default_rng(seed)
    items: dict[str, CheckItem] = {}

    def record(name: str, residual: float, tol: float) -> None:
        residual = float(residual)
        items[name] = CheckItem(bool(residual <= tol), residual, tol)

    res = _assemble(core)
    tag = res.tag
    c = core.c
    nx, ny = core.nx * c, core.ny * c
    scale = 1.0 + nx + ny
    mem_tol = tols.membership * core.band_scale
    half = res.half_dist_sq

    singleton = isinstance(res, SingletonProjection)
    safe_generic = (
        tag is CaseTag.GENERIC
        and singleton
        and abs(1.0 - res.lam * res.lam) >= FALLBACK_BAND
    )

    # emitted points: the singleton, or base + canonical + sampled members
    if singleton:
        emitted = [res.point]
    else:
        emitted = [res.base, res.canonical[1]]
        for _ in range(2):
            u = rng.standard_normal(x0.size)
            u /= np.linalg.norm(u)
            emitted.append(res.member(u))
    record("feasible", max(membership_residual(p) for p in emitted), mem_tol)

    lag = _lagrangian(core, tols)
    record("lagrangian_lower", -lag.gap_vs_formula, 1e-9)
    if tag is CaseTag.GENERIC and not safe_generic:
        canon_best = min(
            _objective(Pair(np.zeros_like(x0), y0), x0, y0),
            _objective(Pair(x0, np.zeros_like(y0)), x0, y0),
        )
        record("stability", _objective(res.point, x0, y0) - canon_best, 1e-7)
    else:
        record("lagrangian_match", abs(lag.gap_vs_formula), 1e-10 * (1.0 + abs(half)))
    if safe_generic:
        dx = lag.best_point.x - res.point.x
        dy = lag.best_point.y - res.point.y
        record("point_match", norm(dx) + norm(dy), 1e-8 * scale)

    record("subspace_lower", (core.half - _spectral(core)) * c * c, 1e-9)

    if tag is not CaseTag.ORTHOGONAL:
        record("vieta", abs(lams.lambda_minus * lams.lambda_plus - 1.0), 1e-10)

        q, s = core.q * c * c, core.s * c * c
        # quadratic root residual plus the orthogonality identity at random
        # multipliers: <x,y>*(1-lam^2)^2 == (1+lam^2) q - lam s
        root_res = max(
            abs((1.0 + lam * lam) * q - lam * s) for lam in lams
        ) if tag is CaseTag.GENERIC else 0.0
        # all sampled multipliers in one (_N_LAMBDA, n) array pass
        lam = _sample_multipliers(rng, _N_LAMBDA)
        cand = block_solve(lam[:, None], Pair(x0, y0))
        den2 = (1.0 - lam * lam) ** 2
        lhs = np.vecdot(cand.x, cand.y) * den2
        ident = np.abs(lhs - ((1.0 + lam * lam) * q - lam * s)) / (1.0 + s)
        f_formula = lam * lam / (2.0 * den2) * ((1.0 + lam * lam) * s - 4.0 * lam * q)
        closed = np.abs(_objective(cand, x0, y0) - f_formula) / (1.0 + np.abs(f_formula))
        record("orthogonality_quadratic", ident.max(initial=root_res / (1.0 + s)), 1e-10)
        record("objective_closed_form", closed.max(initial=0.0), 1e-10)

    if safe_generic:
        pt = res.point
        stat = (
            norm(pt.x + res.lam * pt.y - x0) + norm(pt.y + res.lam * pt.x - y0)
        ) / scale
        record("stationarity", stat, 1e-10)
        f_plus = _objective(block_solve(lams.lambda_plus, Pair(x0, y0)), x0, y0)
        record("plus_branch_larger", half - f_plus, 1e-12 * (1.0 + abs(half)))

    if singleton:
        if tag is CaseTag.ORTHOGONAL or safe_generic:
            record(
                "objective_identity",
                abs(_objective(res.point, x0, y0) - half) / (1.0 + abs(half)),
                1e-10,
            )
            # every singleton is a subspace pair for U = span of its x part
            if norm(res.point.x) <= 1e-9 * (1.0 + nx):
                cand_pt = Pair(np.zeros_like(x0), y0)
            else:
                u = res.point.x / norm(res.point.x)
                cand_pt = _family_member(x0, y0, u)
            record(
                "subspace_reduction",
                (norm(cand_pt.x - res.point.x) + norm(cand_pt.y - res.point.y)) / scale,
                1e-9,
            )
    else:
        spread = [_objective(p, x0, y0) for p in emitted]
        record(
            "objective_identity",
            max(abs(f - half) for f in spread) / (1.0 + abs(half)),
            1e-10,
        )
        record(
            "degenerate_spread",
            (max(spread) - min(spread)) / (1.0 + abs(half)),
            1e-10,
        )

    # close to the degenerate ray the minimizing direction is only determined
    # to about eps/|x0 - y0|, so symmetry of the exact coordinates cannot be
    # expected; tag, multiplier, and distance remain comparable there.
    compare_points = safe_generic or not singleton or tag is CaseTag.ORTHOGONAL
    record(
        "homogeneity",
        _homogeneity_residual(res, x0, y0, tols, compare_points) / scale,
        1e-9,
    )
    record("swap", _swap_residual(res, x0, y0, tols, compare_points) / scale, 1e-9)
    rot = _random_rotation(rng, x0.size)
    record(
        "rotation",
        _rotation_residual(res, x0, y0, rot, tols, compare_points) / scale,
        1e-9,
    )

    hull_res = max(
        membership_residual(Pair(2.0 * x0, np.zeros_like(y0))),
        membership_residual(Pair(np.zeros_like(x0), 2.0 * y0)),
        norm(0.5 * (2.0 * x0) - x0),
        norm(0.5 * (2.0 * y0) - y0),
    )
    record("convex_hull", hull_res, 0.0)

    return CheckReport(case=tag, items=items)


def _pair_diff(a: Pair, b: Pair) -> float:
    return norm(a.x - b.x) + norm(a.y - b.y)


def _homogeneity_residual(res, x0, y0, tols, compare_points: bool) -> float:
    worst = 0.0
    for t in (0.5, 2.0, 10.0):
        scaled = project(t * x0, t * y0, tols)
        if scaled.tag is not res.tag:
            return math.inf
        worst = max(
            worst,
            abs(scaled.half_dist_sq - t * t * res.half_dist_sq) / (t * t),
        )
        if compare_points:
            for a, b in zip(scaled.selections(), res.selections()):
                worst = max(worst, _pair_diff(a, Pair(t * b.x, t * b.y)) / t)
        if isinstance(res, SingletonProjection):
            worst = max(worst, abs(scaled.lam - res.lam))
    return worst


def _swap_residual(res, x0, y0, tols, compare_points: bool) -> float:
    swapped = project(y0, x0, tols)
    if swapped.tag is not res.tag:
        return math.inf
    worst = abs(swapped.half_dist_sq - res.half_dist_sq)
    if isinstance(res, SingletonProjection):
        worst = max(worst, abs(swapped.lam - res.lam))
        if compare_points:
            worst = max(worst, _pair_diff(swapped.point, Pair(res.point.y, res.point.x)))
    else:
        # canonical selections swap as a set: {(0,x0),(y0,0)} vs {(y0,0),(0,x0)}
        worst = max(
            worst,
            _pair_diff(swapped.canonical[0], Pair(res.canonical[1].y, res.canonical[1].x)),
        )
        worst = max(
            worst,
            _pair_diff(swapped.canonical[1], Pair(res.canonical[0].y, res.canonical[0].x)),
        )
    return worst


def _rotation_residual(res, x0, y0, rot, tols, compare_points: bool) -> float:
    rotated = project(rot @ x0, rot @ y0, tols)
    if rotated.tag is not res.tag:
        return math.inf
    worst = abs(rotated.half_dist_sq - res.half_dist_sq)
    if compare_points:
        for a, b in zip(rotated.selections(), res.selections()):
            worst = max(worst, _pair_diff(a, Pair(rot @ b.x, rot @ b.y)))
    return worst
