"""Exact nearest-point projection onto the cross.

The cross is the set of orthogonal pairs C = {(x, y) : <x, y> = 0} in
R^n x R^n.  It is a nonconvex cone, so the nearest-point mapping is set
valued in general; it falls into exactly one of three cases for an input
(x0, y0):

* ``orthogonal``  -- <x0, y0> = 0: the input already lies in C and is its
  own (unique) projection.
* ``generic``     -- <x0, y0> != 0 and x0 != +-y0: the projection is the
  unique solution of the stationarity system x + lam*y = x0,
  y + lam*x = y0, with lam the small root of the multiplier quadratic
  q*lam^2 - S*lam + q = 0   (q = <x0, y0>, S = |x0|^2 + |y0|^2).
* ``degenerate``  -- <x0, y0> != 0 and x0 = +-y0: every unit direction u
  yields a nearest point (<u, x0> u, y0 - <u, y0> u), plus the base point
  (0, y0); the set has the cardinality of the unit sphere and is
  represented lazily.

Classification uses relative tolerance bands, evaluated at unit scale by
the one numeric core :func:`_reduce` behind every public function (exact
trichotomies do not survive floating point); the band widths live in
:class:`Tolerances` and every result carries its tag so callers can re-classify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import CaseError, DimensionMismatch, DomainError
from .linalg import Pair, as_vector, block_solve, inner
from .linalg import norm  # noqa: F401 -- stays bound for bench/tracing.py
from .linalg import _pow2_scale, _require_unit, _sphere_lattice, _vector_inf


class CaseTag(Enum):
    """Which branch of the projection trichotomy an input falls into."""

    ORTHOGONAL = "orthogonal"
    GENERIC = "generic"
    DEGENERATE_PLUS = "degenerate_plus"
    DEGENERATE_MINUS = "degenerate_minus"

    @property
    def is_degenerate(self) -> bool:
        return self in (CaseTag.DEGENERATE_PLUS, CaseTag.DEGENERATE_MINUS)


@dataclass(frozen=True)
class Tolerances:
    """Relative classification bands and the feasibility certificate scale.

    Every band is evaluated at unit scale, on (x0/c, y0/c) for the power of
    two c with max(|x0|_inf, |y0|_inf)/c in [0.5, 1), so tags are invariant
    under scaling the input from about 1e-300 to 1e300.

    ``orth``: |<x0,y0>| <= orth * (1 + |x0||y0|) classifies as orthogonal.
    ``deg``:  min(|x0-y0|, |x0+y0|) <= deg * (|x0|+|y0|) classifies as
    degenerate (checked after the orthogonal band; precedence resolves the
    overlap at the origin).  ``membership`` scales feasibility checks:
    a pair counts as lying in the cross when
    |<x,y>| <= membership * (1 + |x0||y0|) at unit scale, times c^2.
    """

    orth: float = 1e-12
    deg: float = 1e-12
    membership: float = 1e-9


DEFAULT_TOLS = Tolerances()


class LambdaPair(NamedTuple):
    """Both roots of the multiplier quadratic; their product is 1."""

    lambda_minus: float
    lambda_plus: float


def _fill_dist(self) -> None:
    # a result built without its distance takes it from half_dist_sq
    if self.dist is None:
        object.__setattr__(self, "dist", math.sqrt(max(2.0 * self.half_dist_sq, 0.0)))


@dataclass(frozen=True, eq=False)
class SingletonProjection:
    """Unique nearest point, its multiplier, half the squared distance, and
    the distance (finite for every finite input, even where its square
    overflows)."""

    tag: CaseTag
    point: Pair
    lam: float
    half_dist_sq: float
    dist: float | None = None

    __post_init__ = _fill_dist

    @property
    def is_set_valued(self) -> bool:
        return False

    def selections(self) -> list[Pair]:
        return [self.point]


@dataclass(frozen=True, eq=False)
class FamilyProjection:
    """Sphere-parametrized family of nearest points for x0 = +-y0.

    The full set is {base} | {(<u,x0> u, y0 - <u,y0> u) : |u| = 1}; it is
    stored lazily (materialize members with :meth:`member` or
    :func:`family_enumerate`).  ``canonical`` holds the two standard
    selections (0, y0) and (x0, 0), in that order.
    """

    tag: CaseTag
    x0: np.ndarray
    y0: np.ndarray
    base: Pair
    canonical: tuple[Pair, Pair]
    half_dist_sq: float
    dist: float | None = None
    _k: float = field(default=1.0, repr=False)  # the reduction's scale window

    __post_init__ = _fill_dist

    @property
    def is_set_valued(self) -> bool:
        return True

    def member(self, u) -> Pair:
        """The member for unit direction u; only u is checked."""
        u, k = _check_direction(u, self.x0.size), self._k
        return _family_member(self.x0 / k, self.y0 / k, u, k)

    def selections(self) -> list[Pair]:
        return list(self.canonical)


ProjectionResult = SingletonProjection | FamilyProjection


def _check_input(x0, y0) -> tuple[np.ndarray, np.ndarray, float]:
    # the validated arrays and max(|x0|_inf, |y0|_inf), both norms finite
    x0, mx = _vector_inf(x0, "x0")
    y0, my = _vector_inf(y0, "y0")
    if x0.size != y0.size:
        raise DimensionMismatch(f"x0 and y0 differ in dimension: {x0.size} != {y0.size}")
    return x0, y0, max(mx, my)


def _check_direction(u, n: int) -> np.ndarray:
    # a finite unit vector of dimension n
    u = as_vector(u, "u")
    if u.size != n:
        raise DimensionMismatch(f"u has dimension {u.size}, expected {n}")
    _require_unit(u)
    return u


class _Reduction(NamedTuple):
    """What the projection formula needs from one input, taken once."""

    x0: np.ndarray  # the validated input
    y0: np.ndarray
    tag: CaseTag
    lams: LambdaPair | None  # roots of the multiplier quadratic; None if orthogonal
    half: float  # half the squared distance to the cross, at unit scale
    band_scale: float  # 1 + |x0||y0| at unit scale, times c^2
    c: float  # the power-of-two scale of the input
    q: float  # <x0, y0> / c^2
    s: float  # (|x0|^2 + |y0|^2) / c^2
    nx: float  # |x0| / c
    ny: float  # |y0| / c
    xs: np.ndarray  # (x0, y0) / k, the arrays the reductions were taken on
    ys: np.ndarray
    k: float  # 1 for c within 2^+-200, else c

    @property
    def half_dist_sq(self) -> float:
        return self.half * self.c * self.c

    @property
    def dist(self) -> float:
        # finite for every finite input: only the square may overflow
        return self.c * math.sqrt(2.0 * self.half)


def _reduce(x0, y0, tols: Tolerances) -> _Reduction:
    """Validate, then classify and solve at unit scale, on (x0/c, y0/c).

    The small root is 2q / (S + P), P = |x0+y0| |x0-y0| = d sqrt(S + 2|q|) with
    d^2 = S - 2|q|: nothing cancels as q -> 0, and d^2 is summed from the
    arrays where the subtraction would lose more than a bit, below S/2.
    """
    x0, y0, m = _check_input(x0, y0)
    c = _pow2_scale(m)
    # For c between 2^-200 and 2^200 no sum of squares overflows and what
    # underflows lies far below its last bit, so the arrays are not divided:
    # their reductions are brought to unit scale by the exact f = 1/c^2.
    k = 1.0 if 2.0**-200 < c < 2.0**200 else c
    xs, ys = (x0, y0) if k == 1.0 else (x0 / k, y0 / k)
    f = (k / c) ** 2
    q = float(xs.dot(ys)) * f
    xx = float(xs.dot(xs)) * f
    yy = float(ys.dot(ys)) * f
    nx, ny = math.sqrt(xx), math.sqrt(yy)
    s = xx + yy
    band = 1.0 + nx * ny
    tag, lams, half = CaseTag.ORTHOGONAL, None, 0.0
    if abs(q) > tols.orth * band:
        d2 = s - 2.0 * abs(q)
        if d2 < 0.5 * s:
            d2 = float((v := xs - ys if q > 0.0 else xs + ys).dot(v)) * f
        d = math.sqrt(d2)
        sp = s + d * math.sqrt(s + 2.0 * abs(q))
        lams = LambdaPair(2.0 * q / sp, sp / (2.0 * q))
        if d <= tols.deg * (nx + ny):
            tag = CaseTag.DEGENERATE_PLUS if q > 0.0 else CaseTag.DEGENERATE_MINUS
            half = 0.25 * s
        else:
            tag, half = CaseTag.GENERIC, 0.5 * lams.lambda_minus * q
    return _Reduction(x0, y0, tag, lams, half, band * c * c, c, q, s, nx, ny, xs, ys, k)


def membership(p: Pair, tol: float) -> bool:
    """Whether |<p.x, p.y>| <= tol."""
    if tol < 0.0:
        raise DomainError("membership tolerance must be nonnegative")
    return abs(inner(p.x, p.y)) <= tol


def membership_residual(p: Pair) -> float:
    """|<p.x, p.y>|, the amount by which a pair misses the cross."""
    return abs(inner(p.x, p.y))


def classify(x0, y0, tols: Tolerances = DEFAULT_TOLS) -> CaseTag:
    """Classify (x0, y0) into the projection trichotomy.

    Precedence: orthogonal band first (this absorbs the origin), then the
    degenerate bands, then generic.  The bands are evaluated at unit scale,
    so the tag of (t x0, t y0) is the same for t from about 1e-300 to 1e300.
    """
    return _reduce(x0, y0, tols).tag


def solve_lambda(x0, y0) -> LambdaPair:
    """Both roots of q*lam^2 - S*lam + q = 0 for q = <x0,y0> != 0, taken
    without cancellation at unit scale (see :func:`_reduce`)."""
    lams = _reduce(x0, y0, DEFAULT_TOLS).lams
    if lams is None:
        raise CaseError("multiplier quadratic undefined: <x0, y0> is (numerically) zero")
    return lams


def candidate(lam: float, x0, y0) -> Pair:
    """Stationary pair for a given multiplier.

    Solves x + lam*y = x0 and y + lam*x = y0; for |lam| != 1 this has the
    unique solution ((x0 - lam*y0)/(1 - lam^2), (y0 - lam*x0)/(1 - lam^2)).
    """
    x0, y0, _ = _check_input(x0, y0)
    return block_solve(lam, Pair(x0, y0))


def objective(p: Pair, x0, y0) -> float:
    """Half squared displacement: 0.5*|p.x - x0|^2 + 0.5*|p.y - y0|^2."""
    return float(_objective(p, *_check_input(x0, y0)[:2]))


def _objective(p: Pair, x0: np.ndarray, y0: np.ndarray) -> float | np.ndarray:
    # summed over the last axis: (k, n) parts give the k objectives
    dx = p.x - x0
    dy = p.y - y0
    return 0.5 * np.vecdot(dx, dx) + 0.5 * np.vecdot(dy, dy)


def _family_member(xs: np.ndarray, ys: np.ndarray, u: np.ndarray, k: float = 1.0) -> Pair:
    # (<u,x0> u, y0 - <u,y0> u) from (xs, ys) = (x0, y0)/k; orthogonal for unit u
    x, y = float(u.dot(xs)) * u, ys - float(u.dot(ys)) * u
    if k != 1.0:  # in place: fresh arrays here made malloc re-fault heap pages at n = 10^4
        x *= k
        y *= k
    return Pair(x, y)


def project(x0, y0, tols: Tolerances = DEFAULT_TOLS) -> ProjectionResult:
    """Nearest point(s) of the cross to (x0, y0).

    Returns a :class:`SingletonProjection` in the orthogonal and generic
    cases and a :class:`FamilyProjection` in the degenerate case
    (x0 = +-y0 up to the classification band), where half the squared
    distance is (|x0|^2 + |y0|^2)/4 independently of the selected member.

    In the generic case the solution is the multiplier candidate at the
    small root lam; half the squared distance is lam*<x0,y0>/2, which also
    equals (S - |x0+y0||x0-y0|)/4.  The point is the subspace pair
    (P_U x0, P_{U-perp} y0), not the quotient by 1 - lam^2, which is
    ill-conditioned near the degenerate ray: U is spanned by the longer of
    x0 - lam*y0 = (1 - lam^2) x and y0 - lam*x0 = (1 - lam^2) y, and the
    pair is formed on the arrays that were reduced, at unit scale outside
    2^+-200, so each coordinate is finite even where the point's norm is not.
    """
    return _assemble(_reduce(x0, y0, tols))


def _assemble(core: _Reduction) -> ProjectionResult:
    # the result of project on an input already reduced
    x0, y0 = core.x0, core.y0
    if core.tag is CaseTag.ORTHOGONAL:
        return SingletonProjection(core.tag, Pair(x0, y0), 0.0, 0.0, 0.0)
    if core.tag.is_degenerate:
        zero = np.zeros_like(x0)
        base = Pair(zero, y0)
        canonical = (base, Pair(x0, zero))
        return FamilyProjection(
            core.tag, x0, y0, base, canonical, core.half_dist_sq, core.dist, core.k
        )
    # U along the longer part of the solution: |x| >= |y| exactly when |x0| >= |y0|
    lam = core.lams.lambda_minus
    longer_x = core.nx >= core.ny
    xs, ys = (core.xs, core.ys) if longer_x else (core.ys, core.xs)
    w = xs - lam * ys
    a, b = _family_member(xs, ys, w / math.sqrt(float(w.dot(w))), core.k)
    point = Pair(a, b) if longer_x else Pair(b, a)
    return SingletonProjection(core.tag, point, lam, core.half_dist_sq, core.dist)


def distance_sq(x0, y0, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Squared distance from (x0, y0) to the cross, without assembling a point."""
    return 2.0 * _reduce(x0, y0, tols).half_dist_sq


def _distance(x0, y0, tols: Tolerances = DEFAULT_TOLS) -> float:
    # the distance itself, finite where its square overflows
    return _reduce(x0, y0, tols).dist


def degenerate_family(x0, y0, u, tols: Tolerances = DEFAULT_TOLS) -> Pair:
    """One member of the set-valued projection for x0 = +-y0.

    For a unit direction u the member is (<u,x0> u, y0 - <u,y0> u); its
    displacement half-cost equals (|x0|^2 + |y0|^2)/4 for every u.
    """
    core = _reduce(x0, y0, tols)
    if not core.tag.is_degenerate:
        raise CaseError(f"input is not degenerate (classified {core.tag.value})")
    return _family_member(core.xs, core.ys, _check_direction(u, core.x0.size), core.k)


def family_samples(
    x0, y0, count: int, mode: str = "grid", tols: Tolerances = DEFAULT_TOLS
) -> list[tuple[np.ndarray, Pair]]:
    """(direction, member) samples of the degenerate family.

    The base selection (0, y0) always comes first and carries the zero
    vector as its direction (it corresponds to the trivial subspace).
    Remaining members use sphere directions from a uniform angle lattice.
    In ``injective`` mode only directions with <u, x0> > 0 are emitted and
    exact duplicate points are dropped, so fewer than ``count`` samples
    may come back when the family is finite (n = 1).
    """
    core = _reduce(x0, y0, tols)
    if mode not in ("grid", "injective"):
        raise DomainError(f"unknown sampling mode {mode!r}")
    if count < 1:
        raise DomainError("count must be >= 1")
    if not core.tag.is_degenerate:
        raise CaseError(f"input is not degenerate (classified {core.tag.value})")

    n = core.x0.size
    per_angle = 2 if n == 1 else max(2, math.ceil((count - 1) ** (1.0 / (n - 1))))
    for _ in range(8):  # double the lattice resolution until count is reached
        out: list[tuple[np.ndarray, Pair]] = [(np.zeros(n), Pair(np.zeros(n), core.y0))]
        seen: set[bytes] = set()  # the members kept after the base, as exact keys
        lattice = [np.array([[1.0], [-1.0]])] if n == 1 else _sphere_lattice(n, per_angle)
        for u in (u for us in lattice for u in us):
            if len(out) == count:
                break
            if mode == "injective" and float(u.dot(core.xs)) <= 0.0:
                continue
            point = _family_member(core.xs, core.ys, u, core.k)
            if mode == "injective":
                # + 0.0 turns -0.0 into 0.0, so equal keys mean equal points
                key = (point.x + 0.0).tobytes() + (point.y + 0.0).tobytes()
                if key in seen:
                    continue
                seen.add(key)
            out.append((u, point))
        if len(out) == count or n == 1:
            break
        per_angle *= 2
    return out


def family_enumerate(
    x0, y0, count: int, mode: str = "grid", tols: Tolerances = DEFAULT_TOLS
) -> list[Pair]:
    """Members of the degenerate family: the base point plus sphere samples."""
    return [point for _, point in family_samples(x0, y0, count, mode, tols)]


def project_1d(x0: float, y0: float, tols: Tolerances = DEFAULT_TOLS) -> ProjectionResult:
    """Scalar form of :func:`project` for n = 1, where the cross is the two axes.

    The nearest point is (0, y0) when |x0| < |y0| and (x0, 0) when
    |x0| > |y0|; for |x0| = |y0| != 0 both axes are equally close and the
    result is the two-point family {(x0, 0), (0, y0)}.  It is :func:`project`
    on length-1 arrays, whose unit direction is exactly +-1 at n = 1, so a
    generic point lies exactly on its axis.
    """
    return project(np.array([float(x0)]), np.array([float(y0)]), tols)
