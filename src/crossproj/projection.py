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
  yields a nearest point (<u, x0> u, y0 - <u, y0> u), plus the point
  (0, y0); the set has the cardinality of the unit sphere and is
  represented lazily.

Classification uses relative tolerance bands (exact trichotomies do not
survive floating point); the band widths live in :class:`Tolerances` and
every result carries its tag so callers can re-classify.  Both bands are
homogeneous, so they are read at whatever scale the reductions are taken:
:func:`project` reads an in-window input's raw reductions and divides every
other input by its power-of-two scale c first, both through :func:`_roots`
and :func:`_result`; :func:`_reduce` keeps the unit-scale record for the
callers that need c itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import CaseError, DimensionMismatch, DomainError
from .linalg import Pair, as_pair, as_vector, inner
from .linalg import block_solve, norm  # noqa: F401 -- stays bound for bench/tracing.py
from .linalg import _positive_int, _pow2_scale, _require_unit, _sphere_lattice, _vector_inf


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
    """Relative classification bands: 0 <= orth < 0.5 and 0 <= deg < 1.

    ``orth``: |<x0,y0>| <= orth * (M + |x0||y0|), M = max(|x0|^2, |y0|^2),
    classifies as orthogonal.
    ``deg``:  min(|x0-y0|, |x0+y0|) <= deg * (|x0|+|y0|) classifies as
    degenerate (checked after the orthogonal band; precedence resolves the
    overlap at the origin).

    The limits keep each band from holding every input: |<x0,y0>| <= |x0||y0|
    <= (M + |x0||y0|)/2 and min(|x0-y0|, |x0+y0|) <= |x0|+|y0| always hold.

    Both bands are homogeneous: scaling the input by t scales both sides of
    each by t^2 (orthogonal) or t (degenerate), so tags are invariant under
    scaling the input across the float64 range.
    """

    orth: float = 1e-12
    deg: float = 1e-12

    def __post_init__(self) -> None:
        for name, top in (("orth", 0.5), ("deg", 1.0)):
            if not 0.0 <= getattr(self, name) < top:
                raise DomainError(f"tolerance {name} must be finite, >= 0 and < {top:g}")


DEFAULT_TOLS = Tolerances()


class LambdaPair(NamedTuple):
    """Both roots of the multiplier quadratic; their product is 1."""

    lambda_minus: float
    lambda_plus: float


@dataclass(frozen=True, eq=False)
class SingletonProjection:
    """Unique nearest point, its multiplier, half the squared distance, and
    the distance (finite for every finite input, even where its square
    overflows)."""

    tag: CaseTag
    point: Pair
    lam: float
    half_dist_sq: float
    dist: float

    @property
    def is_set_valued(self) -> bool:
        return False

    def selections(self) -> list[Pair]:
        return [self.point]


@dataclass(frozen=True, eq=False)
class FamilyProjection:
    """Sphere-parametrized family of nearest points for x0 = +-y0.

    The full set is {(0, y0)} | {(<u,x0> u, y0 - <u,y0> u) : |u| = 1}; it is
    stored lazily (materialize members with :meth:`member` or
    :func:`family_samples`).  ``canonical`` holds the two standard
    selections (0, y0) and (x0, 0), in that order.
    """

    tag: CaseTag
    x0: np.ndarray
    y0: np.ndarray
    canonical: tuple[Pair, Pair]
    half_dist_sq: float
    dist: float
    _k: float = field(default=1.0, repr=False)  # the scale its reductions were taken at

    @property
    def is_set_valued(self) -> bool:
        return True

    def member(self, u) -> Pair:
        """The member for unit direction u; only u is checked (finite, dimension n, unit)."""
        u, n, k = as_vector(u, "u"), self.x0.size, self._k
        if u.size != n:
            raise DimensionMismatch(f"u has dimension {u.size}, expected {n}")
        _require_unit(u)
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


class _Reduction(NamedTuple):
    """What the projection formula needs from one input, taken once at unit
    scale, on (x0/c, y0/c)."""

    x0: np.ndarray  # the validated input
    y0: np.ndarray
    tag: CaseTag
    lams: LambdaPair | None  # roots of the multiplier quadratic; None if orthogonal
    half: float  # half the squared distance to the cross, at unit scale
    c: float  # the power-of-two scale of the input
    q: float  # <x0, y0> / c^2
    s: float  # (|x0|^2 + |y0|^2) / c^2
    nx: float  # |x0| / c
    ny: float  # |y0| / c
    xs: np.ndarray  # (x0, y0) / c, the arrays the reductions were taken on
    ys: np.ndarray

    @property
    def half_dist_sq(self) -> float:
        return self.half * self.c * self.c


#: project reads the raw sums of squares where both lie below _SQ_HI and the
#: larger above n _SQ_LO: every coordinate is then finite, and the raw reductions
#: keep the bits of those at unit scale times c^2, as c lies within 2^+-199.
_SQ_HI = 2.0**396
_SQ_LO = 2.0**-396

#: Bands narrower than this take unit scale: the edge of such a band may lie
#: among products that underflow in the raw reductions but not at unit scale.
_TOL_MIN = 2.0**-300

# Bound once for project's path, where each lookup would cost about 1% of a
# call: np.vdot takes the bits of ndarray.dot on contiguous vectors and is
# silent on inf, NaN and overflow, and an enum member lookup is about 0.1 us.
_vdot = np.vdot
_ORTHOGONAL, _GENERIC = CaseTag.ORTHOGONAL, CaseTag.GENERIC


def _scaled(x0, y0):
    """Validate, then divide by the power-of-two scale c of the input: the
    arrays, c, (xs, ys) = (x0, y0)/c and <xs, ys>, |xs|^2, |ys|^2."""
    x0, y0, m = _check_input(x0, y0)
    c = _pow2_scale(m)
    xs, ys = x0 / c, y0 / c
    return x0, y0, c, xs, ys, float(xs.dot(ys)), float(xs.dot(xs)), float(ys.dot(ys))


def _roots(q: float, s: float, band: float, xs: np.ndarray, ys: np.ndarray):
    """Tag, both multiplier roots and half the squared distance of an input
    outside the orthogonal band, all at the scale g of (xs, ys) = (x0, y0)/g:
    q = <xs, ys>, s = |xs|^2 + |ys|^2 and band = deg (|xs| + |ys|).  Every step
    is homogeneous, so the raw scale g = 1 gives the bits of unit scale times
    powers of two wherever no quantity is subnormal.

    The small root is 2q / (S + P), P = |x0+y0| |x0-y0| = d sqrt(S + 2|q|) with
    d^2 = S - 2|q|: nothing cancels as q -> 0, and d^2 is summed from the
    arrays where the subtraction would lose more than a bit, below S/2.
    """
    d2 = s - 2.0 * abs(q)
    if d2 < 0.5 * s:
        d2 = float((v := xs - ys if q > 0.0 else xs + ys).dot(v))
    d = math.sqrt(d2)
    sp = s + d * math.sqrt(s + 2.0 * abs(q))
    lam, lam_plus = 2.0 * q / sp, sp / (2.0 * q)
    if d <= band:
        tag = CaseTag.DEGENERATE_PLUS if q > 0.0 else CaseTag.DEGENERATE_MINUS
        return tag, lam, lam_plus, 0.25 * s
    return _GENERIC, lam, lam_plus, 0.5 * lam * q


def _reduce(x0, y0, tols: Tolerances) -> _Reduction:
    """Validate, then classify and solve at unit scale, on (x0/c, y0/c): the
    record ``check``, the oracles and :func:`family_samples` read, as they
    need the exact scale c."""
    x0, y0, c, xs, ys, q, xx, yy = _scaled(x0, y0)
    nx, ny = math.sqrt(xx), math.sqrt(yy)
    tag, lams, half = CaseTag.ORTHOGONAL, None, 0.0
    if abs(q) > tols.orth * ((xx if xx > yy else yy) + nx * ny):
        tag, lam, lam_plus, half = _roots(q, xx + yy, tols.deg * (nx + ny), xs, ys)
        lams = LambdaPair(lam, lam_plus)
    return _Reduction(x0, y0, tag, lams, half, c, q, xx + yy, nx, ny, xs, ys)


def membership_residual(p: Pair) -> float:
    """|<p.x, p.y>|, the amount by which a finite pair misses the cross.  Outside
    2^+-200 it is taken at the pair's power-of-two scale, then scaled back."""
    x, y = as_pair(*p)
    c = _pow2_scale(max(float(np.abs(v).max()) for v in (x, y)))
    k = 1.0 if 2.0**-200 < c < 2.0**200 else c
    return abs(inner(x / k, y / k)) * k * k


def classify(x0, y0, tols: Tolerances = DEFAULT_TOLS) -> CaseTag:
    """Classify (x0, y0) into the projection trichotomy.

    Precedence: orthogonal band first (this absorbs the origin), then the
    degenerate bands, then generic.  Both bands are homogeneous (see
    :class:`Tolerances`), so (t x0, t y0) has the same tag for every t that
    keeps it exact: taken at unit scale, on (x0/c, y0/c), as by :func:`project`.
    """
    return _reduce(x0, y0, tols).tag


def solve_lambda(x0, y0) -> LambdaPair:
    """Both roots of q*lam^2 - S*lam + q = 0 for q = <x0,y0> != 0, taken
    without cancellation at unit scale (see :func:`_reduce`)."""
    lams = _reduce(x0, y0, DEFAULT_TOLS).lams
    if lams is None:
        raise CaseError("multiplier quadratic undefined: <x0, y0> is (numerically) zero")
    return lams


def objective(p: Pair, x0, y0) -> float:
    """Half squared displacement: 0.5*|p.x - x0|^2 + 0.5*|p.y - y0|^2, for p of
    the input's dimension."""
    x0, y0, _ = _check_input(x0, y0)
    if (np.shape(p.x), np.shape(p.y)) != (x0.shape, x0.shape):
        raise DimensionMismatch(
            f"p has shapes {np.shape(p.x)} and {np.shape(p.y)}, the input {x0.shape}")
    return float(_objective(p, x0, y0))


def _objective(p: Pair, x0: np.ndarray, y0: np.ndarray) -> float:
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
    Two floats are an input at n = 1, where the cross is the two axes: a
    generic point keeps the longer part exactly and zeroes the other.

    In the generic case the solution is the multiplier candidate at the
    small root lam; half the squared distance is lam*<x0,y0>/2, which also
    equals (S - |x0+y0||x0-y0|)/4.  With u = (x + y)/sqrt2, v = (x - y)/sqrt2
    the cross is the cone |u| = |v|, so the point scales p = x0 + y0 and
    m = x0 - y0 to the mean of their norms A and B: x, y = (A + B)/4
    (p/A +- m/B), with m exact near the ray, where the quotient by 1 - lam^2
    is ill-conditioned.  Formed at unit scale where the raw sums of squares
    leave (n 2^-396, 2^396), each coordinate is finite even where the
    point's norm is not.
    """
    # <x0,y0>, |x0|^2 and |y0|^2 decide the input through the homogeneous bands
    # (see Tolerances): as they are where the raw sums of squares lie in
    # (n 2^-396, 2^396) and both bands are at least 2^-300, else after validation
    # and division by c.  The contiguous copy gives a view a fresh array's sums.
    x0 = np.ascontiguousarray(x0, dtype=float)
    try:
        y0 = np.ascontiguousarray(y0, dtype=float)
    except Exception:
        _check_input(x0, y0)  # validation raises for x0 first, as it should
        raise
    if (x0.ndim == 1 == y0.ndim and x0.size == (n := y0.size)
            and tols.orth >= _TOL_MIN and tols.deg >= _TOL_MIN
            and (xx := float(_vdot(x0, x0))) < _SQ_HI
            and (yy := float(_vdot(y0, y0))) < _SQ_HI
            and (xx if xx > yy else yy) > n * _SQ_LO):
        q, k, xs, ys = float(_vdot(x0, y0)), 1.0, x0, y0
    else:
        x0, y0, k, xs, ys, q, xx, yy = _scaled(x0, y0)
    nx, ny = math.sqrt(xx), math.sqrt(yy)
    if not abs(q) > tols.orth * ((xx if xx > yy else yy) + nx * ny):
        return _result(_ORTHOGONAL, x0, y0, 0.0, 0.0, k, xs, ys)
    tag, lam, _, half = _roots(q, xx + yy, tols.deg * (nx + ny), xs, ys)
    return _result(tag, x0, y0, lam, half, k, xs, ys)


def _result(tag, x0, y0, lam, half, k, xs, ys) -> ProjectionResult:
    """The result of project from its classification on (xs, ys) = (x0, y0)/k:
    half the squared distance half k^2, the distance (finite where its square
    overflows) and the generic point, each scaled back by k."""
    if tag is _ORTHOGONAL:
        return SingletonProjection(tag, Pair(x0, y0), 0.0, 0.0, 0.0)
    if tag is not _GENERIC:
        zero = np.zeros_like(x0)
        canonical = (Pair(zero, y0), Pair(x0, zero))
        return FamilyProjection(tag, x0, y0, canonical, half * k * k, k * math.sqrt(2.0 * half), k)
    # project's two-norm form; p/a = +-m/b = +-1 at n = 1 keeps the point exact
    p, m = xs + ys, xs - ys
    a, b = math.sqrt(float(p.dot(p))), math.sqrt(float(m.dot(m)))
    p /= a
    m /= b
    x = p + m
    p -= m  # now y
    t = 0.25 * (a + b)
    x *= t
    p *= t
    if k != 1.0:  # apart from t, as t k may overflow or underflow
        x *= k
        p *= k
    if half >= 2.0**-1022:
        return SingletonProjection(tag, Pair(x, p), lam, half * k * k, k * math.sqrt(2.0 * half))
    # half is subnormal: 2 half = lam^2 (S + P)/2 with S + P = (a + b)^2/2 = 8 t^2
    dist = k * (2.0 * t * abs(lam))
    return SingletonProjection(tag, Pair(x, p), lam, 0.5 * dist * dist, dist)


def family_samples(
    x0, y0, count: int, mode: str = "grid", tols: Tolerances = DEFAULT_TOLS
) -> list[tuple[np.ndarray, Pair]]:
    """(direction, member) samples of the degenerate family.

    The selection (0, y0) always comes first and carries the zero
    vector as its direction (it corresponds to the trivial subspace).
    Remaining members use sphere directions from a uniform angle lattice.
    In ``injective`` mode only directions with <u, x0> > 0 are emitted and
    exact duplicate points are dropped, so fewer than ``count`` samples
    may come back when the family is finite (n = 1).
    """
    core = _reduce(x0, y0, tols)
    if mode not in ("grid", "injective"):
        raise DomainError(f"unknown sampling mode {mode!r}")
    count = _positive_int(count, "count")
    if not core.tag.is_degenerate:
        raise CaseError(f"input is not degenerate (classified {core.tag.value})")

    n = core.x0.size
    per_angle = 2 if n == 1 else max(2, math.ceil((count - 1) ** (1.0 / (n - 1))))
    for _ in range(8):  # double the lattice resolution until count is reached
        out: list[tuple[np.ndarray, Pair]] = [(np.zeros(n), Pair(np.zeros(n), core.y0))]
        seen: set[bytes] = set()  # the members kept after (0, y0), as exact keys
        # injective mode visits each pole once: its repeats give the same member
        lattice = (
            [np.array([[1.0], [-1.0]])] if n == 1
            else _sphere_lattice(n, per_angle, poles_once=mode == "injective")
        )
        for u in (u for us in lattice for u in us):
            if len(out) == count:
                break
            if mode == "injective" and float(u.dot(core.xs)) <= 0.0:
                continue
            point = _family_member(core.xs, core.ys, u, core.c)
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
