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
:func:`project` reads an in-window input's raw reductions and :func:`_unit`
divides every other input by its power-of-two scale c first; :func:`_roots`
decides both bands, :func:`_classified` gathers what they decide into one
record and :func:`_result` builds the answer from it, its generic point by
:func:`_point`.  The solvers read :func:`_classified`'s record and take
their point by :func:`_selected`, with no result built; ``check`` and the
oracles read the record of :func:`_unit`, as they need c itself.
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
from .linalg import _F64, _int_at_least, _over_pow2, _pair, _pow2_scale, _real, _require_unit


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
            object.__setattr__(self, name, _real(getattr(self, name), f"tolerance {name}"))
            if not 0.0 <= getattr(self, name) < top:
                raise DomainError(f"tolerance {name} must be finite, >= 0 and < {top:g}")


DEFAULT_TOLS = Tolerances()


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
        return _family_member(_over_pow2(self.x0, k), _over_pow2(self.y0, k), u, k)

    def selections(self) -> list[Pair]:
        return list(self.canonical)


ProjectionResult = SingletonProjection | FamilyProjection


class _Record(NamedTuple):
    """One input as classified, at the scale k its reductions were taken at:
    what :func:`_classified` gathers and :func:`_result`, the solvers,
    ``check`` and the oracles read.  Inside the orthogonal band lam,
    lam_plus, a and b read 0."""

    x0: np.ndarray  # the validated input
    y0: np.ndarray
    k: float  # 1, or the power-of-two scale c of the input
    xs: np.ndarray  # (x0, y0) / k, the arrays the reductions were taken on
    ys: np.ndarray
    q: float  # <xs, ys>
    xx: float  # |xs|^2
    yy: float  # |ys|^2
    tag: CaseTag  # then what _roots returns
    lam: float  # the small multiplier root, which a generic result carries
    lam_plus: float  # the large root, 1 / lam
    half: float  # half the squared distance to the cross, at scale k
    a: float  # |xs + ys|
    b: float  # |xs - ys|
    v: np.ndarray | None  # generic near the ray: the array d^2 was summed from, times t/d


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
# _Record._make builds a record from one tuple, cheaper than fifteen arguments.
_vdot = np.vdot
_make = _Record._make
_ORTHOGONAL, _GENERIC = CaseTag.ORTHOGONAL, CaseTag.GENERIC


def _roots(q: float, xx: float, yy: float, tols: Tolerances, xs: np.ndarray, ys: np.ndarray):
    """Tag, both multiplier roots, half the squared distance, a = |xs+ys|,
    b = |xs-ys| and, for a generic input, the array d^2 was summed from as
    part of the point (else None), all at the scale g of (xs, ys) =
    (x0, y0)/g: q = <xs, ys>, xx = |xs|^2, yy = |ys|^2.
    Both bands (see :class:`Tolerances`) are decided here; inside the
    orthogonal band the roots and norms are undefined and read 0.  Every step
    is homogeneous, so the raw scale g = 1 gives the bits of unit scale times
    powers of two wherever no quantity is subnormal.

    The small root is 2q / (S + P), P = |x0+y0| |x0-y0| = d sqrt(S + 2|q|) with
    d^2 = S - 2|q|: nothing cancels as q -> 0, and d^2 is summed from the
    arrays where the subtraction would lose more than a bit, below S/2.  That
    array is xs - ys if q > 0, else xs + ys, and d is its norm; for a generic
    input it is scaled in place by t/d, t = (a + b)/4, to the part of the
    point it gives (see :func:`_point`), so no later step writes it.
    """
    nx, ny = math.sqrt(xx), math.sqrt(yy)
    if not abs(q) > tols.orth * ((xx if xx > yy else yy) + nx * ny):
        return _ORTHOGONAL, 0.0, 0.0, 0.0, 0.0, 0.0, None
    s = xx + yy
    d2 = s - 2.0 * abs(q)
    v = None
    if d2 < 0.5 * s:
        d2 = float((v := xs - ys if q > 0.0 else xs + ys).dot(v))
    d = math.sqrt(d2)
    r = math.sqrt(s + 2.0 * abs(q))
    sp = s + d * r
    lam, lam_plus = 2.0 * q / sp, sp / (2.0 * q)
    a, b = (r, d) if q > 0.0 else (d, r)
    if d <= tols.deg * (nx + ny):
        tag = CaseTag.DEGENERATE_PLUS if q > 0.0 else CaseTag.DEGENERATE_MINUS
        return tag, lam, lam_plus, 0.25 * s, a, b, None
    if v is not None:  # its part t v/d of the point, while the array is still fresh
        v *= 0.25 * (a + b) / d
    return _GENERIC, lam, lam_plus, 0.5 * lam * q, a, b, v


def membership_residual(p: Pair) -> float:
    """|<p.x, p.y>|, the amount by which a finite pair misses the cross, as
    :func:`inner` takes it at every scale."""
    return abs(inner(*p))


def classify(x0, y0, tols: Tolerances = DEFAULT_TOLS) -> CaseTag:
    """Classify (x0, y0) into the projection trichotomy.

    Precedence: orthogonal band first (this absorbs the origin), then the
    degenerate bands, then generic.  Both bands are homogeneous (see
    :class:`Tolerances`), so (t x0, t y0) has the same tag for every t that
    keeps it exact.  It is the tag of :func:`project`, taken the same way.
    """
    return _classified(x0, y0, tols).tag


def objective(p: Pair, x0, y0) -> float:
    """Half squared displacement: 0.5*|p.x - x0|^2 + 0.5*|p.y - y0|^2, for a
    finite p of the input's dimension."""
    x0, y0, *_ = _pair(x0, y0, ("x0", "y0"))
    if (np.shape(p.x), np.shape(p.y)) != (x0.shape, x0.shape):
        raise DimensionMismatch(
            f"p has shapes {np.shape(p.x)} and {np.shape(p.y)}, the input {x0.shape}")
    return float(_objective(as_pair(*p), x0, y0))


def _objective(p: Pair, x0: np.ndarray, y0: np.ndarray) -> float:
    dx = p.x - x0
    dy = p.y - y0
    return 0.5 * np.vecdot(dx, dx) + 0.5 * np.vecdot(dy, dy)


def _family_member(xs: np.ndarray, ys: np.ndarray, u: np.ndarray, k: float = 1.0) -> Pair:
    # (<u,x0> u, y0 - <u,y0> u) from (xs, ys) = (x0, y0)/k; orthogonal for unit u
    return Pair(float(u.dot(xs)) * u * k, (ys - float(u.dot(ys)) * u) * k)


def project(x0, y0, tols: Tolerances = DEFAULT_TOLS) -> ProjectionResult:
    """Nearest point(s) of the cross to (x0, y0).

    Returns a :class:`SingletonProjection` in the orthogonal and generic
    cases and a :class:`FamilyProjection` in the degenerate case
    (x0 = +-y0 up to the classification band), where half the squared
    distance is (|x0|^2 + |y0|^2)/4 independently of the selected member.
    Two floats are an input at n = 1, where the cross is the two axes: a
    generic point is read from the input, the longer part kept exactly and
    the other zeroed.

    In the generic case the solution is the multiplier candidate at the
    small root lam; half the squared distance is lam*<x0,y0>/2, which also
    equals (S - |x0+y0||x0-y0|)/4.  With u = (x + y)/sqrt2, v = (x - y)/sqrt2
    the cross is the cone |u| = |v|, so the point scales p = x0 + y0 and
    m = x0 - y0 to the mean of their norms A and B: x, y = (A + B)/4
    (p/A +- m/B), with m exact near the ray, where the quotient by 1 - lam^2
    is ill-conditioned.  A and B are the norms the classifying reductions
    already give, so the point takes no reduction of its own.  Formed at
    unit scale where the raw sums of squares leave (n 2^-396, 2^396), each
    coordinate is finite even where the point's norm is not.
    """
    return _result(_classified(x0, y0, tols))


def _classified(x0, y0, tols: Tolerances) -> _Record:
    """The half of :func:`project` that decides the input: its record, taken
    on the raw arrays (k = 1) in the window and by :func:`_unit` elsewhere."""
    # <x0,y0>, |x0|^2 and |y0|^2 decide the input through the homogeneous bands
    # (see Tolerances): as they are where both are float64, the raw sums of
    # squares lie in (n 2^-396, 2^396) and both bands are at least 2^-300, else
    # after validation, which refuses what is not real, and division by c.  The
    # contiguous copy gives a view a fresh array's sums.
    try:
        x0, y0 = np.ascontiguousarray(x0), np.ascontiguousarray(y0)
    except ValueError:  # a ragged nesting, which validation names
        return _unit(x0, y0, tols)
    if (x0.dtype is _F64 is y0.dtype
            and x0.ndim == 1 == y0.ndim and x0.size == (n := y0.size)
            and tols.orth >= _TOL_MIN and tols.deg >= _TOL_MIN
            and (xx := float(_vdot(x0, x0))) < _SQ_HI
            and (yy := float(_vdot(y0, y0))) < _SQ_HI
            and (xx if xx > yy else yy) > n * _SQ_LO):
        q = float(_vdot(x0, y0))
        return _make((x0, y0, 1.0, x0, y0, q, xx, yy, *_roots(q, xx, yy, tols, x0, y0)))
    return _unit(x0, y0, tols)


def _unit(x0, y0, tols: Tolerances) -> _Record:
    """The record of (x0, y0) at unit scale: validate, divide by the input's
    power-of-two scale c, take <xs, ys>, |xs|^2 and |ys|^2 and run :func:`_roots`."""
    x0, y0, mx, my = _pair(x0, y0, ("x0", "y0"))
    c = _pow2_scale(max(mx, my))
    xs, ys = _over_pow2(x0, c), _over_pow2(y0, c)
    q, xx, yy = float(xs.dot(ys)), float(xs.dot(xs)), float(ys.dot(ys))
    return _make((x0, y0, c, xs, ys, q, xx, yy, *_roots(q, xx, yy, tols, xs, ys)))


def _dist(core: _Record) -> float:
    """The distance to the cross from a record: k sqrt(2 half), finite where its
    square overflows.  Where a generic half is subnormal it is read from
    2 half = lam^2 (S + P)/2, with S + P = (a + b)^2/2 = 8 t^2 and
    t = (a + b)/4, as k 2 t |lam|."""
    if core.tag is _GENERIC and core.half < 2.0**-1022:
        return core.k * (2.0 * (0.25 * (core.a + core.b)) * abs(core.lam))
    return core.k * math.sqrt(2.0 * core.half)


def _cross_distance(x0, y0) -> float:
    """``project(x0, y0).dist``, with no result built."""
    return _dist(_classified(x0, y0, DEFAULT_TOLS))


def _result(core: _Record) -> ProjectionResult:
    """The result of project from its record on (xs, ys) = (x0, y0)/k:
    half the squared distance half k^2, the distance (finite where its square
    overflows) and, from :func:`_point`, the generic point."""
    x0, y0, k, _, _, _, _, _, tag, lam, _, half, _, _, _ = core
    if tag is _ORTHOGONAL:
        return SingletonProjection(tag, Pair(x0, y0), 0.0, 0.0, 0.0)
    dist = _dist(core)
    if tag is not _GENERIC:  # the family's two standard selections, (0, y0) and (x0, 0)
        zero = np.zeros_like(x0)
        canonical = Pair(zero, y0), Pair(x0, zero)
        return FamilyProjection(tag, x0, y0, canonical, half * k * k, dist, k)
    half_dist_sq = half * k * k if half >= 2.0**-1022 else 0.5 * dist * dist  # see _dist
    return SingletonProjection(tag, _point(core), lam, half_dist_sq, dist)


def _selected(core: _Record) -> Pair:
    """The point a solver step takes from project's answer, with no result
    built: the generic point, the input itself where orthogonal, else the
    family's first canonical member, (0, y0)."""
    tag = core.tag
    if tag is _GENERIC:
        return _point(core)
    if tag is _ORTHOGONAL:
        return Pair(core.x0, core.y0)
    return Pair(np.zeros_like(core.x0), core.y0)


def _point(core: _Record) -> Pair:
    """The generic point of a record, project's one point builder.  It takes
    a = |xs+ys| and b = |xs-ys| from :func:`_roots`, which near the ray also
    hands over the array it summed d^2 from, xs - ys if lam > 0 (so q > 0)
    else xs + ys, already scaled to its part of the point: no reduction is
    taken again and no array divided.  The record is read, never written, so
    it builds the same point every time.  At n = 1 the point is read from
    the input."""
    x0, y0, k, xs, ys, _, _, _, _, lam, _, _, a, b, v = core
    if x0.size == 1:  # the cross is the two axes: the longer part stays, exactly
        zero = np.zeros_like(x0)
        return Pair(x0, zero) if abs(x0[0]) > abs(y0[0]) else Pair(zero, y0)
    # project's two-norm form, t (p/a +- m/b), with v for t p/a or t m/b where
    # it is one; y goes to whichever of p and m is not the record's
    t = 0.25 * (a + b)
    if v is not None and lam < 0.0:
        p = v
    else:
        p = xs + ys
        p *= t / a
    if v is not None and lam > 0.0:
        m = v
    else:
        m = xs - ys
        m *= t / b
    x = p + m
    y = np.subtract(p, m, out=p if m is v else m)
    if k != 1.0:  # apart from t, as t k may overflow or underflow
        x *= k
        y *= k
    return Pair(x, y)


def family_samples(
    x0, y0, count: int, tols: Tolerances = DEFAULT_TOLS
) -> list[tuple[np.ndarray, Pair]]:
    """(direction, member) samples of the degenerate family of
    ``project(x0, y0, tols)``; each member is its :meth:`FamilyProjection.member`.

    The selection (0, y0) always comes first and carries the zero
    vector as its direction (it corresponds to the trivial subspace).
    As u and -u give one member, the family has one member per line through
    the origin, and each further direction is the one on its line with
    <u, x0> >= 0: a row of one Gaussian draw seeded with 0, divided by its
    norm and flipped to that side.  The samples are the same on every call
    and a larger ``count`` extends a smaller one.  At n = 1 the one line
    gives the one direction sign(x0), so at most (0, y0) and (x0, 0) come back.
    """
    rec = _classified(x0, y0, tols)
    count = _int_at_least(count, "count")
    if not rec.tag.is_degenerate:
        raise CaseError(f"input is not degenerate (classified {rec.tag.value})")

    n = rec.x0.size
    if n == 1:  # the family's one line member
        draws = np.ones((1, 1))
    else:
        draws = np.random.default_rng(0).standard_normal((count - 1, n))
    return [(np.zeros(n), Pair(np.zeros(n), rec.y0)), *_line_members(rec, draws[: count - 1])]


def _line_members(rec: _Record, draws: np.ndarray):
    """(u, member) of a degenerate record's family per row of ``draws``: u is the
    row over its norm, flipped to <u, x0> >= 0, the one direction of its line."""
    for g in draws:
        u = g / np.linalg.norm(g)
        if u.dot(rec.xs) < 0.0:
            u = -u
        yield u, _family_member(rec.xs, rec.ys, u, rec.k)
