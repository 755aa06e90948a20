"""Dense real vector primitives.

Validation, inner products and a norm accurate at every float64 scale, the
two-by-two block solve behind the multiplier stationarity system, the
angle lattice on the unit sphere that every sphere sweep uses, and the one
sampler of random orthonormal frames.  Everything
operates on float64 numpy arrays; all functions are pure and never mutate
arguments.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError, NotUnitNorm, SingularSystem

#: Absolute tolerance on |u| - 1 for arguments documented as unit vectors.
UNIT_NORM_TOL = 1e-12

#: |1 - lam^2| <= BLOCK_GUARD * (1 + lam^2) counts as a singular block system.
BLOCK_GUARD = 1e-14


def _inf_norm(arr: np.ndarray) -> float:
    """max_i |arr_i| of a nonempty array; NaN and +-inf propagate to the result."""
    a = np.abs(arr)
    return float(a[a.argmax()])  # argmax picks the first NaN, if any


def _vector_inf(v, name: str) -> tuple[np.ndarray, float]:
    """``v`` as a finite 1-D float64 array of dimension >= 1, and its inf-norm.

    One pass validates and measures: the inf-norm is finite exactly when
    every coordinate is.  A 0-d input counts as a vector of dimension 1.
    """
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size < 1:
        raise DomainError(f"{name} must be a 1-D vector with at least one coordinate")
    m = _inf_norm(arr)
    if not math.isfinite(m):
        raise DomainError(f"{name} has non-finite coordinates")
    return arr, m


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce ``v`` to a finite 1-D float64 array of dimension >= 1."""
    return _vector_inf(v, name)[0]


class Pair(NamedTuple):
    """A point (x, y) of the product space R^n x R^n."""

    x: np.ndarray
    y: np.ndarray


def as_pair(x, y) -> Pair:
    """Validated :class:`Pair`: both components finite, equal dimension."""
    xv = as_vector(x, "x")
    yv = as_vector(y, "y")
    if xv.size != yv.size:
        raise DimensionMismatch(
            f"pair components differ in dimension: {xv.size} != {yv.size}"
        )
    return Pair(xv, yv)


def inner(x, y) -> float:
    """Euclidean inner product <x, y> = sum_i x_i y_i."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatch(f"inner: shapes {x.shape} and {y.shape} differ")
    return float(x.dot(y))


def _pow2_scale(m: float) -> float:
    """Power of two c with m / c in [0.5, 1); c = 1 at m = 0 and c <= 2^1023.

    Division by c is exact, so for m = |v|_inf the squares of v / c keep the
    bits of those of v where those are normal, and never overflow or underflow.
    """
    return math.ldexp(1.0, min(math.frexp(m)[1], 1023))


def norm(x) -> float:
    """Euclidean norm |x|, accurate at every float64 scale."""
    return _joint_norm(np.asarray(x, dtype=float))


def _joint_norm(*parts: np.ndarray) -> float:
    """sqrt(|p_1|^2 + ... + |p_k|^2), accurate at every float64 scale."""
    s = 0.0
    for p in parts:
        s += float(np.vdot(p, p))  # silent on overflow, unlike np.dot
    # no square overflowed or lost relative precision, or every entry is 0
    if 2.0**-900 < s < 2.0**900 or s == 0.0 and not any(map(np.count_nonzero, parts)):
        return math.sqrt(s)
    c = _pow2_scale(max(float(np.abs(p).max(initial=0.0)) for p in parts))
    scaled = [p / c for p in parts]
    return c * math.sqrt(sum(float(np.vdot(p, p)) for p in scaled))


def _require_unit(u: np.ndarray, name: str = "u") -> None:
    nu = float(np.linalg.norm(u))
    if abs(nu - 1.0) > UNIT_NORM_TOL:
        raise NotUnitNorm(f"{name} must have unit norm, got |{name}| = {nu!r}")


def _positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise DomainError(f"{name} must be an integer >= 1")
    return int(value)


def block_solve(lam: float, rhs: Pair) -> Pair:
    """Solve the coupled system x + lam*y = rhs.x, y + lam*x = rhs.y.

    The system operator [[I, lam*I], [lam*I, I]] has the explicit inverse
    (1 - lam^2)^{-1} [[I, -lam*I], [-lam*I, I]]; multipliers within the
    relative guard band of +-1 are rejected rather than amplified, as are
    parts of different shapes.
    """
    if np.shape(rhs.x) != np.shape(rhs.y):
        raise DimensionMismatch(
            f"block_solve: shapes {np.shape(rhs.x)} and {np.shape(rhs.y)} differ")
    lam = float(lam)
    if not math.isfinite(lam):
        raise DomainError("multiplier must be finite")
    den = 1.0 - lam * lam
    if abs(den) <= BLOCK_GUARD * (1.0 + lam * lam):
        raise SingularSystem(
            f"multiplier {lam!r} is inside the singular guard band around +-1"
        )
    return Pair((rhs.x - lam * rhs.y) / den, (rhs.y - lam * rhs.x) / den)


def _haar_columns(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """(n, k) matrix with orthonormal columns, Haar distributed: the Q of a
    Gaussian draw, its signs fixed by the diagonal of R."""
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))


def _sphere_lattice(n: int, r: int, poles_once: bool = False):
    """Uniform angle-lattice directions on the unit sphere of R^n, n >= 2.

    Polar angles take r points over [0, pi] inclusive, the azimuth r points
    over [0, 2*pi); a direction is the usual prefix-of-sines point
    (cos t1, sin t1 cos t2, ..., sin t1 ... sin t_{n-2} cos a,
    sin t1 ... sin t_{n-2} sin a).  The r^(n-1) directions come in
    lexicographic order, in (r, n) blocks that fix the polar angles and sweep
    the azimuth.  At the poles several angle tuples give the same direction:
    below a polar angle 0 every later coordinate is a signed zero.  With
    ``poles_once`` each such subtree is yielded as its first row alone, a
    (1, n) block with +0.0 after the zero angle, so the first direction off
    the poles comes after n - 2 rows instead of r^(n-2) copies of the first
    pole.  The walk is iterative, so its depth n - 2 is not bounded by the
    interpreter's recursion limit.
    """
    azimuth = np.linspace(0.0, 2.0 * np.pi, r, endpoint=False)
    tail = np.stack([np.cos(azimuth), np.sin(azimuth)], axis=1)
    polar = np.linspace(0.0, np.pi, r)
    cp, sp = np.cos(polar), np.sin(polar)
    head = np.empty(n - 2)  # head[i] = cos t_(i+1) * pres[i] for the chosen angles
    js, pres, j = [], [1.0], 0  # chosen polar indices, sine products, next index
    while True:
        i = len(js)
        if i < n - 2:
            head[i] = cp[j] * pres[i]
            if not (poles_once and j == 0):
                js.append(j)
                pres.append(pres[i] * sp[j])
                j = 0
                continue
            us = np.zeros((1, n))  # cos 0 = 1, so head[i] is the pole's last entry
            us[0, : i + 1] = head[: i + 1]
            j = 1
        else:
            us = np.empty((r, n))
            us[:, :i] = head[:i]
            us[:, i:] = pres[i] * tail
            j = r
        yield us
        while j == r:  # climb past the levels whose angles are all taken
            if not js:
                return
            j = js.pop() + 1
            pres.pop()
