"""Dense real vector primitives.

Inner products, rank-one orthogonal projectors and reflectors, the
two-by-two block solve behind the multiplier stationarity system, and the
spherical parametrization of the unit sphere.  Everything operates on 1-D
float64 numpy arrays; all functions are pure and never mutate arguments.
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


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce ``v`` to a finite 1-D float64 array of dimension >= 1."""
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1 or arr.size < 1:
        raise DomainError(f"{name} must be a 1-D vector with at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} has non-finite coordinates")
    return arr


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
    return float(np.dot(x, y))


def _pow2_scale(m: float) -> float:
    """Power of two c with m / c in [0.5, 1); c = 1 at m = 0 and c <= 2^1023.

    Division by c is exact, so for m = |v|_inf the squares of v / c keep the
    bits of those of v where those are normal, and never overflow or underflow.
    """
    return math.ldexp(1.0, min(math.frexp(m)[1], 1023))


def norm(x) -> float:
    """Euclidean norm |x|, accurate at every float64 scale."""
    x = np.asarray(x, dtype=float)
    s = float(np.vdot(x, x))  # silent on overflow, unlike np.dot
    if 2.0**-900 < s < 2.0**900:  # no square overflowed or lost relative precision
        return math.sqrt(s)
    c = _pow2_scale(float(np.abs(x).max(initial=0.0)))
    x = x / c
    return c * math.sqrt(float(np.vdot(x, x)))


def _require_unit(u: np.ndarray, name: str = "u") -> None:
    nu = float(np.linalg.norm(u))
    if abs(nu - 1.0) > UNIT_NORM_TOL:
        raise NotUnitNorm(f"{name} must have unit norm, got |{name}| = {nu!r}")


def _check_direction(u, z, name: str = "u"):
    u = as_vector(u, name)
    z = as_vector(z, "z")
    if u.size != z.size:
        raise DimensionMismatch(f"{name} and z differ in dimension: {u.size} != {z.size}")
    _require_unit(u, name)
    return u, z


def rank1_project(u, z) -> np.ndarray:
    """Orthogonal projection of z onto span{u} for unit u: <u, z> u."""
    u, z = _check_direction(u, z)
    return float(np.dot(u, z)) * u


def complement_project(u, z) -> np.ndarray:
    """Projection onto the orthogonal complement of span{u}: z - <u, z> u."""
    u, z = _check_direction(u, z)
    return z - float(np.dot(u, z)) * u


def reflect(u, z) -> np.ndarray:
    """Reflection through span{u}: 2 <u, z> u - z.  Preserves the norm."""
    u, z = _check_direction(u, z)
    return 2.0 * float(np.dot(u, z)) * u - z


def block_solve(lam: float | np.ndarray, rhs: Pair) -> Pair:
    """Solve the coupled system x + lam*y = rhs.x, y + lam*x = rhs.y.

    The system operator [[I, lam*I], [lam*I, I]] has the explicit inverse
    (1 - lam^2)^{-1} [[I, -lam*I], [-lam*I, I]]; multipliers within the
    relative guard band of +-1 are rejected rather than amplified.
    """
    if isinstance(lam, np.ndarray):  # k multipliers of shape (k, 1): (k, n) parts
        if not np.all(np.isfinite(lam)):
            raise DomainError("multipliers must be finite")
        den = 1.0 - lam * lam
        if np.any(np.abs(den) <= BLOCK_GUARD * (1.0 + lam * lam)):
            raise SingularSystem("a multiplier is inside the singular guard band around +-1")
        return Pair((rhs.x - lam * rhs.y) / den, (rhs.y - lam * rhs.x) / den)
    lam = float(lam)
    if not math.isfinite(lam):
        raise DomainError("multiplier must be finite")
    den = 1.0 - lam * lam
    if abs(den) <= BLOCK_GUARD * (1.0 + lam * lam):
        raise SingularSystem(
            f"multiplier {lam!r} is inside the singular guard band around +-1"
        )
    return Pair((rhs.x - lam * rhs.y) / den, (rhs.y - lam * rhs.x) / den)


def sphere_point(rho: float, thetas, n: int | None = None) -> np.ndarray:
    """Cartesian point of radius rho at the given spherical angles.

    A point of R^n (n >= 2) takes n-1 angles: theta_1 .. theta_{n-2} in
    [0, pi] and theta_{n-1} in [0, 2*pi).  Coordinates follow the usual
    prefix-of-sines construction (1-based index i)::

        x_i     = rho * cos(theta_i) * prod_{j<i} sin(theta_j)     i <= n-2
        x_{n-1} = rho * cos(theta_{n-1}) * prod_{j<=n-2} sin(theta_j)
        x_n     = rho * sin(theta_{n-1}) * prod_{j<=n-2} sin(theta_j)

    The result always lies on the radius-rho sphere.  At the poles
    (some sin(theta_j) = 0) several angle tuples map to the same point;
    the formula is evaluated as written, with no canonicalization.  ``n``
    is inferred from the angle count; pass it explicitly to cross-check.
    """
    rho = float(rho)
    if not math.isfinite(rho) or rho <= 0.0:
        raise DomainError(f"radius must be positive and finite, got {rho!r}")
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    if th.ndim != 1 or th.size < 1:
        raise DomainError("thetas must be a non-empty 1-D sequence of angles")
    if not np.all(np.isfinite(th)):
        raise DomainError("thetas has non-finite entries")
    m = th.size
    if n is None:
        n = m + 1
    if n < 2 or m != n - 1:
        raise DomainError(f"need n - 1 = {n - 1} angles for a point in R^{n}, got {m}")
    if m >= 2 and (np.any(th[:-1] < 0.0) or np.any(th[:-1] > np.pi)):
        raise DomainError("polar angles theta_1..theta_{n-2} must lie in [0, pi]")
    if th[-1] < 0.0 or th[-1] >= 2.0 * np.pi:
        raise DomainError("azimuthal angle theta_{n-1} must lie in [0, 2*pi)")

    # pre[k] = product of the first k sines (empty product = 1)
    pre = np.concatenate(([1.0], np.cumprod(np.sin(th))))
    out = np.empty(n)
    out[: n - 2] = rho * np.cos(th[: n - 2]) * pre[: n - 2]
    out[n - 2] = rho * np.cos(th[-1]) * pre[n - 2]
    out[n - 1] = rho * np.sin(th[-1]) * pre[n - 2]
    return out
