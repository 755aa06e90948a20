"""Dense real vector primitives.

Validation, inner products and a norm accurate at every float64 scale, the
two-by-two block solve behind the multiplier stationarity system, and the
one sampler of random orthonormal frames.  Everything operates on float64
numpy arrays; all functions are pure and never mutate arguments.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError, SingularSystem

#: Absolute tolerance on |u| - 1 for arguments documented as unit vectors.
UNIT_NORM_TOL = 1e-12

#: |1 - lam^2| <= BLOCK_GUARD * (1 + lam^2) counts as a singular block system.
BLOCK_GUARD = 1e-14

_F64 = np.dtype(float)


def _inf_norm(arr: np.ndarray) -> float:
    """max_i |arr_i| of a nonempty array; NaN and +-inf propagate to the result."""
    a = np.abs(arr)
    return float(a[a.argmax()])  # argmax picks the first NaN, if any


def _real_array(v, name: str) -> np.ndarray:
    """``v`` as a float64 array, by the one real-number rule for arrays: bool,
    integer and float arrays convert, as does an object array of
    ``numbers.Real`` elements; complex numbers, text, ``None``, ragged
    nestings and anything else are refused.  A float64 array is returned as
    it is; an int beyond the float range is not finite."""
    try:
        arr = np.asarray(v)
        if arr.dtype is _F64:
            return arr
        kind = arr.dtype.kind
        if not (kind in "biuf" or kind == "O"
                and all(isinstance(e, numbers.Real) for e in arr.flat)):
            raise TypeError
        return arr.astype(float)
    except OverflowError:
        raise DomainError(f"{name} has non-finite coordinates") from None
    except (TypeError, ValueError):
        raise DomainError(f"{name} must hold real numbers") from None


def _real(value, name: str) -> float:
    """``value`` as a float, by the one real-number rule for scalars: a
    ``numbers.Real`` that is not a bool.  An int beyond the float range reads
    as +-inf, for the caller's range test to refuse."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _vector_inf(v, name: str) -> tuple[np.ndarray, float]:
    """``v`` as a finite 1-D float64 array of dimension >= 1, and its inf-norm.

    One pass validates and measures: the inf-norm is finite exactly when
    every coordinate is.  A 0-d input counts as a vector of dimension 1.
    Its numbers are read by :func:`_real_array`.
    """
    arr = _real_array(v, name)
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


def _pair(x, y, names: tuple[str, str] = ("x", "y")):
    """The validated parts of a pair and their inf-norms, (x, y, |x|_inf, |y|_inf):
    each part as by :func:`as_vector`, then equal dimension."""
    x, mx = _vector_inf(x, names[0])
    y, my = _vector_inf(y, names[1])
    if x.size != y.size:
        raise DimensionMismatch(
            f"{names[0]} and {names[1]} differ in dimension: {x.size} != {y.size}"
        )
    return x, y, mx, my


def as_pair(x, y) -> Pair:
    """Validated :class:`Pair`: both components finite, equal dimension."""
    return Pair(*_pair(x, y)[:2])


def inner(x, y) -> float:
    """Euclidean inner product <x, y> = sum_i x_i y_i of a pair validated as by
    :func:`as_pair`, summed in contiguous order; +-inf only where the true value
    exceeds the float range.  Where the raw sum overflows, so sum_i |x_i y_i| >=
    2^1023, each part is divided by its own power-of-two scale and the sum scaled
    back once: the products that underflow there lie below the sum's rounding."""
    x, y, mx, my = _pair(x, y)
    s = float(np.vdot(np.ascontiguousarray(x), np.ascontiguousarray(y)))
    if math.isfinite(s):
        return s
    cx, cy = _pow2_scale(mx), _pow2_scale(my)
    s = float(np.vdot(_over_pow2(x, cx), _over_pow2(y, cy)))
    try:  # s cx cy, rounded once, as cx cy itself may leave the float range
        return math.ldexp(s, math.frexp(cx)[1] + math.frexp(cy)[1] - 2)
    except OverflowError:
        return math.copysign(math.inf, s)


def _pow2_scale(m: float) -> float:
    """Power of two c with m / c in [0.5, 1); c = 1 at m = 0 and c <= 2^1023.

    Division by c is exact, so for m = |v|_inf the squares of v / c keep the
    bits of those of v where those are normal, and never overflow or underflow.
    """
    return math.ldexp(1.0, min(math.frexp(m)[1], 1023))


def _over_pow2(v: np.ndarray, c: float) -> np.ndarray:
    """v / c, bit for bit, for a power of two c: where 1/c is finite the product
    by it rounds the same real as the quotient, at about half its cost."""
    return v * (1.0 / c) if c >= 2.0**-1023 else v / c


def norm(x) -> float:
    """Euclidean norm |x|, accurate at every float64 scale.  Input that is not
    real is refused as by :func:`as_vector`; NaN and +-inf pass through."""
    return _joint_norm(_real_array(x, "x"))


def _joint_norm(*parts: np.ndarray) -> float:
    """sqrt(|p_1|^2 + ... + |p_k|^2), accurate at every float64 scale."""
    s = 0.0
    for p in parts:
        s += float(np.vdot(p, p))  # silent on overflow, unlike np.dot
    # no square overflowed or lost relative precision, or every entry is 0
    if 2.0**-900 < s < 2.0**900 or s == 0.0 and not any(map(np.count_nonzero, parts)):
        return math.sqrt(s)
    c = _pow2_scale(max(float(np.abs(p).max(initial=0.0)) for p in parts))
    scaled = [_over_pow2(p, c) for p in parts]
    return c * math.sqrt(sum(float(np.vdot(p, p)) for p in scaled))


def _int_at_least(value, name: str, least: int = 1) -> int:
    """``value`` as an int: an int or numpy integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}")
    return int(value)


def block_solve(lam: float, rhs: Pair) -> Pair:
    """Solve the coupled system x + lam*y = rhs.x, y + lam*x = rhs.y.

    The system operator [[I, lam*I], [lam*I, I]] has the explicit inverse
    (1 - lam^2)^{-1} [[I, -lam*I], [-lam*I, I]]; multipliers within the
    relative guard band of +-1 are rejected rather than amplified; ``rhs``
    is validated as by :func:`as_pair`.
    """
    rhs = as_pair(*rhs)
    lam = _real(lam, "multiplier")
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

