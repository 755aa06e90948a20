"""Reference checker for projections onto the cross, independent of crossproj.

For an input (x0, y0) the exact half squared distance to the cross
C = {(x, y) : <x, y> = 0} is

    half = q^2 / (S + |x0 + y0| |x0 - y0|),   q = <x0, y0>,  S = |x0|^2 + |y0|^2,

which covers all three cases (q = 0 gives 0; x0 = +-y0 gives S/4) and has
no cancellation.  Evaluating it on the raw input overflows above about
1e154 and underflows below about 1e-154, so the checker divides the
input by c = max(|x0|_inf, |y0|_inf) first, evaluates at unit scale, and
compares the library's answer against c^2 times the unit-scale value.
Returned points are checked at the same unit scale, so a pair that misses
the cross by a relative amount is caught at any magnitude.

Only numpy is used here: nothing is imported from the library under test.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative error allowed on the half squared distance at unit scale.
HALF_RTOL = 1e-9
#: Absolute slack, times S at unit scale, on the half squared distance.
#: The library calls |q| <= 1e-12 (1 + |x0||y0|) orthogonal and returns 0;
#: the exact value there is below about 1e-24 S, far under this slack.
HALF_ATOL = 1e-20
#: |<x, y>| <= MEMBERSHIP_TOL (1 + |x0||y0|) at unit scale counts as in C.
MEMBERSHIP_TOL = 1e-9
#: A returned point's half squared displacement may exceed the exact
#: minimum by this much, times S at unit scale.
OBJECTIVE_ATOL = 1e-8

_TINY = np.finfo(float).tiny


def unit_scale(x0: np.ndarray, y0: np.ndarray) -> tuple[float, float, float]:
    """(c, exact half squared distance of (x0/c, y0/c), S of (x0/c, y0/c)).

    For the origin c is 0 and the distance is 0.
    """
    c = float(max(np.max(np.abs(x0)), np.max(np.abs(y0))))
    if c == 0.0:
        return 0.0, 0.0, 0.0
    xs = x0 / c
    ys = y0 / c
    q = float(np.dot(xs, ys))
    s = float(np.dot(xs, xs) + np.dot(ys, ys))
    p = float(np.linalg.norm(xs + ys) * np.linalg.norm(xs - ys))
    return c, q * q / (s + p), s


def wrong_reason(x0, y0, half: float, selections) -> str | None:
    """Why a projection answer is wrong, or None when it is right.

    ``half`` is the returned half squared distance and ``selections`` the
    returned nearest points as (x, y) pairs.  ``inf`` is accepted for
    ``half`` only when c^2 times the unit-scale value itself overflows.
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    half = float(half)
    c, ref_u, s_u = unit_scale(x0, y0)

    if c == 0.0:
        if half != 0.0:
            return f"origin: half_dist_sq {half!r} != 0"
    else:
        ref = (c * ref_u) * c
        if math.isnan(half) or half < 0.0:
            return f"half_dist_sq {half!r} is negative or NaN"
        if math.isinf(half) or math.isinf(ref):
            if not (math.isinf(half) and math.isinf(ref)):
                return f"half_dist_sq {half!r}, exact value {ref!r}: only one overflows"
        elif ref < _TINY:
            # c^2 underflows: the exact value is not representable as a
            # normal float, so any nonnegative answer at most tiny is right
            if half > _TINY:
                return f"half_dist_sq {half!r}, exact value below {_TINY!r}"
        else:
            half_u = (half / c) / c
            if abs(half_u - ref_u) > HALF_RTOL * ref_u + HALF_ATOL * s_u:
                return f"half_dist_sq {half!r}, exact value {ref!r}"

    if not selections:
        return "no nearest point returned"
    scale = c if c > 0.0 else 1.0
    xs, ys = x0 / scale, y0 / scale
    band = MEMBERSHIP_TOL * (1.0 + float(np.linalg.norm(xs) * np.linalg.norm(ys)))
    for k, (px, py) in enumerate(selections):
        px = np.asarray(px, dtype=float)
        py = np.asarray(py, dtype=float)
        if px.shape != x0.shape or py.shape != y0.shape:
            return f"selection {k} has shape {px.shape}/{py.shape}, input {x0.shape}"
        if not (np.all(np.isfinite(px)) and np.all(np.isfinite(py))):
            return f"selection {k} has non-finite coordinates"
        ux, uy = px / scale, py / scale
        miss = abs(float(np.dot(ux, uy)))
        if miss > band:
            return f"selection {k} misses the cross: |<x, y>|/c^2 = {miss!r} > {band!r}"
        dx, dy = ux - xs, uy - ys
        obj = 0.5 * float(np.dot(dx, dx) + np.dot(dy, dy))
        if obj > ref_u + OBJECTIVE_ATOL * max(s_u, 1.0):
            return f"selection {k} is not nearest: {obj!r} > {ref_u!r} at unit scale"
    return None
