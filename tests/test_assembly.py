"""The generic nearest point is assembled in rotated coordinates.

With u = (x + y)/sqrt2 and v = (x - y)/sqrt2 the cross is the cone
|u| = |v|, so ``project`` scales p = x0 + y0 and m = x0 - y0 to the mean
of their norms, x, y = (|p| + |m|)/4 (p/|p| +- m/|m|), and never forms the
quotient by 1 - lam^2.  Near the ray x0 = y0 the difference m is exact
(each coordinate pair lies within a factor 2), so the point is as accurate
there as anywhere.  Points are compared with a referee that evaluates the
closed form in ``decimal`` at 60 digits from the exact binary values of the
input, so an error of about 1e-16 relative to sqrt(S) is resolved with some
40 digits to spare, even where 1 - lam^2 is 1e-11.
"""

import math
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import crossproj.linalg as linalg_mod
import crossproj.projection as projection_mod
from crossproj import CaseTag, norm, project

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import reference  # noqa: E402

EPS = float(np.finfo(float).eps)
DIGITS = 60


def exact_point(x0, y0) -> tuple[list, list, Decimal]:
    """The generic nearest point and S = |x0|^2 + |y0|^2, at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        xs = [Decimal(float(v)) for v in x0]
        ys = [Decimal(float(v)) for v in y0]
        q = sum(a * b for a, b in zip(xs, ys))
        s = sum(a * a + b * b for a, b in zip(xs, ys))
        plus = sum((a + b) ** 2 for a, b in zip(xs, ys)).sqrt()
        minus = sum((a - b) ** 2 for a, b in zip(xs, ys)).sqrt()
        lam = 2 * q / (s + plus * minus)
        den = 1 - lam * lam
        px = [(a - lam * b) / den for a, b in zip(xs, ys)]
        py = [(b - lam * a) / den for a, b in zip(xs, ys)]
        return px, py, s


def point_error(res, x0, y0) -> float:
    """|point - exact point| / sqrt(S)."""
    px, py, s = exact_point(x0, y0)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        sq = sum((Decimal(float(a)) - b) ** 2 for a, b in zip(res.point.x, px))
        sq += sum((Decimal(float(a)) - b) ** 2 for a, b in zip(res.point.y, py))
        return float((sq / s).sqrt())


def unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def generic_pair(rng, n):
    # well inside the generic case: |q| >= 0.1 |x0||y0| and x0 far from +-y0
    while True:
        x0, y0 = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
        nx, ny = np.linalg.norm(x0), np.linalg.norm(y0)
        gap = min(np.linalg.norm(x0 - y0), np.linalg.norm(x0 + y0))
        if abs(x0 @ y0) >= 0.1 * nx * ny and gap >= 0.1 * (nx + ny):
            return x0, y0


def near_orthogonal_pair(rng, n):
    # unit vectors with <x0, y0> = 1e-9, well above the orthogonal band
    x0 = unit(rng, n)
    w = unit(rng, n)
    y0 = w - (w @ x0) * x0
    return x0, y0 / np.linalg.norm(y0) + 1e-9 * x0


def near_ray_pair(rng, n, delta):
    y0 = unit(rng, n)
    return y0 + delta * unit(rng, n), y0


def worst_error(pairs) -> float:
    worst = 0.0
    for x0, y0 in pairs:
        res = project(x0, y0)
        assert res.tag is CaseTag.GENERIC
        worst = max(worst, point_error(res, x0, y0))
    return worst


class TestReferee:
    def test_axis_point_is_exact(self):
        # at n = 1 the exact point is (x0, 0) or (0, y0), and so is project's
        for x0, y0 in [(2.0, 1.0), (0.3, -0.7), (-1e-3, 5.0)]:
            res = project(x0, y0)
            assert point_error(res, [x0], [y0]) == 0.0

    def test_frozen_generic_point(self):
        # x0 = (1, 2), y0 = (3, 1): lam = (3 - sqrt(5))/2, and the point's
        # x part is (x0 - lam y0)/(1 - lam^2) to 60 digits
        px, _, s = exact_point([1.0, 2.0], [3.0, 1.0])
        assert s == 15
        with localcontext() as ctx:
            ctx.prec = DIGITS
            lam = (3 - Decimal(5).sqrt()) / 2
            assert abs(px[0] - (1 - 3 * lam) / (1 - lam * lam)) < Decimal("1e-55")


class TestPointAccuracy:
    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("make", [generic_pair, near_orthogonal_pair])
    def test_generic_and_near_orthogonal(self, n, make):
        rng = np.random.default_rng([n, 1])
        assert worst_error(make(rng, n) for _ in range(40)) <= 4.0 * EPS

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-7, 1e-9, 1e-11])
    def test_near_ray_as_accurate_as_generic(self, delta, n):
        rng = np.random.default_rng([n, 2])
        assert worst_error(near_ray_pair(rng, n, delta) for _ in range(40)) <= 4.0 * EPS


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("delta", [1e-3, 1e-5])
def test_near_ray_membership(n, delta):
    # the quotient missed the cross here by up to 1e-11 S
    rng = np.random.default_rng([n, 3])
    for _ in range(40):
        x0, y0 = near_ray_pair(rng, n, delta)
        res = project(x0, y0)
        s = float(x0 @ x0 + y0 @ y0)
        assert abs(float(res.point.x @ res.point.y)) <= 8.0 * EPS * s


def test_project_makes_no_block_solve_call(monkeypatch):
    calls = []
    solve = linalg_mod.block_solve

    def counted(lam, rhs):
        calls.append(lam)
        return solve(lam, rhs)

    for mod in (linalg_mod, projection_mod):
        monkeypatch.setattr(mod, "block_solve", counted)
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        for x0, y0 in [generic_pair(rng, n), near_ray_pair(rng, n, 1e-8)]:
            assert project(x0, y0).tag is CaseTag.GENERIC
            assert project(1e300 * x0, 1e300 * y0).tag is CaseTag.GENERIC
    assert project(3.0, -1.0).tag is CaseTag.GENERIC
    assert calls == []


class TestNearFloatMax:
    """Parts are formed at unit scale where the input lies outside 2^+-200."""

    def test_point_whose_norm_overflows(self):
        # |x| exceeds the float64 range, each coordinate of x does not
        t = 1.7e308
        x0, y0 = np.array([t, t]), np.array([-t, 0.9 * t])
        res = project(x0, y0)
        assert res.tag is CaseTag.GENERIC
        assert norm(res.point.x) == math.inf
        assert reference.wrong_reason(x0, y0, res.half_dist_sq, res.selections()) is None

    def test_degenerate_member(self):
        # the true member is (x0, 0)
        x0 = np.array([1.7e308, 1.7e308])
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        out = project(x0, x0).member(u)
        np.testing.assert_allclose(out.x, x0, rtol=4.0 * EPS)
        assert np.all(np.abs(out.y) <= 4.0 * EPS * x0)
