import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crossproj import (
    DimensionMismatch,
    DomainError,
    Pair,
    SingularSystem,
    as_pair,
    block_solve,
    inner,
    norm,
)
from crossproj.linalg import _sphere_lattice
from crossproj.projection import _family_member

finite_coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vectors(n):
    return arrays(np.float64, (n,), elements=finite_coords)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestInner:
    def test_orthogonal_basis(self):
        assert inner([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_direct_arithmetic(self):
        assert inner([1.0, 2.0], [3.0, 1.0]) == 5.0

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal(5)
            assert inner(x, x) >= 0.0
            assert inner(x, x) == pytest.approx(norm(x) ** 2, rel=1e-14)

    @pytest.mark.parametrize("t", [1e-300, 1e-160, 1e160, 1e300])
    def test_norm_at_every_scale(self, t):
        assert norm([3.0 * t, 4.0 * t]) == pytest.approx(5.0 * t, rel=1e-15, abs=0.0)

    def test_symmetry_and_dim_check(self):
        x, y = np.array([1.0, 2.0]), np.array([0.5, -3.0])
        assert inner(x, y) == inner(y, x)
        with pytest.raises(DimensionMismatch):
            inner([1.0, 2.0], [1.0])


def split(u, z):
    """The rank-one split (P_U z, P_{U-perp} z) for U = span{u}, unit u."""
    z = np.asarray(z, dtype=float)
    return _family_member(z, z, np.asarray(u, dtype=float))


class TestRankOneOperators:
    """The rank-one projectors, as the subspace pair of (z, z)."""

    def test_axis_projection(self):
        np.testing.assert_allclose(split([1.0, 0.0], [3.0, 4.0]).x, [3.0, 0.0])

    def test_diagonal_projection(self):
        u = unit([1.0, 1.0])
        np.testing.assert_allclose(split(u, [1.0, 0.0]).x, [0.5, 0.5])

    def test_axis_complement(self):
        np.testing.assert_allclose(split([1.0, 0.0], [3.0, 4.0]).y, [0.0, 4.0])

    def test_annihilates_own_span(self):
        u = unit([2.0, -1.0, 0.5])
        np.testing.assert_allclose(split(u, 3.0 * u).y, 0.0, atol=1e-12)

    @given(u=vectors(4), z=vectors(4))
    @settings(max_examples=100)
    def test_split_recombines_and_is_orthogonal(self, u, z):
        nu = np.linalg.norm(u)
        if not 1e-3 < nu < 1e6:
            return
        u = u / nu
        p, c = split(u, z)
        scale = 1e-12 * max(1.0, norm(z))
        np.testing.assert_allclose(p + c, z, atol=scale)
        assert abs(inner(c, u)) <= scale
        # idempotence of the projector
        np.testing.assert_allclose(split(u, p).x, p, atol=scale)

    @given(u=vectors(3), z=vectors(3))
    @example(u=np.array([1.0, 2.0, 2.0]), z=np.full(3, 7.72318328e-159))
    @settings(max_examples=100)
    def test_reflection_is_isometry(self, u, z):
        # P_U z - P_{U-perp} z is the reflection of z through span{u}
        nu = np.linalg.norm(u)
        if not 1e-3 < nu < 1e6:
            return
        p, c = split(u / nu, z)
        assert norm(p - c) == pytest.approx(norm(z), rel=1e-12, abs=1e-300)


class TestBlockSolve:
    def test_identity_at_zero(self):
        rhs = as_pair([1.0, -2.0], [0.5, 3.0])
        out = block_solve(0.0, rhs)
        np.testing.assert_array_equal(out.x, rhs.x)
        np.testing.assert_array_equal(out.y, rhs.y)

    def test_scalar_example(self):
        # x + 0.5 y = 2, y + 0.5 x = 1  =>  x = 2, y = 0
        out = block_solve(0.5, as_pair([2.0], [1.0]))
        np.testing.assert_allclose(out.x, [2.0])
        np.testing.assert_allclose(out.y, [0.0], atol=1e-15)

    def test_forward_backward_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lam = rng.uniform(-0.9, 0.9)
            rhs = Pair(rng.standard_normal(4), rng.standard_normal(4))
            out = block_solve(lam, rhs)
            scale = 1e-10 * (1.0 + norm(rhs.x) + norm(rhs.y))
            np.testing.assert_allclose(out.x + lam * out.y, rhs.x, atol=scale)
            np.testing.assert_allclose(out.y + lam * out.x, rhs.y, atol=scale)

    @pytest.mark.parametrize("lam", [1.0, -1.0, 1.0 + 1e-15, -1.0 + 1e-16])
    def test_guard_band(self, lam):
        with pytest.raises(SingularSystem):
            block_solve(lam, as_pair([1.0], [1.0]))

    def test_non_finite_multiplier(self):
        with pytest.raises(DomainError):
            block_solve(float("nan"), as_pair([1.0], [1.0]))

    def test_parts_of_different_shapes(self):
        # numpy would broadcast the shorter part
        with pytest.raises(DimensionMismatch):
            block_solve(0.5, Pair(np.array([1.0, 2.0]), np.array([1.0])))


def lattice(n, r):
    return np.concatenate(list(_sphere_lattice(n, r)))


class TestSpherePoint:
    """Rows of the angle lattice behind every sphere sweep."""

    def test_zero_angle(self):
        np.testing.assert_array_equal(lattice(2, 4)[0], [1.0, 0.0])

    def test_quarter_turn(self):
        np.testing.assert_allclose(lattice(2, 4)[1], [0.0, 1.0], atol=1e-15)

    def test_three_dim_pole(self):
        # every azimuth at polar angle 0 (pi) gives the pole e1 (-e1)
        us = lattice(3, 5)
        np.testing.assert_allclose(us[:5], np.tile([1.0, 0.0, 0.0], (5, 1)), atol=1e-15)
        np.testing.assert_allclose(us[-5:], np.tile([-1.0, 0.0, 0.0], (5, 1)), atol=1e-15)

    def test_lands_on_sphere(self):
        for n in range(2, 7):
            for r in (1, 2, 5, 8):
                us = lattice(n, r)
                assert us.shape == (r ** (n - 1), n)
                np.testing.assert_allclose(np.linalg.norm(us, axis=1), 1.0, rtol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_spherical_coordinates(self, n):
        # polar angles t_i over [0, pi], azimuth a over [0, 2*pi), lexicographic:
        # u = (cos t_1, sin t_1 cos t_2, ..., P cos a, P sin a), P = prod sin t_i
        for r in (1, 2, 3, 6, 9):
            polar = np.linspace(0.0, np.pi, r)
            azimuth = np.linspace(0.0, 2.0 * np.pi, r, endpoint=False)
            ref = []
            for *ts, a in itertools.product(*[polar] * (n - 2), azimuth):
                u, pre = [], 1.0
                for t in ts:
                    u.append(np.cos(t) * pre)
                    pre *= np.sin(t)
                ref.append(u + [pre * np.cos(a), pre * np.sin(a)])
            np.testing.assert_array_equal(lattice(n, r), ref)


class TestValidation:
    def test_as_pair_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            as_pair([1.0, 2.0], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            as_pair([np.nan], [1.0])
        with pytest.raises(DomainError):
            as_pair([1.0], [np.inf])
