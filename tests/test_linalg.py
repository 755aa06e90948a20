import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crossproj import (
    DimensionMismatch,
    DomainError,
    NotUnitNorm,
    Pair,
    SingularSystem,
    as_pair,
    block_solve,
    complement_project,
    inner,
    norm,
    rank1_project,
    reflect,
    sphere_point,
)

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


class TestRankOneOperators:
    def test_axis_projection(self):
        np.testing.assert_allclose(rank1_project([1.0, 0.0], [3.0, 4.0]), [3.0, 0.0])

    def test_diagonal_projection(self):
        u = unit([1.0, 1.0])
        np.testing.assert_allclose(rank1_project(u, [1.0, 0.0]), [0.5, 0.5])

    def test_axis_complement(self):
        np.testing.assert_allclose(complement_project([1.0, 0.0], [3.0, 4.0]), [0.0, 4.0])

    def test_annihilates_own_span(self):
        u = unit([2.0, -1.0, 0.5])
        np.testing.assert_allclose(complement_project(u, 3.0 * u), 0.0, atol=1e-12)

    def test_axis_reflection(self):
        np.testing.assert_allclose(reflect([1.0, 0.0], [3.0, 4.0]), [3.0, -4.0])

    def test_reflect_fixes_axis(self):
        u = unit([1.0, 2.0, 2.0])
        np.testing.assert_allclose(reflect(u, u), u, atol=1e-15)

    def test_non_unit_direction_rejected(self):
        for op in (rank1_project, complement_project, reflect):
            with pytest.raises(NotUnitNorm):
                op([1.0, 1.0], [1.0, 0.0])

    @given(u=vectors(4), z=vectors(4))
    @settings(max_examples=100)
    def test_split_recombines_and_is_orthogonal(self, u, z):
        nu = np.linalg.norm(u)
        if not 1e-3 < nu < 1e6:
            return
        u = u / nu
        p = rank1_project(u, z)
        c = complement_project(u, z)
        scale = 1e-12 * max(1.0, norm(z))
        np.testing.assert_allclose(p + c, z, atol=scale)
        assert abs(inner(c, u)) <= scale
        # idempotence of the projector
        np.testing.assert_allclose(rank1_project(u, p), p, atol=scale)

    @given(u=vectors(3), z=vectors(3))
    @example(u=np.array([1.0, 2.0, 2.0]), z=np.full(3, 7.72318328e-159))
    @settings(max_examples=100)
    def test_reflection_is_isometry(self, u, z):
        nu = np.linalg.norm(u)
        if not 1e-3 < nu < 1e6:
            return
        u = u / nu
        assert norm(reflect(u, z)) == pytest.approx(norm(z), rel=1e-12, abs=1e-300)


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

    def test_multiplier_array(self):
        # k multipliers of shape (k, 1) give the k scalar solutions as rows
        rhs = as_pair([1.0, -2.0, 0.5], [0.7, 3.0, -1.5])
        lams = np.array([-2.5, -0.3, 0.0, 0.8, 1.7])
        out = block_solve(lams[:, None], rhs)
        for lam, x, y in zip(lams, out.x, out.y):
            one = block_solve(lam, rhs)
            np.testing.assert_array_equal(x, one.x)
            np.testing.assert_array_equal(y, one.y)
        with pytest.raises(SingularSystem):
            block_solve(np.array([[0.5], [-1.0]]), rhs)
        with pytest.raises(DomainError):
            block_solve(np.array([[0.5], [np.inf]]), rhs)


class TestSpherePoint:
    def test_zero_angle(self):
        np.testing.assert_allclose(sphere_point(1.0, [0.0]), [1.0, 0.0])

    def test_quarter_turn(self):
        np.testing.assert_allclose(sphere_point(1.0, [np.pi / 2]), [0.0, 1.0], atol=1e-15)

    def test_three_dim_pole(self):
        # both angles at pi/2 point along the last axis
        np.testing.assert_allclose(
            sphere_point(2.0, [np.pi / 2, np.pi / 2]), [0.0, 0.0, 2.0], atol=1e-15
        )

    def test_lands_on_sphere(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            rho = float(rng.uniform(0.1, 10.0))
            th = np.concatenate(
                [rng.uniform(0.0, np.pi, n - 2), rng.uniform(0.0, 2.0 * np.pi, 1)]
            )
            p = sphere_point(rho, th, n=n)
            assert norm(p) == pytest.approx(rho, rel=1e-12)

    def test_angle_range_validation(self):
        with pytest.raises(DomainError):
            sphere_point(1.0, [-0.1, 0.0])  # polar angle below range
        with pytest.raises(DomainError):
            sphere_point(1.0, [3.5, 0.0])  # polar angle above pi
        with pytest.raises(DomainError):
            sphere_point(1.0, [2.0 * np.pi])  # azimuth not in [0, 2*pi)

    def test_radius_and_count_validation(self):
        with pytest.raises(DomainError):
            sphere_point(0.0, [0.0])
        with pytest.raises(DomainError):
            sphere_point(-1.0, [0.0])
        with pytest.raises(DomainError):
            sphere_point(1.0, [0.0], n=3)


class TestValidation:
    def test_as_pair_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            as_pair([1.0, 2.0], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            as_pair([np.nan], [1.0])
        with pytest.raises(DomainError):
            as_pair([1.0], [np.inf])
