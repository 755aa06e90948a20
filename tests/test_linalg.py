import math
from fractions import Fraction

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
from crossproj.linalg import _over_pow2
from crossproj.projection import _family_member

finite_coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
EPS = np.finfo(float).eps


def vectors(n):
    return arrays(np.float64, (n,), elements=finite_coords)


def unit_vectors(n):
    return arrays(np.float64, (n,), elements=st.floats(-1.0, 1.0))


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("exps", [range(-1074, -999), range(-60, 61), range(1000, 1024)])
def test_over_pow2_keeps_the_bits_of_division(exps):
    # the product by 1/c rounds the same real as v/c, subnormal results included;
    # below 2^-1023, where 1/c overflows, the quotient itself is taken
    rng = np.random.default_rng(exps.start + 1074)
    mant = rng.uniform(0.5, 1.0, 2000) * rng.choice([-1.0, 1.0], 2000)
    v = np.ldexp(mant, rng.integers(-1074, 1024, 2000))
    v = np.concatenate([v, [0.0, -0.0, 5e-324, 2.0**-1022, np.finfo(float).max]])
    with np.errstate(over="ignore"):
        for e in exps:
            c = math.ldexp(1.0, e)
            assert _over_pow2(v, c).tobytes() == (v / c).tobytes(), e


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

    @given(
        uv=st.integers(1, 8).flatmap(lambda n: st.tuples(unit_vectors(n), unit_vectors(n))),
        j=st.integers(-1074, 1023),
        k=st.integers(-1074, 1023),
    )
    @example(uv=(np.array([1e200 / 2.0**665]), np.array([1e-200 * 2.0**664])), j=665, k=-664)
    @example(uv=(np.array([1.0, 2.0**-540, 0.0]), np.array([0.0, -(2.0**-540), 1.0])), j=500, k=500)
    @example(uv=(np.array([0.5, 0.5]), np.array([0.5, -0.5])), j=1023, k=1023)
    @settings(max_examples=400, deadline=None)
    def test_against_the_exact_sum(self, uv, j, k):
        # parts 2^j u and 2^k v, their scales up to 2^+-2097 apart, against the
        # exact sum: within the dot-product bound n eps sum |x_i y_i| where the
        # result is normal, within n subnormal steps more where it is not, and
        # +-inf only where the true value exceeds the float range
        x, y = np.ldexp(uv[0], j), np.ldexp(uv[1], k)
        r = inner(x, y)
        prods = [Fraction(a) * Fraction(b) for a, b in zip(x.tolist(), y.tolist())]
        exact, n = sum(prods), len(prods)
        bound = n * Fraction(EPS) * sum(map(abs, prods))
        if math.isinf(r):
            assert (r > 0) == (exact > 0) and abs(exact) + bound >= Fraction(np.finfo(float).max)
        elif abs(r) >= 2.0**-1022:
            assert abs(Fraction(r) - exact) <= bound
        else:
            assert abs(Fraction(r) - exact) <= bound + n * Fraction(2.0**-1074)


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

    def test_plain_lists(self):
        out = block_solve(0.5, Pair([2.0, 4.0], [1.0, 2.0]))
        np.testing.assert_array_equal(out.x, [2.0, 4.0])
        np.testing.assert_array_equal(out.y, [0.0, 0.0])

    def test_non_finite_coordinate(self):
        # numpy would return inf and nan
        with pytest.raises(DomainError, match="^x has non-finite"):
            block_solve(0.5, Pair(np.array([1.0, np.inf]), np.array([1.0, 2.0])))


class TestValidation:
    def test_as_pair_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            as_pair([1.0, 2.0], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            as_pair([np.nan], [1.0])
        with pytest.raises(DomainError):
            as_pair([1.0], [np.inf])
