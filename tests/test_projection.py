import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crossproj import (
    DEFAULT_TOLS,
    CaseError,
    CaseTag,
    DimensionMismatch,
    DomainError,
    FamilyProjection,
    NotUnitNorm,
    Pair,
    SingletonProjection,
    Tolerances,
    as_pair,
    block_solve,
    classify,
    family_samples,
    inner,
    membership_residual,
    norm,
    objective,
    project,
)
import crossproj.projection as projection_mod
from crossproj.oracle import FALLBACK_BAND
from crossproj.projection import _unit

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import reference  # noqa: E402
import workloads  # noqa: E402

# frozen by an independent root-find of q*lam^2 - S*lam + q = 0 and a
# 2e6-point subspace grid search (gap 1e-11); see also the oracle tests
LAM_MINUS_12_31 = 0.3819660112501051  # (3 - sqrt(5)) / 2
LAM_PLUS_12_31 = 2.618033988749895  # (3 + sqrt(5)) / 2
POINT_12_31 = (
    np.array([-0.17082039324993703, 1.8944271909999157]),
    np.array([3.0652475842498528, 0.27639320225002095]),
)


def pair(x, y):
    return Pair(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def feas_tol(x0, y0, scale=1e-9):
    return scale * (1.0 + norm(x0) * norm(y0))


def random_generic(rng, n, lo=-1.0, hi=1.0):
    while True:
        x0 = rng.uniform(lo, hi, n)
        y0 = rng.uniform(lo, hi, n)
        if classify(x0, y0) is CaseTag.GENERIC:
            return x0, y0


class _AtEveryScale:
    """Scale tests of ``measure``, an inner product taken at every float64
    scale; ``sign`` maps a raw inner product to what ``measure`` returns."""

    sign = staticmethod(abs)

    def test_finite_where_the_raw_product_overflows(self):
        # each product of these orthogonal pairs overflows; at the parts'
        # power-of-two scales 2^600 is exact and 1e160 leaves only the rounding
        # of a product, which a fused multiply-add dot keeps
        with np.errstate(over="raise", invalid="raise"):
            assert self.measure([2.0**600] * 2, [2.0**600, -(2.0**600)]) == 0.0
            r = self.measure([1e160, 1e160], [1e160, -1e160])
        assert abs(r) / 1e160 / 1e160 <= 2.0 * np.finfo(float).eps

    @pytest.mark.parametrize("j", [-500, -300, -201, -199, -3, 3, 199, 201, 300, 500])
    def test_power_of_two_scaling_is_exact(self, j):
        # t^2 times the measure of the unscaled pair
        rng = np.random.default_rng(j + 1000)
        t = 2.0**j
        for n in (1, 2, 3, 8):
            x, y = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
            r = self.measure(x, y)
            assert self.measure(t * x, t * y) == r * t * t


    @pytest.mark.parametrize("j", [-300, 0, 300])
    def test_bits_of_the_scaled_product(self, j):
        # <x/k, y/k> k^2 for a power of two k, summed contiguous: strided views
        # keep the bits too
        rng = np.random.default_rng(j + 2000)
        t = 2.0**j
        k = 1.0 if j == 0 else 2.0**j
        for n in (1, 2, 3, 8, 50, 1000, 10**4):
            for _ in range(3):
                xy = t * rng.uniform(-1.0, 1.0, (2, 2 * n))
                for x, y in ((xy[0, :n], xy[1, :n]), (xy[0, ::2], xy[1, ::2])):
                    want = self.sign(float(np.dot(x / k, y / k))) * k * k
                    assert self.measure(x, y) == want

    def test_parts_at_scales_apart(self):
        # a scale taken jointly from both parts would flush the smaller one to 0
        assert self.measure([1e200], [1e-200]) == 1.0
        assert self.measure([2.0**-537], [-(2.0**-537)]) == self.sign(-5e-324)
        assert self.measure([1e300], [-1e300]) == self.sign(-math.inf)
        # the small products stay where the large parts do not meet
        big, small = 2.0**500, 2.0**-40
        assert self.measure([big, small, 0.0], [0.0, -small, big]) == self.sign(-(2.0**-80))


class TestMembership(_AtEveryScale):
    @staticmethod
    def measure(x, y):
        return membership_residual(pair(x, y))

    def test_orthogonal_pair_tol_zero(self):
        assert membership_residual(pair([1.0, 0.0], [0.0, 1.0])) == 0.0

    def test_inner_product_one(self):
        assert membership_residual(pair([1.0, 1.0], [1.0, 0.0])) == 1.0

    def test_axis_points_always_members(self):
        # in R^1 the cross is the union of the two axes
        for x in (-3.0, 0.0, 0.25, 7.0):
            assert membership_residual(pair([x], [0.0])) == 0.0
            assert membership_residual(pair([0.0], [x])) == 0.0

    def test_closed_under_limits(self):
        # a convergent sequence of members has a member as its limit
        a = np.array([2.0, -1.0, 0.5])
        b = np.array([1.0, 2.0, 0.0])  # <a, b> = 0
        limit = pair(np.zeros(3), b)
        for k in (1, 10, 1000, 10**9):
            p = pair(a / k, b)
            assert membership_residual(p) == 0.0
        assert membership_residual(limit) == 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_pair_rejected(self, bad):
        # a silent inf or nan residual would read as a miss, or as no verdict
        for p in (pair([bad], [1.0]), pair([1.0, 2.0], [0.5, bad])):
            with pytest.raises(DomainError, match="non-finite"):
                membership_residual(p)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            membership_residual(pair([1.0, 2.0], [1.0]))

    def test_raw_product_at_unit_scale(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            for _ in range(20):
                x, y = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
                assert membership_residual(pair(x, y)) == abs(float(np.dot(x, y)))


class TestInnerAtScale(_AtEveryScale):
    measure = staticmethod(inner)
    sign = staticmethod(float)


class TestTolerances:
    @pytest.mark.parametrize("band", ["orth", "deg"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_band_must_be_finite_and_nonnegative(self, band, value):
        with pytest.raises(DomainError, match=f"^tolerance {band} must be finite"):
            Tolerances(**{band: value})

    def test_zero_bands_accepted(self):
        assert classify([1.0, 2.0], [3.0, 1.0], Tolerances(orth=0.0, deg=0.0)) is CaseTag.GENERIC

    @pytest.mark.parametrize("band, limit", [("orth", 0.5), ("deg", 1.0)])
    def test_band_below_its_limit(self, band, limit):
        # at its limit a band holds every input: |<x0,y0>| <= (M + |x0||y0|)/2
        # and min |x0 +- y0| <= |x0| + |y0| always
        widest = math.nextafter(limit, 0.0)
        assert getattr(Tolerances(**{band: widest}), band) == widest
        message = f"^tolerance {band} must be finite, >= 0 and < {limit:g}$"
        for value in (limit, 2.0 * limit):
            with pytest.raises(DomainError, match=message):
                Tolerances(**{band: value})

    def test_widest_orthogonal_band_leaves_the_ray(self):
        # orth = 0.5 would tag this pair, at distance sqrt 2, orthogonal at distance 0
        res = project([1.0, 1.0], [1.0, 1.0], Tolerances(orth=math.nextafter(0.5, 0.0)))
        assert res.tag is CaseTag.DEGENERATE_PLUS
        assert res.dist == math.sqrt(2.0)


class TestClassify:
    def test_orthogonal(self):
        assert classify([1.0, 0.0], [0.0, 1.0]) is CaseTag.ORTHOGONAL

    def test_degenerate_plus(self):
        assert classify([1.0, 1.0], [1.0, 1.0]) is CaseTag.DEGENERATE_PLUS

    def test_degenerate_minus(self):
        assert classify([1.0, 2.0], [-1.0, -2.0]) is CaseTag.DEGENERATE_MINUS

    def test_generic(self):
        assert classify([1.0, 2.0], [3.0, 1.0]) is CaseTag.GENERIC

    def test_origin_is_orthogonal(self):
        assert classify([0.0, 0.0], [0.0, 0.0]) is CaseTag.ORTHOGONAL

    def test_band_is_configurable(self):
        x0, y0 = [1.0, 1.0 + 1e-6], [1.0, 1.0]
        assert classify(x0, y0) is CaseTag.GENERIC
        assert classify(x0, y0, Tolerances(deg=1e-3)) is CaseTag.DEGENERATE_PLUS

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            classify([1.0], [1.0, 2.0])


def roots(x0, y0):
    """Both multiplier roots, small first, from the unit-scale record that
    ``check`` and the oracles read; the small one is ``project(...).lam``."""
    core = _unit(x0, y0, DEFAULT_TOLS)
    return core.lam, core.lam_plus


class TestSolveLambda:
    """The roots of q*lam^2 - S*lam + q = 0 as the record carries them."""

    def test_equal_inputs_double_root(self):
        lam, lam_plus = roots([1.0], [1.0])
        assert lam == pytest.approx(1.0, abs=1e-15)
        assert lam_plus == pytest.approx(1.0, abs=1e-15)

    def test_scalar_two_one(self):
        assert roots([2.0], [1.0]) == (0.5, 2.0)
        assert project([2.0], [1.0]).lam == 0.5

    def test_frozen_roots(self):
        lam, lam_plus = roots([1.0, 2.0], [3.0, 1.0])
        assert lam == pytest.approx(LAM_MINUS_12_31, rel=1e-14)
        assert lam_plus == pytest.approx(LAM_PLUS_12_31, rel=1e-14)

    def test_vieta_and_ordering(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            x0, y0 = random_generic(rng, n)
            lam, lam_plus = roots(x0, y0)
            q = inner(x0, y0)
            assert abs(lam * lam_plus - 1.0) <= 1e-10
            assert lam_plus * q >= lam * q > 0.0
            assert abs(lam) < 1.0 < abs(lam_plus)
            assert project(x0, y0).lam == lam

    def test_roots_solve_quadratic(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            x0, y0 = random_generic(rng, 3)
            q = inner(x0, y0)
            s = float(np.dot(x0, x0) + np.dot(y0, y0))
            for lam in roots(x0, y0):
                assert abs(q * lam * lam - s * lam + q) <= 1e-10 * (1.0 + s * abs(lam))


class TestCandidate:
    # the stationary pair at a multiplier root of the input ((2), (1)); the solve
    # itself is pinned in tests/test_linalg.py::TestBlockSolve
    def test_small_root_scalar(self):
        out = block_solve(0.5, as_pair([2.0], [1.0]))
        np.testing.assert_allclose(out.x, [2.0])
        np.testing.assert_allclose(out.y, [0.0], atol=1e-15)
        assert membership_residual(out) == 0.0

    def test_large_root_scalar(self):
        out = block_solve(2.0, as_pair([2.0], [1.0]))
        np.testing.assert_allclose(out.x, [0.0], atol=1e-15)
        np.testing.assert_allclose(out.y, [1.0])


class TestObjective:
    def test_zero_at_input(self):
        assert objective(pair([1.0, 2.0], [3.0, 4.0]), [1.0, 2.0], [3.0, 4.0]) == 0.0

    def test_small_branch_value(self):
        # displacement from ((2),(1)) to ((2),(0)); equals lam_minus*q/2 = 0.5*2/2
        assert objective(pair([2.0], [0.0]), [2.0], [1.0]) == 0.5

    def test_large_branch_value(self):
        # equals lam_plus*q/2 = 2*2/2, strictly above the small branch
        assert objective(pair([0.0], [1.0]), [2.0], [1.0]) == 2.0

    @pytest.mark.parametrize(
        "p",
        [
            pair([1.0], [1.0]),
            pair([1.0, 2.0, 3.0], [1.0]),
            pair([[1.0, 2.0, 3.0]], [1.0, 2.0, 3.0]),
        ],
        ids=["shorter", "parts_differ", "two_dimensional"],
    )
    def test_shape_mismatch_rejected(self, p):
        # numpy would broadcast each of these against the input
        with pytest.raises(DimensionMismatch):
            objective(p, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_point_rejected(self, bad):
        # numpy would return inf or nan
        with pytest.raises(DomainError):
            objective(Pair(np.array([bad]), np.array([0.0])), [1.0], [1.0])
        with pytest.raises(DomainError):
            objective(Pair(np.array([0.0]), np.array([bad])), [1.0], [1.0])


class TestProject:
    def test_orthogonal_input_fixed(self):
        res = project([1.0, 0.0], [0.0, 1.0])
        assert isinstance(res, SingletonProjection)
        assert res.tag is CaseTag.ORTHOGONAL
        assert res.lam == 0.0
        assert res.half_dist_sq == 0.0
        np.testing.assert_array_equal(res.point.x, [1.0, 0.0])
        np.testing.assert_array_equal(res.point.y, [0.0, 1.0])

    def test_scalar_generic(self):
        res = project([2.0], [1.0])
        assert res.tag is CaseTag.GENERIC
        np.testing.assert_allclose(res.point.x, [2.0])
        np.testing.assert_allclose(res.point.y, [0.0], atol=1e-15)
        assert res.half_dist_sq == 0.5

    def test_frozen_generic_point(self):
        res = project([1.0, 2.0], [3.0, 1.0])
        assert res.lam == pytest.approx(LAM_MINUS_12_31, rel=1e-14)
        np.testing.assert_allclose(res.point.x, POINT_12_31[0], rtol=1e-12)
        np.testing.assert_allclose(res.point.y, POINT_12_31[1], rtol=1e-12)

    def test_scalar_degenerate_family(self):
        res = project([1.0], [1.0])
        assert isinstance(res, FamilyProjection)
        assert res.half_dist_sq == 0.5
        sel = res.selections()
        np.testing.assert_array_equal(sel[0].x, [0.0])
        np.testing.assert_array_equal(sel[0].y, [1.0])
        np.testing.assert_array_equal(sel[1].x, [1.0])
        np.testing.assert_array_equal(sel[1].y, [0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            project([np.nan, 0.0], [0.0, 1.0])
        with pytest.raises(DomainError):
            project([1.0], [np.inf])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            project([1.0, 2.0], [1.0])


class TestDistanceSq:
    def test_orthogonal_zero(self):
        assert 2.0 * project([1.0, 0.0], [0.0, 2.0]).half_dist_sq == 0.0

    def test_scalar_generic(self):
        assert 2.0 * project([2.0], [1.0]).half_dist_sq == 1.0

    def test_scalar_degenerate(self):
        assert 2.0 * project([1.0], [1.0]).half_dist_sq == 1.0

    def test_matches_norm_expression(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            x0, y0 = random_generic(rng, 3)
            s = float(np.dot(x0, x0) + np.dot(y0, y0))
            p = norm(x0 + y0) * norm(x0 - y0)
            dist_sq = 2.0 * project(x0, y0).half_dist_sq
            assert dist_sq == pytest.approx((s - p) / 2.0, rel=1e-9, abs=1e-13)


class TestDegenerateFamily:
    def test_plane_example(self):
        out = project([1.0, 1.0], [1.0, 1.0]).member([1.0, 0.0])
        np.testing.assert_array_equal(out.x, [1.0, 0.0])
        np.testing.assert_array_equal(out.y, [0.0, 1.0])
        assert objective(out, [1.0, 1.0], [1.0, 1.0]) == 1.0

    def test_scalar_example(self):
        out = project([1.0], [1.0]).member([1.0])
        np.testing.assert_array_equal(out.x, [1.0])
        np.testing.assert_array_equal(out.y, [0.0])

    def test_objective_independent_of_direction(self):
        rng = np.random.default_rng(15)
        x0 = rng.uniform(0.5, 1.5, 4)
        y0 = -x0
        half = 0.25 * float(np.dot(x0, x0) + np.dot(y0, y0))
        res = project(x0, y0)
        for _ in range(50):
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            member = res.member(u)
            assert membership_residual(member) <= feas_tol(x0, y0)
            assert objective(member, x0, y0) == pytest.approx(half, rel=1e-10)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(NotUnitNorm):
            project([1.0], [1.0]).member([2.0])

    def test_member_under_wide_band(self):
        # degenerate only under deg = 1e-6: the member comes from the stored
        # x0 and y0, which are not classified again at the default bands
        x0 = np.array([1.0, 2.0, 3.0])
        y0 = x0 + 1e-8 * np.array([1.0, -1.0, 0.5])
        res = project(x0, y0, Tolerances(deg=1e-6))
        assert res.tag is CaseTag.DEGENERATE_PLUS
        e1 = np.array([1.0, 0.0, 0.0])
        out = res.member(e1)
        np.testing.assert_array_equal(out.x, x0[0] * e1)
        np.testing.assert_array_equal(out.y, y0 - y0[0] * e1)
        assert membership_residual(out) == 0.0

    def test_member_checks_direction(self):
        res = project([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(NotUnitNorm):
            res.member([2.0, 0.0])
        with pytest.raises(DimensionMismatch):
            res.member([1.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            res.member([np.nan, 1.0])


class TestFamilyEnumerate:
    def test_count_one_is_base(self):
        out = [p for _, p in family_samples([1.0], [1.0], 1)]
        assert len(out) == 1
        np.testing.assert_array_equal(out[0].x, [0.0])
        np.testing.assert_array_equal(out[0].y, [1.0])

    def test_scalar_injective_exhausts(self):
        out = [p for _, p in family_samples([1.0], [1.0], 3)]
        assert len(out) == 2
        np.testing.assert_array_equal(out[0].x, [0.0])
        np.testing.assert_array_equal(out[0].y, [1.0])
        np.testing.assert_array_equal(out[1].x, [1.0])
        np.testing.assert_array_equal(out[1].y, [0.0])

    def test_plane_grid_objectives_constant(self):
        x0 = np.array([1.0, 1.0])
        out = [p for _, p in family_samples(x0, x0, 5)]
        assert len(out) == 5
        for p in out:
            assert membership_residual(p) <= feas_tol(x0, x0)
            assert objective(p, x0, x0) == pytest.approx(1.0, rel=1e-12)

    def test_injective_mode_distinct_positive_side(self):
        x0 = np.array([1.0, -2.0, 0.5])
        samples = family_samples(x0, x0, 12)
        seen = []
        for u, p in samples[1:]:
            assert float(np.dot(u, x0)) > 0.0
            for q in seen:
                assert not (np.array_equal(p.x, q.x) and np.array_equal(p.y, q.y))
            seen.append(p)
        assert len(samples) == 12

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 50),
        exponent=st.integers(-300, 300),
        sign=st.sampled_from([1.0, -1.0]),
        tols=st.sampled_from([DEFAULT_TOLS, Tolerances(orth=0.0, deg=0.0)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_opposite_directions_give_one_member(self, n, exponent, sign, tols, seed):
        # u and -u give the same member bit for bit, so family_samples keeps one
        # direction per line and loses no member
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n) * 10.0**exponent
        res = project(x0, sign * x0, tols)
        assert res.tag.is_degenerate
        g = rng.standard_normal(n)
        u = g / np.linalg.norm(g)
        m, w = res.member(u), res.member(-u)
        assert (m.x.tobytes(), m.y.tobytes()) == (w.x.tobytes(), w.y.tobytes())

    def test_injective_visits_each_pole_once(self, monkeypatch):
        # sampling builds one member per returned direction at n = 10,
        # so its cost is linear in count, not in the size of a lattice over S^(n-1)
        calls, member = [], projection_mod._family_member
        monkeypatch.setattr(
            projection_mod, "_family_member", lambda *a: calls.append(1) or member(*a)
        )
        x0 = np.linspace(0.5, 1.5, 10)
        assert len(family_samples(x0, x0, 8)) == 8
        assert len(calls) == 8 - 1

    def test_injective_builds_only_returned_members(self, monkeypatch):
        # 2,000 directions at n = 4 build no member for a direction not returned
        calls, member = [], projection_mod._family_member
        monkeypatch.setattr(
            projection_mod, "_family_member", lambda *a: calls.append(1) or member(*a)
        )
        x0 = np.ones(4)
        assert len(family_samples(x0, x0, 2000)) == 2000
        assert len(calls) == 1999

    def test_members_are_project_members(self, monkeypatch):
        # the family comes from project alone, so every sample is its member
        # and family_samples classifies its input once
        calls, real = [], projection_mod._roots
        monkeypatch.setattr(projection_mod, "_roots", lambda *a: calls.append(1) or real(*a))
        v = np.array([1.0, -2.0, 0.0, 0.5])
        back = np.linspace(-1.0, 2.0, 9)[::-2]
        inputs = [
            (v, v, DEFAULT_TOLS),  # in the window
            (1e200 * v, -1e200 * v, DEFAULT_TOLS),  # scaled by c
            (back, back, DEFAULT_TOLS),  # a reversed view
            (v, -v, Tolerances(orth=0.0, deg=0.0)),
            (np.array([3.0]), np.array([3.0]), DEFAULT_TOLS),
        ]
        for x0, y0, tols in inputs:
            res = project(x0, y0, tols)
            calls.clear()
            (u, first), *rest = family_samples(x0, y0, 40, tols)
            assert len(calls) == 1
            assert not u.any()
            assert first.x.tobytes() == np.zeros(x0.size).tobytes()
            assert first.y.tobytes() == res.y0.tobytes()
            for u, p in rest:
                m = res.member(u)
                assert (p.x.tobytes(), p.y.tobytes()) == (m.x.tobytes(), m.y.tobytes())

    def test_larger_count_extends_smaller(self):
        # directions are drawn row by row, so the first samples never change
        for x0 in (np.array([1.0, -2.0]), np.linspace(-1.0, 2.0, 16)):
            short = family_samples(x0, x0, 10)
            long = family_samples(x0, x0, 50)
            assert len(short) == 10 and len(long) == 50
            for (u, p), (v, q) in zip(short, long):
                assert u.tobytes() == v.tobytes()
                assert (p.x.tobytes(), p.y.tobytes()) == (q.x.tobytes(), q.y.tobytes())

    def test_same_samples_every_call(self):
        x0 = np.array([1.0, -2.0, 0.5])
        first, again = family_samples(x0, -x0, 20), family_samples(x0, -x0, 20)
        for (u, p), (v, q) in zip(first, again, strict=True):
            assert u.tobytes() == v.tobytes()
            assert (p.x.tobytes(), p.y.tobytes()) == (q.x.tobytes(), q.y.tobytes())

    def test_directions_are_unit_and_injective_ones_positive(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 8, 50):
            x0 = rng.uniform(-1.0, 1.0, n)
            for t, sign in ((1.0, 1.0), (1e300, -1.0), (1e-300, 1.0)):
                samples = family_samples(t * x0, sign * t * x0, 30)
                us = np.array([u for u, _ in samples[1:]])
                np.testing.assert_allclose(np.linalg.norm(us, axis=1), 1.0, rtol=1e-14)
                assert (us @ x0 > 0.0).all(), (n, t)

    @pytest.mark.parametrize("x0", [2.0, -2.0])
    def test_scalar_sample_counts(self, x0):
        # at n = 1 the family has one line member, with the direction sign(x0)
        for count, size in ((1, 1), (2, 2), (3, 2)):
            out = family_samples(x0, x0, count)
            assert len(out) == size
            for u, _ in out[1:]:
                assert u.tolist() == [math.copysign(1.0, x0)]

    def test_wrong_case_rejected(self):
        with pytest.raises(CaseError):
            family_samples([1.0, 2.0], [3.0, 1.0], 4)

    def test_bad_mode_and_count(self):
        with pytest.raises(DomainError):
            family_samples([1.0], [1.0], 0)

    @pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3.0), True, np.True_, "3"], ids=repr)
    def test_non_integer_count_rejected(self, count):
        # a count is a number of samples: a float, bool or string is refused,
        # even where it equals an integer
        with pytest.raises(DomainError, match="count must be an integer"):
            family_samples([1.0, 1.0], [1.0, 1.0], count)

    def test_numpy_integer_count(self):
        for count in (np.int64(5), np.int32(5), np.uint8(5)):
            assert len(family_samples([1.0, 1.0], [1.0, 1.0], count)) == 5


class TestProject1d:
    """project on two floats: n = 1, where the cross is the two axes."""

    def test_dominant_x(self):
        res = project(2.0, 1.0)
        np.testing.assert_array_equal(res.point.x, [2.0])
        np.testing.assert_array_equal(res.point.y, [0.0])

    def test_dominant_y(self):
        res = project(1.0, -3.0)
        np.testing.assert_array_equal(res.point.x, [0.0])
        np.testing.assert_array_equal(res.point.y, [-3.0])

    def test_tied_magnitudes_split(self):
        res = project(1.0, -1.0)
        assert isinstance(res, FamilyProjection)
        assert res.tag is CaseTag.DEGENERATE_MINUS
        points = {(float(p.x[0]), float(p.y[0])) for p in res.selections()}
        assert points == {(1.0, 0.0), (0.0, -1.0)}

    def test_origin_fixed(self):
        res = project(0.0, 0.0)
        assert res.tag is CaseTag.ORTHOGONAL
        np.testing.assert_array_equal(res.point.x, [0.0])
        np.testing.assert_array_equal(res.point.y, [0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            project(math.nan, 1.0)

    @pytest.mark.parametrize("t", [1e-300, 1e300])
    def test_extreme_scale(self, t):
        res = project(-3.0 * t, t)
        assert res.tag is CaseTag.GENERIC
        assert res.lam == pytest.approx(-1.0 / 3.0, rel=1e-15)
        np.testing.assert_array_equal(res.point.x, [-3.0 * t])
        np.testing.assert_array_equal(res.point.y, [0.0])
        assert res.half_dist_sq == pytest.approx(0.5 * t * t, abs=1e-300)

    def test_point_on_its_axis(self):
        # the longer component is kept exactly and the other one is zeroed
        rng = np.random.default_rng(16)
        for _ in range(500):
            x0 = float(rng.uniform(-2.0, 2.0))
            y0 = float(rng.uniform(-2.0, 2.0))
            res = project(x0, y0)
            assert res.tag is CaseTag.GENERIC
            expected = (x0, 0.0) if abs(x0) > abs(y0) else (0.0, y0)
            assert (float(res.point.x[0]), float(res.point.y[0])) == expected


class TestInvariants:
    """Module-level invariants on seeded random inputs."""

    def test_feasibility_of_all_outputs(self):
        rng = np.random.default_rng(20)
        for _ in range(400):
            n = int(rng.integers(1, 9))
            x0 = rng.uniform(-1.0, 1.0, n)
            y0 = rng.uniform(-1.0, 1.0, n)
            res = project(x0, y0)
            tol = feas_tol(x0, y0)
            for p in res.selections():
                assert membership_residual(p) <= tol

    def test_stationarity_and_objective_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(400):
            n = int(rng.integers(1, 9))
            x0, y0 = random_generic(rng, n)
            res = project(x0, y0)
            scale = 1.0 + norm(x0) + norm(y0)
            pt, lam = res.point, res.lam
            assert norm(pt.x + lam * pt.y - x0) <= 1e-10 * scale
            assert norm(pt.y + lam * pt.x - y0) <= 1e-10 * scale
            f = objective(pt, x0, y0)
            q = inner(x0, y0)
            assert abs(f - 0.5 * lam * q) <= 1e-10 * (1.0 + abs(f))

    def test_plus_branch_objective_strictly_larger(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            x0, y0 = random_generic(rng, 4)
            lam, lam_plus = roots(x0, y0)
            f_minus = objective(block_solve(lam, as_pair(x0, y0)), x0, y0)
            f_plus = objective(block_solve(lam_plus, as_pair(x0, y0)), x0, y0)
            assert f_plus > f_minus

    def test_closed_form_objective_any_multiplier(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            x0, y0 = rng.standard_normal((2, 3))
            q = inner(x0, y0)
            s = float(np.dot(x0, x0) + np.dot(y0, y0))
            for _ in range(20):
                lam = float(rng.uniform(-3.0, 3.0))
                if abs(1.0 - lam * lam) < 0.15:
                    continue
                cand = block_solve(lam, as_pair(x0, y0))
                formula = (
                    lam * lam / (2.0 * (1.0 - lam * lam) ** 2)
                    * ((1.0 + lam * lam) * s - 4.0 * lam * q)
                )
                f = objective(cand, x0, y0)
                assert abs(f - formula) <= 1e-10 * (1.0 + abs(formula))

    def test_orthogonality_quadratic_both_directions(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            x0, y0 = random_generic(rng, 3)
            q = inner(x0, y0)
            s = float(np.dot(x0, x0) + np.dot(y0, y0))
            # candidates at the roots are orthogonal pairs
            for lam in roots(x0, y0):
                cand = block_solve(lam, as_pair(x0, y0))
                assert membership_residual(cand) <= feas_tol(x0, y0)
            # at any multiplier the constraint value matches the quadratic residual
            for _ in range(20):
                lam = float(rng.uniform(-3.0, 3.0))
                if abs(1.0 - lam * lam) < 0.15:
                    continue
                cand = block_solve(lam, as_pair(x0, y0))
                lhs = inner(cand.x, cand.y) * (1.0 - lam * lam) ** 2
                rhs = (1.0 + lam * lam) * q - lam * s
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + s)

    def test_cone_homogeneity(self):
        rng = np.random.default_rng(25)
        for _ in range(150):
            n = int(rng.integers(1, 7))
            x0 = rng.uniform(-1.0, 1.0, n)
            y0 = rng.uniform(-1.0, 1.0, n)
            res = project(x0, y0)
            for t in (0.5, 2.0, 10.0, 1e-300, 1e-150, 1e-8, 1e8, 1e150, 1e300):
                scaled = project(t * x0, t * y0)
                assert scaled.tag is res.tag
                assert scaled.half_dist_sq == pytest.approx(
                    t * t * res.half_dist_sq, rel=1e-9, abs=1e-300
                )
                if isinstance(res, SingletonProjection):
                    assert scaled.lam == pytest.approx(res.lam, rel=1e-9, abs=1e-300)
                for a, b in zip(scaled.selections(), res.selections()):
                    np.testing.assert_allclose(a.x, t * b.x, atol=1e-9 * t)
                    np.testing.assert_allclose(a.y, t * b.y, atol=1e-9 * t)

    @pytest.mark.parametrize("j", [-900, -300, -201, -199, -60, 3, 60, 199, 201, 300, 900])
    def test_power_of_two_homogeneity_is_exact(self, j):
        # t = 2^j on both sides of the 2^+-200 window outside which the arrays
        # are divided by c: the same tag and lam bits, and exactly t times the
        # distance and every selection (half_dist_sq's t^2 underflows at -900)
        t = 2.0**j
        rng = np.random.default_rng([27, j + 1000])
        for n in range(1, 61):
            y0 = rng.uniform(-1.0, 1.0, n)
            w = rng.standard_normal(n)
            for x0 in (rng.uniform(-1.0, 1.0, n), y0 + 1e-8 * w / np.linalg.norm(w), y0):
                res = project(x0, y0)
                scaled = project(t * x0, t * y0)
                assert scaled.tag is res.tag
                if isinstance(res, SingletonProjection):
                    assert scaled.lam == res.lam
                assert scaled.dist == t * res.dist
                for a, b in zip(scaled.selections(), res.selections(), strict=True):
                    np.testing.assert_array_equal(a.x, t * b.x)
                    np.testing.assert_array_equal(a.y, t * b.y)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(26)
        for _ in range(150):
            n = int(rng.integers(1, 7))
            x0 = rng.uniform(-1.0, 1.0, n)
            y0 = rng.uniform(-1.0, 1.0, n)
            res = project(x0, y0)
            swapped = project(y0, x0)
            assert swapped.tag is res.tag
            assert swapped.half_dist_sq == pytest.approx(
                res.half_dist_sq, rel=1e-12, abs=1e-300
            )
            if isinstance(res, SingletonProjection):
                assert swapped.lam == pytest.approx(res.lam, rel=1e-12, abs=1e-300)
                np.testing.assert_allclose(swapped.point.x, res.point.y, atol=1e-12)
                np.testing.assert_allclose(swapped.point.y, res.point.x, atol=1e-12)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            x0, y0 = random_generic(rng, n)
            a = rng.standard_normal((n, n))
            rot, r = np.linalg.qr(a)
            rot = rot * np.sign(np.diag(r))
            res = project(x0, y0)
            rotated = project(rot @ x0, rot @ y0)
            assert rotated.tag is res.tag
            np.testing.assert_allclose(rotated.point.x, rot @ res.point.x, atol=1e-9)
            np.testing.assert_allclose(rotated.point.y, rot @ res.point.y, atol=1e-9)

    @given(
        x=arrays(np.float64, (3,), elements=st.floats(-1e3, 1e3)),
        y=arrays(np.float64, (3,), elements=st.floats(-1e3, 1e3)),
    )
    @settings(max_examples=100)
    def test_convex_hull_decomposition(self, x, y):
        # (2x, 0) and (0, 2y) lie in the cross exactly and average to (x, y)
        assert membership_residual(pair(2.0 * x, np.zeros(3))) == 0.0
        assert membership_residual(pair(np.zeros(3), 2.0 * y)) == 0.0
        np.testing.assert_array_equal(0.5 * (2.0 * x) + 0.0, x)
        np.testing.assert_array_equal(0.0 + 0.5 * (2.0 * y), y)

    def test_subspace_reduction_identity(self):
        rng = np.random.default_rng(28)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            x0 = rng.uniform(-1.0, 1.0, n)
            y0 = rng.uniform(-1.0, 1.0, n)
            res = project(x0, y0)
            if not isinstance(res, SingletonProjection):
                continue
            scale = 1.0 + norm(x0) + norm(y0)
            if norm(res.point.x) <= 1e-9 * scale:
                np.testing.assert_allclose(res.point.y, y0, atol=1e-9 * scale)
            else:
                u = res.point.x / norm(res.point.x)
                np.testing.assert_allclose(
                    res.point.x, float(np.dot(u, x0)) * u, atol=1e-9 * scale
                )
                np.testing.assert_allclose(
                    res.point.y, y0 - float(np.dot(u, y0)) * u, atol=1e-9 * scale
                )


class TestNearDegenerateStability:
    """x0 = y0 + eps*w just outside the degenerate band stays well behaved."""

    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10])
    def test_stress(self, eps):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            y0 = rng.uniform(-1.0, 1.0, n)
            w = rng.standard_normal(n)
            w /= np.linalg.norm(w)
            x0 = y0 + eps * w
            res = project(x0, y0)
            assert res.tag is CaseTag.GENERIC
            pt = res.point
            assert np.all(np.isfinite(pt.x)) and np.all(np.isfinite(pt.y))
            assert membership_residual(pt) <= feas_tol(x0, y0, scale=1e-8)
            canon = min(
                objective(pair(np.zeros(n), y0), x0, y0),
                objective(pair(x0, np.zeros(n)), x0, y0),
            )
            assert objective(pt, x0, y0) <= canon + 1e-7


class TestOverflowOrder:
    """Half the squared distance is rescaled as (half * c) * c: for
    x = t (1, 1e-6), y = t (0, 1) at t = 2^520 the power-of-two scale c is
    2^521, so c^2 overflows although the distance itself is finite."""

    X, Y = np.array([1.0, 1e-6]), np.array([0.0, 1.0])

    @pytest.mark.parametrize("t", [2.0**520, 2.0**-530])
    def test_half_matches_reference(self, t):
        x0, y0 = t * self.X, t * self.Y
        res = project(x0, y0)
        assert res.tag is CaseTag.GENERIC
        assert reference.wrong_reason(x0, y0, res.half_dist_sq, res.selections()) is None
        c, half_u, _ = reference.unit_scale(x0, y0)
        assert res.half_dist_sq == pytest.approx((c * half_u) * c, rel=1e-9, abs=0.0)

    def test_finite_where_c_squared_overflows(self):
        res = project(2.0**520 * self.X, 2.0**520 * self.Y)
        assert math.isfinite(res.half_dist_sq)
        assert res.half_dist_sq == pytest.approx(2.945340432157681e300, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_distance_where_its_square_overflows(self):
        x0, y0 = np.array([1e308, 1e308]), np.array([1e308, -5e307])
        res = project(x0, y0)
        assert res.half_dist_sq == math.inf
        c, half_u, _ = reference.unit_scale(x0, y0)
        assert res.dist == pytest.approx(c * math.sqrt(2.0 * half_u), rel=1e-14)
        # n = 1: the nearest point is (x0, 0), at distance |y0|
        assert project(1e308, 5e307).dist == pytest.approx(5e307, rel=1e-15)

    def test_distance_is_root_of_twice_half(self):
        for x0, y0 in [([2.0], [1.0]), ([1.0, 1.0], [1.0, 1.0]), ([1.0, 0.0], [0.0, 2.0])]:
            res = project(x0, y0)
            assert res.dist == math.sqrt(2.0 * res.half_dist_sq)
        # every result is built with its distance: the field has no default
        with pytest.raises(TypeError):
            SingletonProjection(CaseTag.GENERIC, pair([2.0], [0.0]), 0.5, 0.5)

    def test_fallback_where_norm_sum_overflows(self):
        # near-degenerate, inside the band where the raw multiplier candidates
        # lose precision; at t = 2^1023, |x0| + |y0| exceeds the float64 range
        # but the point does not, and scaling by a power of two keeps every bit
        x, y = np.array([0.91, 0.65]), np.array([0.91, 0.65 + 1.3e-8])
        unit, t = project(x, y), 2.0**1023
        assert abs(1.0 - unit.lam**2) < FALLBACK_BAND
        res = project(t * x, t * y)
        assert res.lam == unit.lam
        np.testing.assert_array_equal(res.point.x, t * unit.point.x)
        np.testing.assert_array_equal(res.point.y, t * unit.point.y)


def _bits(res) -> tuple:
    # tag, lam, half_dist_sq, dist, every selection and a family's working
    # scale, as exact bytes
    extra = [res.lam] if hasattr(res, "lam") else [res._k]
    floats = [res.half_dist_sq, res.dist] + extra
    return (res.tag, [float(v).hex() for v in floats],
            [p.x.tobytes() + p.y.tobytes() for p in res.selections()])


def _answer_bits(res) -> tuple:
    # what project answers, as exact bytes: tag, half_dist_sq, dist, a
    # singleton's lam, every selection and a family's member on the diagonal
    # (not the scale a family keeps, which is 1 on the raw route)
    floats = [res.half_dist_sq, res.dist] + ([res.lam] if hasattr(res, "lam") else [])
    points = res.selections()
    if res.is_set_valued:
        points.append(res.member(np.full(res.x0.size, 1.0 / math.sqrt(res.x0.size))))
    return (res.tag, [float(v).hex() for v in floats],
            [p.x.tobytes() + p.y.tobytes() for p in points])


def _assert_scales(x0, y0, tols, j: int) -> None:
    """project(2^j x0, 2^j y0) keeps the tag of project(x0, y0); for |j| <= 900
    it keeps lam bit for bit, and every selection, a family's member on the
    diagonal and dist are 2^j times those of (x0, y0), rounded once where one
    side is subnormal.  Every nonzero coordinate of 2^j (x0, y0) must be
    normal, so the scaled input is exact."""
    base = project(x0, y0, tols)
    scaled = project(np.ldexp(x0, j), np.ldexp(y0, j), tols)
    assert scaled.tag is base.tag, j

    def same(big, small):  # at scales 2^j and 1; the larger side is scaled down
        if j >= 0:
            np.testing.assert_array_equal(np.ldexp(big, -j), small)
        else:
            np.testing.assert_array_equal(big, np.ldexp(small, j))

    if abs(j) > 900:
        return
    if isinstance(base, SingletonProjection):
        assert scaled.lam.hex() == base.lam.hex(), j
    else:
        u = np.full(base.x0.size, 1.0 / math.sqrt(base.x0.size))
        for a, b in zip(scaled.member(u), base.member(u)):
            same(a, b)
    same(scaled.dist, base.dist)
    for a, b in zip(scaled.selections(), base.selections(), strict=True):
        same(a.x, b.x)
        same(a.y, b.y)


def _exact_range(*vs) -> tuple[int, int]:
    # the j with every nonzero coordinate of 2^j v normal and finite
    exps = [math.frexp(float(c))[1] for v in vs for c in v if c != 0.0] or [0]
    return -1021 - min(exps), 1024 - max(exps)


def _band_pair(rng, n: int, r: float, orth: float, flat: bool = False):
    """(x, y) with |<x, y>| about r orth (M + P), M = max(|x|^2, |y|^2) and
    P = |x||y|: r = 1 is the edge of the orthogonal band.  A flat x (every
    |x_i| = 0.99) with a short y makes P small against M."""
    signs = rng.choice([-1.0, 1.0], n)
    x = 0.99 * signs if flat else rng.uniform(0.5, 1.5, n) * signs
    w = np.zeros(n) if n == 1 else rng.standard_normal(n)
    w -= (w @ x) / (x @ x) * x
    if n > 1:
        w *= (1e-3 if flat else 1.0) * np.linalg.norm(x) / np.linalg.norm(w)
    alpha = 0.0
    for _ in range(30):  # fixed point of alpha |x|^2 = r orth (M + P)
        y = w + alpha * x
        xx, yy = float(x @ x), float(y @ y)
        alpha = r * orth * (max(xx, yy) + math.sqrt(xx * yy)) / xx
    return x, w + alpha * x


def _in_orthogonal_band(x, y, tols) -> bool:
    # |<x, y>| <= orth (M + P), read off the raw reductions
    xx, yy = float(x @ x), float(y @ y)
    return abs(float(x @ y)) <= tols.orth * (max(xx, yy) + math.sqrt(xx) * math.sqrt(yy))


def _spread_vector(rng, n: int, spread: int, zeros: float) -> np.ndarray:
    # signed mantissas in [0.5, 1) at exponents 0 down to -spread; some zeros
    v = rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n)
    v = np.ldexp(v, -rng.integers(0, spread + 1, n))
    v[rng.random(n) < zeros] = 0.0
    return v


def _frac_sqrt(r: Fraction, bits: int = 4000) -> Fraction:
    # sqrt(r) to within 2^-bits
    return Fraction(math.isqrt(r.numerator * 4**bits // r.denominator), 2**bits)


class TestOnePass:
    """project decides an input whose raw sums of squares lie in
    (n 2^-396, 2^396) from <x0,y0>, |x0|^2 and |y0|^2 as they are, and every
    other input at unit scale.  Both bands are homogeneous, so the routes
    agree: a scaled input gives the scaled result, with the same tag."""

    WIDE = Tolerances(orth=1e-3)
    ZERO = Tolerances(orth=0.0, deg=0.0)

    @settings(max_examples=400, deadline=None)
    @given(
        tols=st.sampled_from([DEFAULT_TOLS, WIDE, ZERO]),
        n=st.sampled_from([1, 2, 3, 8, 50]),
        kind=st.sampled_from(["random", "plus", "minus", "near_orthogonal"]),
        spread=st.integers(0, 900),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_power_of_two_scaling(self, tols, n, kind, spread, seed, data):
        rng = np.random.default_rng(seed)
        x = _spread_vector(rng, n, spread, 0.2)
        if kind == "random":
            y = _spread_vector(rng, n, spread, 0.2)
        elif kind == "near_orthogonal":
            y = _spread_vector(rng, n, spread, 0.0)
            if x @ x > 0.0:
                y = y - (x @ y) / (x @ x) * x
        else:
            y = x.copy() if kind == "plus" else -x
            if n > 1:
                y[0] = np.nextafter(y[0], 2.0)  # just off the ray
        lo, hi = _exact_range(x, y)
        j = data.draw(st.integers(max(lo, -1000), min(hi, 1000)), label="j")
        _assert_scales(x, y, tols, j)

    @settings(max_examples=300, deadline=None)
    @given(
        tols=st.sampled_from([DEFAULT_TOLS, WIDE, ZERO]),
        n=st.sampled_from([1, 2, 3, 8, 50]),
        kind=st.sampled_from(["random", "plus", "minus", "near_orthogonal"]),
        spread=st.integers(0, 900),
        j=st.integers(-1000, 1000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unit_record_gives_project_bits(self, tols, n, kind, spread, j, seed):
        # check builds its input's result from the unit-scale record, and that
        # result is project's, bit for bit, in and out of the raw window
        rng = np.random.default_rng(seed)
        x = _spread_vector(rng, n, spread, 0.2)
        y = {"random": _spread_vector(rng, n, spread, 0.2), "plus": x.copy(), "minus": -x,
             "near_orthogonal": _spread_vector(rng, n, spread, 0.0)}[kind]
        if kind == "near_orthogonal" and x @ x > 0.0:
            y = y - (x @ y) / (x @ x) * x
        lo, hi = _exact_range(x, y)
        x, y = np.ldexp(x, min(max(j, lo), hi)), np.ldexp(y, min(max(j, lo), hi))
        assert _answer_bits(projection_mod._result(_unit(x, y, tols))) == _answer_bits(
            project(x, y, tols))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unit_record_gives_project_bits_on_the_check_battery(self, seed):
        for x0, y0, _, _ in workloads._check_battery(seed):
            for tols in (DEFAULT_TOLS, self.ZERO):
                want = _answer_bits(project(x0, y0, tols))
                assert _answer_bits(projection_mod._result(_unit(x0, y0, tols))) == want

    @pytest.mark.parametrize("flat", [False, True], ids=["random", "flat"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("j", [-199, -60, 0, 60, 199])
    def test_sliver_and_its_ends(self, n, j, flat):
        # around the edge of the orthogonal band, over the ratios 1/(8n) to 32
        # of |<x, y>| to orth (M + P) (which take in the bracket [1/(2n), 8] that
        # the scale-dependent band orth (c^2 + P) could fall in): the tag is
        # that of the band itself, and the input at 2^j gives the scaled result
        rng = np.random.default_rng([61, n, j + 200])
        ratios = list(np.geomspace(1.0 / (8 * n), 32.0, 49)) + [1.0]
        tags = set()
        for r in ratios:
            x, y = _band_pair(rng, n, r, self.WIDE.orth, flat)
            for s in (-2, -1, 0, 1, 2):  # a few ulps of y around each ratio
                y_s = y + s * np.spacing(y)
                res = project(x, y_s, self.WIDE)
                assert (res.tag is CaseTag.ORTHOGONAL) == _in_orthogonal_band(x, y_s, self.WIDE)
                _assert_scales(x, y_s, self.WIDE, j)
                tags.add(res.tag)
        assert {CaseTag.ORTHOGONAL, CaseTag.GENERIC} <= tags

    def test_band_edge_of_unit_scale(self):
        # n = 1, x = 1: M = 1 and P = |y|, so the edge sits at |y| = orth (1 + |y|)
        tols = self.WIDE
        edge = tols.orth / (1.0 - tols.orth)
        ys = np.linspace(0.9 * edge, 1.1 * edge, 201)
        tags = [project([1.0], [y], tols).tag for y in ys]
        for y, tag in zip(ys, tags):
            assert (tag is CaseTag.ORTHOGONAL) == (y <= tols.orth * (1.0 + y)), y
        assert tags[0] is CaseTag.ORTHOGONAL and tags[-1] is CaseTag.GENERIC
        assert tags.count(CaseTag.ORTHOGONAL) in (100, 101)

    @pytest.mark.parametrize("tols", [DEFAULT_TOLS, WIDE], ids=["default", "wide"])
    def test_views_lists_ints_and_scalars(self, tols):
        # each gives the bits of its contiguous float64 copy
        rng = np.random.default_rng(62)
        base = rng.standard_normal(24)
        cases = [
            (base[::2], base[1::2]),  # strided views
            (base[::-3], base[1::3]),  # a reversed view
            (base[::-1], base[::-1]),
            (list(base[:5]), list(base[5:10])),
            ([3, 4], [1, -2]),
            (np.array([1000, 0, 0]), np.array([7, 1000, 0])),
            (np.arange(1, 9), np.arange(8, 0, -1)),
            (np.float64(2.0), 1.0),
            (np.array(3.0), np.array(-3.0)),
            (2.0, 0.004),
            (1e300 * base[::-2], base[::2]),  # scaled route
        ]
        cases += [([1000, 0, 0], [k, 1000, 0]) for k in range(0, 20, 3)]
        for x0, y0 in cases:
            copies = (np.array(v, dtype=float, ndmin=1, order="C") for v in (x0, y0))
            assert _bits(project(x0, y0, tols)) == _bits(project(*copies, tols)), (x0, y0)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_window_edges(self, n):
        # across the edges of the raw route, for a generic pair, both rays and an axis pair
        rng = np.random.default_rng([64, n])
        x, y = rng.uniform(0.5, 1.5, n), rng.standard_normal(n)
        for j in (-206, -201, -200, -199, -198, -197, 196, 197, 198, 199, 200, 205):
            for x0, y0 in ((x, y), (x, x), (x, -x), (x, np.zeros(n))):
                _assert_scales(x0, y0, DEFAULT_TOLS, j)

    @pytest.mark.parametrize("j", [-60, 0, 60])
    def test_narrow_bands(self, j):
        # bands below 2^-300 take unit scale: their edge may fall among products
        # that underflow in the raw reductions but not at unit scale
        cases = [
            ([1.0], [1e-310]),
            ([1.0, 1e-310], [1e-310, 1.0]),
            ([2.0**100, 0.0], [2.0**100, 2.0**-537]),
            ([1.0, 2.0**-600], [1.0, 0.0]),
            ([2.0**-199, 2.0**-900], [0.0, 2.0**-200]),
        ]
        for tols in (self.ZERO, Tolerances(orth=1e-300, deg=1e-300)):
            for x, y in cases:
                x, y = np.array(x), np.array(y)
                lo, hi = _exact_range(x, y)
                for k in range(lo + max(-j, 0), hi - max(j, 0) + 1, 97):
                    _assert_scales(np.ldexp(x, k), np.ldexp(y, k), tols, j)

    def test_tag_of_an_underflowing_product(self):
        # at scale 1 the raw <x, y> = 2^-199 0 + 2^-900 2^-200 underflows to 0;
        # at unit scale it is 2^-704
        x, y = np.array([2.0**-199, 2.0**-900]), np.array([0.0, 2.0**-200])
        for j in (0, 100, 400):
            assert project(np.ldexp(x, j), np.ldexp(y, j), self.ZERO).tag is CaseTag.GENERIC

    @pytest.mark.parametrize("j", [0, 100, 400, 900])
    def test_distance_where_half_underflows(self, j):
        # half the squared distance underflows at unit scale, where the
        # distance does not: dist^2 = 2 q^2 / (S + sqrt(S^2 - 4 q^2))
        x, y = np.ldexp([2.0**-199, 2.0**-900], j), np.ldexp([0.0, 2.0**-200], j)
        res = project(x, y, self.ZERO)
        assert res.tag is CaseTag.GENERIC
        fx, fy = [Fraction(v) for v in x], [Fraction(v) for v in y]
        q = sum(a * b for a, b in zip(fx, fy))
        s = sum(a * a for a in fx) + sum(b * b for b in fy)
        want_sq = 2 * q * q / (s + _frac_sqrt(s * s - 4 * q * q))
        want = _frac_sqrt(want_sq)
        assert abs(Fraction(res.dist) - want) <= want * Fraction(1, 2**50)
        assert res.dist > 0.0
        if want_sq / 2 > Fraction(2.0**-1022):  # half_dist_sq is normal
            assert abs(Fraction(res.half_dist_sq) - want_sq / 2) <= want_sq * Fraction(1, 2**49)

    def test_in_window_reads_no_inf_norm(self, monkeypatch):
        # an in-window input outside the sliver is decided without the inf-norm pass
        calls = []
        real = projection_mod._pair
        monkeypatch.setattr(
            projection_mod, "_pair", lambda x, y, names: calls.append(names) or real(x, y, names)
        )
        rng = np.random.default_rng(63)
        for n in (1, 2, 3, 8, 50):
            for t in (2.0**-190, 1e-8, 1.0, 1e8, 2.0**190):
                x0, y0 = t * rng.standard_normal(n), t * rng.standard_normal(n)
                project(x0, y0)
                project(x0, np.zeros(n))  # orthogonal
                project(x0, -x0)  # degenerate
        assert calls == []
        project(np.array([1e300, 1.0]), np.array([1e300, -3.0]))
        assert calls == [("x0", "y0")]


class TestRecordIsRead:
    """A record is read, never written: ``_result`` and ``_selected`` build
    from it the same answer each time, and ``_selected`` takes the point the
    result would select."""

    # near the ray the record keeps the array d^2 was summed from, v (xs - ys
    # where q > 0, xs + ys where q < 0), scaled to its part of the point
    NEAR_RAY = {
        "q_negative": ([1.0, 2.0, 3.0], [-1.1, -2.0, -2.9]),
        "q_positive": ([1.0, 2.0, 3.0], [1.1, 2.0, 2.9]),
        "q_negative_scaled": ([1e300, 2e300, 3e300], [-1.1e300, -2e300, -2.9e300]),
        "q_positive_n50": (np.linspace(1.0, 2.0, 50), np.linspace(1.0, 2.0, 50) + 1e-3),
    }

    @pytest.mark.parametrize("name", list(NEAR_RAY))
    def test_second_build_keeps_the_first(self, name):
        x0, y0 = (np.array(v, dtype=float) for v in self.NEAR_RAY[name])
        rec = projection_mod._classified(x0, y0, DEFAULT_TOLS)
        assert rec.tag is CaseTag.GENERIC and rec.v is not None
        v = rec.v.copy()
        first = projection_mod._result(rec)
        want = _bits(first)
        assert _bits(projection_mod._result(rec)) == want
        assert _bits(first) == want
        assert projection_mod._selected(rec, 0).y.tobytes() == first.point.y.tobytes()
        assert rec.v.tobytes() == v.tobytes()
        assert _bits(project(x0, y0)) == want

    def test_point_of_the_documented_input(self):
        # a second build once scaled the record's v again: point.y read
        # (-25.6, -14.7, -3.7) in place of (-1.87, -1.02, -0.16)
        rec = projection_mod._classified([1.0, 2.0, 3.0], [-1.1, -2.0, -2.9], DEFAULT_TOLS)
        for _ in range(2):
            y = projection_mod._result(rec).point.y
            np.testing.assert_allclose(y, [-1.87, -1.02, -0.16], atol=0.01)

    @pytest.mark.parametrize("n", [1, 3, 50])
    def test_selected_is_the_results_selection(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(-2.0, 2.0, n)
        on_x = np.arange(n) % 2 == 0
        inputs = {
            "generic": (x, rng.uniform(-2.0, 2.0, n)),
            "orthogonal": (np.where(on_x, x, 0.0), np.where(on_x, 0.0, x)),
            "degenerate_plus": (x, x.copy()),
            "degenerate_minus": (x, -x),
            "scaled": (1e300 * x, -1e300 * rng.uniform(-2.0, 2.0, n)),
        }
        for name, (x0, y0) in inputs.items():
            rec = projection_mod._classified(x0, y0, DEFAULT_TOLS)
            assert rec.tag.value == name or name in ("generic", "scaled")
            res = projection_mod._result(rec)
            for which in (0, 1):
                got = projection_mod._selected(rec, which)
                want = res.selections()[which if res.is_set_valued else 0]
                assert got.x.tobytes() + got.y.tobytes() == want.x.tobytes() + want.y.tobytes()
