import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crossproj import (
    CaseError,
    CaseTag,
    DimensionMismatch,
    DomainError,
    FamilyProjection,
    NotUnitNorm,
    Pair,
    SingletonProjection,
    SingularSystem,
    Tolerances,
    candidate,
    classify,
    degenerate_family,
    distance_sq,
    family_enumerate,
    family_samples,
    inner,
    membership,
    membership_residual,
    norm,
    objective,
    project,
    project_1d,
    solve_lambda,
)
from crossproj.oracle import FALLBACK_BAND

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import reference  # noqa: E402

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


class TestMembership:
    def test_orthogonal_pair_tol_zero(self):
        assert membership(pair([1.0, 0.0], [0.0, 1.0]), 0.0)

    def test_inner_product_one(self):
        assert not membership(pair([1.0, 1.0], [1.0, 0.0]), 1e-9)

    def test_axis_points_always_members(self):
        # in R^1 the cross is the union of the two axes
        for x in (-3.0, 0.0, 0.25, 7.0):
            assert membership(pair([x], [0.0]), 0.0)
            assert membership(pair([0.0], [x]), 0.0)

    def test_negative_tol_rejected(self):
        with pytest.raises(DomainError):
            membership(pair([1.0], [1.0]), -1.0)

    def test_closed_under_limits(self):
        # a convergent sequence of members has a member as its limit
        a = np.array([2.0, -1.0, 0.5])
        b = np.array([1.0, 2.0, 0.0])  # <a, b> = 0
        limit = pair(np.zeros(3), b)
        for k in (1, 10, 1000, 10**9):
            p = pair(a / k, b)
            assert membership(p, 0.0)
        assert membership(limit, 0.0)


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


class TestSolveLambda:
    def test_equal_inputs_double_root(self):
        lams = solve_lambda([1.0], [1.0])
        assert lams.lambda_minus == pytest.approx(1.0, abs=1e-15)
        assert lams.lambda_plus == pytest.approx(1.0, abs=1e-15)

    def test_scalar_two_one(self):
        lams = solve_lambda([2.0], [1.0])
        assert lams.lambda_minus == 0.5
        assert lams.lambda_plus == 2.0

    def test_frozen_roots(self):
        lams = solve_lambda([1.0, 2.0], [3.0, 1.0])
        assert lams.lambda_minus == pytest.approx(LAM_MINUS_12_31, rel=1e-14)
        assert lams.lambda_plus == pytest.approx(LAM_PLUS_12_31, rel=1e-14)

    def test_orthogonal_rejected(self):
        with pytest.raises(CaseError):
            solve_lambda([1.0, 0.0], [0.0, 1.0])

    def test_vieta_and_ordering(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            x0, y0 = random_generic(rng, n)
            lams = solve_lambda(x0, y0)
            q = inner(x0, y0)
            assert abs(lams.lambda_minus * lams.lambda_plus - 1.0) <= 1e-10
            assert lams.lambda_plus * q >= lams.lambda_minus * q > 0.0
            assert abs(lams.lambda_minus) < 1.0 < abs(lams.lambda_plus)

    def test_roots_solve_quadratic(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            x0, y0 = random_generic(rng, 3)
            q = inner(x0, y0)
            s = float(np.dot(x0, x0) + np.dot(y0, y0))
            for lam in solve_lambda(x0, y0):
                assert abs(q * lam * lam - s * lam + q) <= 1e-10 * (1.0 + s * abs(lam))


class TestCandidate:
    def test_zero_multiplier_returns_input(self):
        out = candidate(0.0, [1.0, 2.0], [3.0, 4.0])
        np.testing.assert_array_equal(out.x, [1.0, 2.0])
        np.testing.assert_array_equal(out.y, [3.0, 4.0])

    def test_small_root_scalar(self):
        out = candidate(0.5, [2.0], [1.0])
        np.testing.assert_allclose(out.x, [2.0])
        np.testing.assert_allclose(out.y, [0.0], atol=1e-15)
        assert membership(out, 0.0)

    def test_large_root_scalar(self):
        out = candidate(2.0, [2.0], [1.0])
        np.testing.assert_allclose(out.x, [0.0], atol=1e-15)
        np.testing.assert_allclose(out.y, [1.0])

    def test_stationarity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            x0, y0 = rng.standard_normal((2, 4))
            lam = rng.uniform(-0.9, 0.9)
            out = candidate(lam, x0, y0)
            scale = 1e-10 * (1.0 + norm(x0) + norm(y0))
            np.testing.assert_allclose(out.x + lam * out.y, x0, atol=scale)
            np.testing.assert_allclose(out.y + lam * out.x, y0, atol=scale)

    def test_singular_multiplier(self):
        with pytest.raises(SingularSystem):
            candidate(1.0, [1.0], [2.0])


class TestObjective:
    def test_zero_at_input(self):
        assert objective(pair([1.0, 2.0], [3.0, 4.0]), [1.0, 2.0], [3.0, 4.0]) == 0.0

    def test_small_branch_value(self):
        # displacement from ((2),(1)) to ((2),(0)); equals lam_minus*q/2 = 0.5*2/2
        assert objective(pair([2.0], [0.0]), [2.0], [1.0]) == 0.5

    def test_large_branch_value(self):
        # equals lam_plus*q/2 = 2*2/2, strictly above the small branch
        assert objective(pair([0.0], [1.0]), [2.0], [1.0]) == 2.0


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
        assert distance_sq([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_scalar_generic(self):
        assert distance_sq([2.0], [1.0]) == 1.0

    def test_scalar_degenerate(self):
        assert distance_sq([1.0], [1.0]) == 1.0

    def test_matches_norm_expression(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            x0, y0 = random_generic(rng, 3)
            s = float(np.dot(x0, x0) + np.dot(y0, y0))
            p = norm(x0 + y0) * norm(x0 - y0)
            assert distance_sq(x0, y0) == pytest.approx((s - p) / 2.0, rel=1e-9, abs=1e-13)


class TestDegenerateFamily:
    def test_plane_example(self):
        out = degenerate_family([1.0, 1.0], [1.0, 1.0], [1.0, 0.0])
        np.testing.assert_array_equal(out.x, [1.0, 0.0])
        np.testing.assert_array_equal(out.y, [0.0, 1.0])
        assert objective(out, [1.0, 1.0], [1.0, 1.0]) == 1.0

    def test_scalar_example(self):
        out = degenerate_family([1.0], [1.0], [1.0])
        np.testing.assert_array_equal(out.x, [1.0])
        np.testing.assert_array_equal(out.y, [0.0])

    def test_objective_independent_of_direction(self):
        rng = np.random.default_rng(15)
        x0 = rng.uniform(0.5, 1.5, 4)
        y0 = -x0
        half = 0.25 * float(np.dot(x0, x0) + np.dot(y0, y0))
        for _ in range(50):
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            member = degenerate_family(x0, y0, u)
            assert membership_residual(member) <= feas_tol(x0, y0)
            assert objective(member, x0, y0) == pytest.approx(half, rel=1e-10)

    def test_wrong_case_rejected(self):
        with pytest.raises(CaseError):
            degenerate_family([1.0, 2.0], [3.0, 1.0], [1.0, 0.0])

    def test_non_unit_direction_rejected(self):
        with pytest.raises(NotUnitNorm):
            degenerate_family([1.0], [1.0], [2.0])

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
        out = family_enumerate([1.0], [1.0], 1)
        assert len(out) == 1
        np.testing.assert_array_equal(out[0].x, [0.0])
        np.testing.assert_array_equal(out[0].y, [1.0])

    def test_scalar_injective_exhausts(self):
        out = family_enumerate([1.0], [1.0], 3, mode="injective")
        assert len(out) == 2
        np.testing.assert_array_equal(out[0].x, [0.0])
        np.testing.assert_array_equal(out[0].y, [1.0])
        np.testing.assert_array_equal(out[1].x, [1.0])
        np.testing.assert_array_equal(out[1].y, [0.0])

    def test_plane_grid_objectives_constant(self):
        x0 = np.array([1.0, 1.0])
        out = family_enumerate(x0, x0, 5, mode="grid")
        assert len(out) == 5
        for p in out:
            assert membership_residual(p) <= feas_tol(x0, x0)
            assert objective(p, x0, x0) == pytest.approx(1.0, rel=1e-12)

    def test_injective_mode_distinct_positive_side(self):
        x0 = np.array([1.0, -2.0, 0.5])
        samples = family_samples(x0, x0, 12, mode="injective")
        seen = []
        for u, p in samples[1:]:
            assert float(np.dot(u, x0)) > 0.0
            for q in seen:
                assert not (np.array_equal(p.x, q.x) and np.array_equal(p.y, q.y))
            seen.append(p)
        assert len(samples) == 12

    def test_wrong_case_rejected(self):
        with pytest.raises(CaseError):
            family_enumerate([1.0, 2.0], [3.0, 1.0], 4)

    def test_bad_mode_and_count(self):
        with pytest.raises(DomainError):
            family_enumerate([1.0], [1.0], 2, mode="fancy")
        with pytest.raises(DomainError):
            family_enumerate([1.0], [1.0], 0)


class TestProject1d:
    def test_dominant_x(self):
        res = project_1d(2.0, 1.0)
        np.testing.assert_array_equal(res.point.x, [2.0])
        np.testing.assert_array_equal(res.point.y, [0.0])

    def test_dominant_y(self):
        res = project_1d(1.0, -3.0)
        np.testing.assert_array_equal(res.point.x, [0.0])
        np.testing.assert_array_equal(res.point.y, [-3.0])

    def test_tied_magnitudes_split(self):
        res = project_1d(1.0, -1.0)
        assert isinstance(res, FamilyProjection)
        assert res.tag is CaseTag.DEGENERATE_MINUS
        points = {(float(p.x[0]), float(p.y[0])) for p in res.selections()}
        assert points == {(1.0, 0.0), (0.0, -1.0)}

    def test_origin_fixed(self):
        res = project_1d(0.0, 0.0)
        assert res.tag is CaseTag.ORTHOGONAL
        np.testing.assert_array_equal(res.point.x, [0.0])
        np.testing.assert_array_equal(res.point.y, [0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            project_1d(math.nan, 1.0)

    @pytest.mark.parametrize("t", [1e-300, 1e300])
    def test_extreme_scale(self, t):
        res = project_1d(-3.0 * t, t)
        assert res.tag is CaseTag.GENERIC
        assert res.lam == pytest.approx(-1.0 / 3.0, rel=1e-15)
        np.testing.assert_array_equal(res.point.x, [-3.0 * t])
        np.testing.assert_array_equal(res.point.y, [0.0])
        assert res.half_dist_sq == pytest.approx(0.5 * t * t, abs=1e-300)

    def test_agrees_with_project(self):
        rng = np.random.default_rng(16)
        for _ in range(500):
            x0 = float(rng.uniform(-2.0, 2.0))
            y0 = float(rng.uniform(-2.0, 2.0))
            fast = project_1d(x0, y0)
            full = project(np.array([x0]), np.array([y0]))
            assert fast.tag is full.tag
            assert fast.half_dist_sq == pytest.approx(full.half_dist_sq, rel=1e-12, abs=1e-300)
            if isinstance(fast, SingletonProjection):
                assert fast.lam == pytest.approx(full.lam, rel=1e-12, abs=1e-300)
                np.testing.assert_allclose(fast.point.x, full.point.x, atol=1e-12)
                np.testing.assert_allclose(fast.point.y, full.point.y, atol=1e-12)


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
            lams = solve_lambda(x0, y0)
            f_minus = objective(candidate(lams.lambda_minus, x0, y0), x0, y0)
            f_plus = objective(candidate(lams.lambda_plus, x0, y0), x0, y0)
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
                cand = candidate(lam, x0, y0)
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
            for lam in solve_lambda(x0, y0):
                cand = candidate(lam, x0, y0)
                assert membership_residual(cand) <= feas_tol(x0, y0)
            # at any multiplier the constraint value matches the quadratic residual
            for _ in range(20):
                lam = float(rng.uniform(-3.0, 3.0))
                if abs(1.0 - lam * lam) < 0.15:
                    continue
                cand = candidate(lam, x0, y0)
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
        assert membership(pair(2.0 * x, np.zeros(3)), 0.0)
        assert membership(pair(np.zeros(3), 2.0 * y), 0.0)
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
        assert distance_sq(x0, y0) == 2.0 * res.half_dist_sq

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
        assert project_1d(1e308, 5e307).dist == pytest.approx(5e307, rel=1e-15)

    def test_distance_is_root_of_twice_half(self):
        for x0, y0 in [([2.0], [1.0]), ([1.0, 1.0], [1.0, 1.0]), ([1.0, 0.0], [0.0, 2.0])]:
            res = project(x0, y0)
            assert res.dist == math.sqrt(2.0 * res.half_dist_sq)
        # a result built without its distance takes it from half_dist_sq
        built = SingletonProjection(CaseTag.GENERIC, pair([2.0], [0.0]), 0.5, 0.5)
        assert built.dist == 1.0

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
