import math
from dataclasses import replace

import numpy as np
import pytest

import crossproj.oracle as oracle_mod
import crossproj.projection as projection_mod
from crossproj import (
    DEFAULT_TOLS,
    CaseTag,
    DimensionMismatch,
    DomainError,
    FamilyProjection,
    SingletonProjection,
    Tolerances,
    as_pair,
    block_solve,
    check,
    classify,
    lagrangian_oracle,
    norm,
    objective,
    project,
    subspace_oracle,
)
from crossproj.linalg import Pair
from crossproj.oracle import CheckReport, _lagrangian, _spectral
from crossproj.projection import _unit

EPS = np.finfo(float).eps


def large_root_result(real):
    """``real``, the builder of a result from its record, with every generic
    result replaced by the stationary pair at the record's large root."""

    def result(core):
        res = real(core)
        if res.tag is not CaseTag.GENERIC:
            return res
        x0, y0, lam = core.x0, core.y0, core.lam_plus
        half = 0.5 * lam * float(np.dot(x0, y0))
        point = block_solve(lam, as_pair(x0, y0))
        return SingletonProjection(res.tag, point, lam, half, math.sqrt(2.0 * half))

    return result


def random_generic(rng, n):
    while True:
        x0 = rng.uniform(-1.0, 1.0, n)
        y0 = rng.uniform(-1.0, 1.0, n)
        if classify(x0, y0) is CaseTag.GENERIC:
            return x0, y0


class TestLagrangianOracle:
    def test_scalar_generic(self):
        rep = lagrangian_oracle([2.0], [1.0])
        np.testing.assert_allclose(rep.best_point.x, [2.0])
        np.testing.assert_allclose(rep.best_point.y, [0.0], atol=1e-15)
        assert rep.best_objective == 0.5
        assert abs(rep.gap_vs_formula) <= 1e-12

    def test_orthogonal_input(self):
        rep = lagrangian_oracle([1.0, 0.0], [0.0, 3.0])
        assert rep.best_objective == 0.0
        np.testing.assert_array_equal(rep.best_point.x, [1.0, 0.0])
        np.testing.assert_array_equal(rep.best_point.y, [0.0, 3.0])

    def test_degenerate_reports_tie(self):
        x0 = np.array([1.0, 1.0])
        rep = lagrangian_oracle(x0, x0)
        assert rep.best_objective == pytest.approx(1.0, rel=1e-14)
        # the base selection (0, y0) wins the tie deterministically
        np.testing.assert_array_equal(rep.best_point.x, [0.0, 0.0])
        np.testing.assert_array_equal(rep.best_point.y, x0)
        assert len(rep.ties) == 1
        np.testing.assert_array_equal(rep.ties[0].x, x0)

    def test_matches_projection_on_generic_batch(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            x0, y0 = random_generic(rng, n)
            res = project(x0, y0)
            rep = lagrangian_oracle(x0, y0)
            assert abs(rep.gap_vs_formula) <= 1e-10 * (1.0 + res.half_dist_sq)
            scale = 1.0 + norm(x0) + norm(y0)
            assert norm(rep.best_point.x - res.point.x) <= 1e-8 * scale
            assert norm(rep.best_point.y - res.point.y) <= 1e-8 * scale

    def test_singular_multipliers_skipped(self):
        # generic under deg = 0, with both roots inside block_solve's guard
        # band around 1: only the two axis selections are candidates
        y = np.array([0.6, 0.8])
        x0 = y + 1e-14 * np.array([0.8, -0.6])
        tols = Tolerances(deg=0.0)
        assert classify(x0, y, tols) is CaseTag.GENERIC
        rep = lagrangian_oracle(x0, y, tols)
        assert rep.candidates_examined == 2
        assert rep.gap_vs_formula >= -1e-9

    def test_gap_never_negative(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            x0 = rng.uniform(-1.0, 1.0, n)
            y0 = rng.uniform(-1.0, 1.0, n)
            assert lagrangian_oracle(x0, y0).gap_vs_formula >= -1e-9


def lattice_best(x0, y0, r):
    """Brute force over U = {0} and the lines of an angle lattice: the least
    subspace objective |x0|^2/2 - <u,x0>^2/2 + <u,y0>^2/2.  Polar angles t_i
    take r points over [0, pi], the azimuth a r points over [0, 2*pi), and
    u = (cos t_1, sin t_1 cos t_2, ..., P cos a, P sin a), P = prod sin t_i."""
    polar = np.linspace(0.0, np.pi, r)
    azimuth = np.linspace(0.0, 2.0 * np.pi, r, endpoint=False)
    *ts, a = (g.ravel() for g in np.meshgrid(*[polar] * (x0.size - 2), azimuth, indexing="ij"))
    cols, pre = [], np.ones_like(a)
    for t in ts:
        cols.append(np.cos(t) * pre)
        pre = pre * np.sin(t)
    us = np.stack(cols + [pre * np.cos(a), pre * np.sin(a)], axis=1)
    objectives = 0.5 * (x0 @ x0 - (us @ x0) ** 2 + (us @ y0) ** 2)
    return min(0.5 * float(x0 @ x0), float(objectives.min()))


def pair_gap(a, b):
    return norm(a.x - b.x) + norm(a.y - b.y)


class TestSubspaceOracle:
    def test_scalar_exhaustive(self):
        # in R^1 the line is the x axis: the longer part stays, exactly
        rep = subspace_oracle([2.0], [1.0])
        assert rep.best_objective == 0.5
        assert rep.gap_vs_formula == 0.0
        assert rep.candidates_examined == 2  # the trivial subspace and the line
        assert (rep.best_point.x.tolist(), rep.best_point.y.tolist()) == ([2.0], [0.0])
        rep = subspace_oracle([1.0], [-3.0])
        assert (rep.best_point.x.tolist(), rep.best_point.y.tolist()) == ([0.0], [-3.0])
        assert rep.gap_vs_formula == 0.0

    @pytest.mark.parametrize("a", [0.5, -0.25, 0.0])
    @pytest.mark.parametrize("n", [1, 3])
    def test_shorter_parallel_x_gives_trivial_subspace(self, a, n):
        # x0 = a y0 with |a| < 1: lambda_max(M) <= 0 (up to round-off), so the
        # answer is (0, y0), the nearest point project gives too
        y0 = np.array([0.3, -0.7, 0.5][:n])
        rep = subspace_oracle(a * y0, y0)
        assert norm(rep.best_point.x) <= 4 * EPS * norm(y0)
        np.testing.assert_allclose(rep.best_point.y, y0, rtol=0, atol=4 * EPS)
        assert abs(rep.gap_vs_formula) <= 4 * EPS
        assert len(rep.ties) == 0

    def test_degenerate_constant_objective(self):
        # on both rays M = 0, so every U ties: the report selects (0, y0) and
        # names (x0, 0), as the Lagrangian sweep does
        for x0 in (np.array([1.0, -0.5, 2.0]), np.array([3.0])):
            half = 0.5 * float(x0 @ x0)
            for y0 in (x0, -x0):
                rep = subspace_oracle(x0, y0)
                assert rep.best_objective == half
                assert len(rep.ties) == 1
                np.testing.assert_array_equal(rep.best_point.x, 0.0 * x0)
                np.testing.assert_array_equal(rep.best_point.y, y0)
                tie = rep.ties[0]
                np.testing.assert_allclose(tie.x, x0, rtol=0, atol=4 * EPS * norm(x0))
                np.testing.assert_allclose(tie.y, 0.0 * x0, rtol=0, atol=4 * EPS * norm(x0))
                assert objective(tie, x0, y0) == pytest.approx(half, rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            subspace_oracle([1.0, np.inf], [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            subspace_oracle([1.0, 2.0], [1.0])

    def test_upper_bound_property(self):
        # the pair lies in the cross at every scale (<x/t, y/t> is round-off),
        # and its objective never undercuts the formula by more than round-off
        rng = np.random.default_rng(42)
        for n in (1, 2, 3, 4, 50):
            for _ in range(25):
                x0 = rng.uniform(-1.0, 1.0, n)
                y0 = rng.uniform(-1.0, 1.0, n)
                assert subspace_oracle(x0, y0).gap_vs_formula >= -1e-15
                for t in (1e-300, 1.0, 1e300):
                    with np.errstate(over="ignore"):  # the objective overflows at 1e300
                        p = subspace_oracle(t * x0, t * y0).best_point
                    assert np.isfinite(p.x).all() and np.isfinite(p.y).all()
                    bound = 8 * EPS * norm(x0) * norm(y0)
                    assert abs(float((p.x / t) @ (p.y / t))) <= bound

    def test_plane_grid_tightens(self):
        # a finer lattice closes in on the oracle's objective from above
        x0 = np.array([1.0, 2.0])
        y0 = np.array([3.0, 1.0])
        best = subspace_oracle(x0, y0).best_objective
        coarse, fine = lattice_best(x0, y0, 100), lattice_best(x0, y0, 10_000)
        assert best - 1e-14 <= fine <= coarse
        assert fine - best <= 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 50])
    def test_matches_project(self, n):
        rng = np.random.default_rng([51, n])
        for _ in range(100):
            x0, y0 = random_generic(rng, n)
            res = project(x0, y0)
            rep = subspace_oracle(x0, y0)
            assert abs(rep.gap_vs_formula) <= 1e-12 * (1.0 + res.half_dist_sq)
            assert pair_gap(rep.best_point, res.point) <= 1e-14 * (norm(x0) + norm(y0))

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_matches_project_near_the_ray(self, eps):
        # the top eigenvector is fixed only to about eps_mach / |x0 - y0| relative
        rng = np.random.default_rng(52)
        for n in (2, 3, 8, 50):
            for _ in range(25):
                y0 = rng.uniform(-1.0, 1.0, n)
                w = rng.standard_normal(n)
                x0 = y0 + eps * w / np.linalg.norm(w)
                s = norm(x0) + norm(y0)
                gap = pair_gap(subspace_oracle(x0, y0).best_point, project(x0, y0).point)
                assert gap <= 4 * EPS * s * s / norm(x0 - y0)


def spectral_inputs(rng, n):
    """(kind, x0, y0): generic, both degenerate rays, near-degenerate pairs
    and the origin."""
    x0 = rng.uniform(-1.0, 1.0, n)
    y0 = rng.uniform(-1.0, 1.0, n)
    yield "generic", x0, y0
    yield "plus", x0, x0.copy()
    yield "minus", x0, -x0
    for eps in (1e-8, 1e-10):
        w = rng.standard_normal(n)
        yield f"near{eps:g}", y0 + eps * w / np.linalg.norm(w), y0
    yield "origin", np.zeros(n), np.zeros(n)


class TestSpectralBound:
    """The exact subspace minimum behind check's ``subspace_lower`` item."""

    @staticmethod
    def spectral_min(core):
        # |x0|^2/2 - lambda_max(M)^+/2 at unit scale
        return 0.5 * float(core.xs @ core.xs) - 0.5 * max(_spectral(core)[0], 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 1000])
    @pytest.mark.parametrize("t", [1.0, 2.0**520, 2.0**-520, 1e300, 1e-300])
    def test_matches_formula(self, n, t):
        rng = np.random.default_rng([47, n])
        for kind, x0, y0 in spectral_inputs(rng, n):
            core = _unit(t * x0, t * y0, DEFAULT_TOLS)
            s = core.xx + core.yy
            assert abs(self.spectral_min(core) - core.half) <= 1e-14 * s, kind
            top, u = _spectral(core)
            assert abs(np.linalg.norm(u) - 1.0) <= 4 * EPS, kind
            m_u = float(u @ core.xs) ** 2 - float(u @ core.ys) ** 2  # u^T M u
            assert abs(m_u - top) <= 1e-14 * s, kind

    @pytest.mark.parametrize("n", [2, 3])
    def test_below_grid_best(self, n):
        # the oracle's objective is at most any lattice direction's, up to round-off
        rng = np.random.default_rng([48, n])
        for _ in range(10):
            for kind, x0, y0 in spectral_inputs(rng, n):
                best = subspace_oracle(x0, y0).best_objective
                grid = lattice_best(x0, y0, 200)
                assert best <= grid + 1e-14 * (x0 @ x0 + y0 @ y0), kind

    def test_check_item_is_exact(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            x0 = rng.uniform(-1.0, 1.0, 4)
            y0 = rng.uniform(-1.0, 1.0, 4)
            item = check(x0, y0).items["subspace_lower"]
            assert abs(item.residual) <= 1e-14


class TestCheck:
    def test_random_batch_passes(self):
        rng = np.random.default_rng(45)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            x0 = rng.uniform(-1.0, 1.0, n)
            y0 = rng.uniform(-1.0, 1.0, n)
            rep = check(x0, y0, seed=int(rng.integers(0, 2**63)))
            assert rep.ok, (rep.failures(), x0, y0)

    @pytest.mark.parametrize(
        "x0, y0",
        [([1.0, 2.0, -0.5], [0.7, -0.2, 1.5]), ([1.0, 2.0], [1.0, 2.0]), ([0.0], [0.0]),
         ([1e300, 1.0], [1e300, -3.0])],
        ids=["generic", "degenerate", "origin", "scaled"],
    )
    def test_classifies_each_input_once(self, monkeypatch, x0, y0):
        # check classifies its input once, and each of its five moves once, through
        # project; each oracle classifies its input once
        calls, real = [], projection_mod._roots
        monkeypatch.setattr(projection_mod, "_roots", lambda *a: calls.append(1) or real(*a))
        with np.errstate(over="ignore", invalid="ignore"):  # objectives overflow at 1e300
            check(np.array(x0), np.array(y0))
            assert len(calls) == 6
            for oracle in (lagrangian_oracle, subspace_oracle):
                calls.clear()
                oracle(x0, y0)
                assert len(calls) == 1

    def test_origin_all_zero_residuals(self):
        rep = check([0.0, 0.0], [0.0, 0.0])
        assert rep.ok
        assert rep.case is CaseTag.ORTHOGONAL
        assert rep.items["feasible"].residual == 0.0

    def test_degenerate_input(self):
        rep = check([1.0, -0.5], [1.0, -0.5])
        assert rep.ok, rep.failures()
        assert rep.case is CaseTag.DEGENERATE_PLUS
        assert "objective_identity" in rep.items

    def test_near_degenerate_stability_path(self):
        rng = np.random.default_rng(46)
        y0 = rng.uniform(-1.0, 1.0, 3)
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        rep = check(y0 + 1e-10 * w, y0)
        assert rep.ok, rep.failures()
        assert "stability" in rep.items
        assert "stationarity" in rep.items  # the point is exact this close to the ray too

    def test_item_names_per_regime(self):
        # the exact, ordered item set of each regime: near the degenerate ray
        # stability replaces lagrangian_match and the exact-match items other
        # than stationarity go; the root residual is read on generic inputs only
        y0 = np.array([0.3, -0.7, 0.5])
        w = np.array([1.0, 2.0, -2.0]) / 3.0
        head = ["feasible", "lagrangian_lower"]
        roots = ["vieta", "orthogonality_quadratic"]
        tail = ["homogeneity", "swap", "rotation"]
        cases = [
            ([1.0, 0.0], [0.0, 1.0], CaseTag.ORTHOGONAL,
             ["lagrangian_match", "subspace_lower", "objective_identity",
              "subspace_reduction"]),
            ([1.0, 2.0], [3.0, 1.0], CaseTag.GENERIC,
             ["lagrangian_match", "point_match", "subspace_lower", *roots,
              "stationarity", "plus_branch_larger", "objective_identity",
              "subspace_reduction"]),
            (y0 + 1e-8 * w, y0, CaseTag.GENERIC,
             ["stability", "subspace_lower", *roots, "stationarity"]),
            ([1.0, -0.5], [1.0, -0.5], CaseTag.DEGENERATE_PLUS,
             ["lagrangian_match", "subspace_lower", "vieta", "objective_identity",
              "subspace_reduction"]),
        ]
        for x0, y0_, tag, middle in cases:
            rep = check(x0, y0_)
            assert rep.ok, rep.failures()
            assert rep.case is tag
            assert list(rep.items) == head + middle + tail

    def test_narrowed_orth_band(self):
        # generic under orth = 1e-13 but orthogonal under the default band:
        # the multiplier roots must come from the caller's bands
        tols = Tolerances(orth=1e-13)
        rep = check([1.0, 0.0], [1e-12, 1.0], tols=tols)
        assert rep.case is CaseTag.GENERIC
        assert rep.ok, rep.failures()
        assert lagrangian_oracle([1.0, 0.0], [1e-12, 1.0], tols).candidates_examined == 4

    def test_wide_degenerate_band(self):
        # degenerate only under deg = 1e-6: check reports on it, nothing raises
        x0 = np.array([1.0, 2.0, 3.0])
        y0 = x0 + 1e-8 * np.array([1.0, -1.0, 0.5])
        rep = check(x0, y0, tols=Tolerances(deg=1e-6))
        assert rep.case is CaseTag.DEGENERATE_PLUS
        assert rep.items["feasible"].passed
        assert "objective_identity" in rep.items

    def test_items_read_the_lagrangian_sweep(self):
        # _lagrangian scores the multiplier roots in root order, then (0, y0),
        # then (x0, 0); plus_branch_larger and stability read those objectives
        rng = np.random.default_rng(50)
        for n in (1, 2, 3, 4):
            x0, y0 = random_generic(rng, n)
            zero = np.zeros(n)
            core = _unit(x0, y0, DEFAULT_TOLS)
            axis = [objective(Pair(zero, y0), x0, y0), objective(Pair(x0, zero), x0, y0)]
            cands = [objective(block_solve(lam, as_pair(x0, y0)), x0, y0)
                     for lam in (core.lam, core.lam_plus)]
            assert _lagrangian(core)[1] == cands + axis
            item = check(x0, y0).items["plus_branch_larger"]
            assert item.residual == project(x0, y0).half_dist_sq - cands[1]

        y0 = np.array([0.3, -0.7, 0.5])
        x0 = y0 + 1e-8 * np.array([1.0, 2.0, -2.0]) / 3.0
        zero = np.zeros(3)
        axis = [objective(Pair(zero, y0), x0, y0), objective(Pair(x0, zero), x0, y0)]
        item = check(x0, y0).items["stability"]
        assert item.residual == objective(project(x0, y0).point, x0, y0) - min(axis)

    def test_detects_wrong_branch(self, monkeypatch):
        """A projection that takes the large root must be flagged, even when
        every result check takes, of the input and of its moves, is wrong
        alike."""
        result = large_root_result(projection_mod._result)
        monkeypatch.setattr(projection_mod, "_result", result)  # the moves, through project
        monkeypatch.setattr(oracle_mod, "_result", result)  # the input, from check's record
        rep = check([1.0, 2.0], [3.0, 1.0])
        assert {"lagrangian_match", "point_match"} <= set(rep.failures())


class TestSymmetryItemsCanFail:
    """Corrupting only the projection of one moved input fails its item."""

    X0 = np.array([1.0, 2.0, -0.5])
    Y0 = np.array([0.7, -0.2, 1.5])

    @staticmethod
    def corrupt(monkeypatch, is_moved, change):
        # check reaches its moved inputs, and only those, through oracle_mod.project
        real = oracle_mod.project

        def patched(x0, y0, tols=DEFAULT_TOLS):
            res = real(x0, y0, tols)
            return change(res) if is_moved(x0, y0) else res

        monkeypatch.setattr(oracle_mod, "project", patched)

    def is_swapped(self, x0, y0):
        return np.array_equal(x0, self.Y0) and np.array_equal(y0, self.X0)

    def is_rotated(self, x0, y0):
        # the only moved input of the same length that is not the swap
        same_norm = abs(np.linalg.norm(x0) - np.linalg.norm(self.X0)) < 1e-12
        return same_norm and not self.is_swapped(x0, y0)

    def test_uncorrupted_passes(self):
        assert check(self.X0, self.Y0).ok

    def test_scaled_point_fails_homogeneity(self, monkeypatch):
        self.corrupt(
            monkeypatch,
            lambda x0, y0: np.array_equal(x0, 10.0 * self.X0),
            lambda res: replace(res, point=Pair(res.point.x + 1e-3, res.point.y)),
        )
        assert check(self.X0, self.Y0).failures() == ["homogeneity"]

    def test_unswapped_point_fails_swap(self, monkeypatch):
        self.corrupt(
            monkeypatch,
            self.is_swapped,
            lambda res: replace(res, point=Pair(res.point.y, res.point.x)),
        )
        assert check(self.X0, self.Y0).failures() == ["swap"]

    def test_rotated_tag_fails_rotation(self, monkeypatch):
        self.corrupt(
            monkeypatch, self.is_rotated, lambda res: replace(res, tag=CaseTag.ORTHOGONAL)
        )
        rep = check(self.X0, self.Y0)
        assert rep.failures() == ["rotation"]
        assert rep.items["rotation"].residual == np.inf

    def test_rotated_multiplier_fails_rotation(self, monkeypatch):
        self.corrupt(monkeypatch, self.is_rotated, lambda res: replace(res, lam=res.lam + 1e-6))
        assert check(self.X0, self.Y0).failures() == ["rotation"]

    @pytest.mark.parametrize(
        "selections, failures",
        [
            (lambda a, b: [b, a], []),
            (lambda a, b: [Pair(a.x, a.y + 0.1), b], ["swap"]),
        ],
        ids=["reversed_order_passes", "wrong_point_fails"],
    )
    def test_swapped_family(self, monkeypatch, selections, failures):
        # the swapped input's family, and only it, gives the changed selections
        x0 = np.array([1.0, -0.5])
        y0 = -x0
        real = FamilyProjection.selections

        def patched(res):
            pairs = real(res)
            swapped = np.array_equal(res.x0, y0) and np.array_equal(res.y0, x0)
            return selections(*pairs) if swapped else pairs

        monkeypatch.setattr(FamilyProjection, "selections", patched)
        rep = check(x0, y0)
        assert rep.case is CaseTag.DEGENERATE_MINUS
        assert rep.failures() == failures


SCALE_X = np.array([1.0, 2.0, -0.5])
SCALE_Y = np.array([0.7, -0.2, 1.5])


class TestCheckAtScale:
    def test_passes_at_unit_scale(self):
        # project is right at every t (TestInvariants::test_cone_homogeneity),
        # so the xfail below is check's own
        assert check(SCALE_X, SCALE_Y).ok

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="check's tolerances are absolute (lagrangian_lower fails from about "
        "t = 2e4 on); flip this test once check is scale-safe",
    )
    @pytest.mark.parametrize("t", [1e8, 1e150])
    def test_check_passes(self, t):
        rep = check(t * SCALE_X, t * SCALE_Y)
        assert rep.ok, rep.failures()

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the oracle's objective and half_dist_sq both overflow to inf, so "
        "gap_vs_formula = inf - inf is nan; flip this test once the oracles are scale-safe",
    )
    @pytest.mark.parametrize("t", [1e160, 1e300])
    @pytest.mark.parametrize("oracle", ["lagrangian", "subspace"])
    def test_oracle_gap_is_finite(self, t, oracle):
        x0, y0 = t * SCALE_X, t * SCALE_Y
        with np.errstate(all="ignore"):
            if oracle == "lagrangian":
                rep = lagrangian_oracle(x0, y0)
            else:
                rep = subspace_oracle(x0, y0)
        assert np.isfinite(rep.gap_vs_formula)

    @pytest.mark.parametrize("t", [1e-300, 1e-150, 1e-8, 1e8, 1e150, 1e200, 1e300])
    def test_subspace_lower_at_scale(self, t):
        # project's distance and the spectral minimum are compared at the
        # input's power-of-two scale, where neither square overflows
        with np.errstate(all="ignore"):  # other items overflow at the largest t
            item = check(t * SCALE_X, t * SCALE_Y).items["subspace_lower"]
        assert item.passed, item
        assert np.isfinite(item.residual)
        assert abs(item.residual) <= 1e-14

    @pytest.mark.parametrize(
        "x0, y0",
        [([1.7e308, 1.0], [0.3, -2.0]), ([1e308, 1.0], [1e308, -2.0])],
        ids=["near_max", "degenerate_1e308"],
    )
    def test_report_where_a_moved_input_overflows(self, x0, y0):
        # 10 x0, 2 x0 or the rotation leaves the float range; those moves are left
        # out of their items, and t = 0.5 keeps homogeneity recorded.  The
        # objectives overflow at this scale (ROADMAP item 2), hence errstate.
        with np.errstate(all="ignore"):
            rep = check(x0, y0)
        assert isinstance(rep, CheckReport)
        assert {"homogeneity", "swap"} <= set(rep.items)

    def test_feasible_catches_a_point_off_the_cross(self, monkeypatch):
        # at t = 1e200 the raw <x, y> and its band both overflow to inf; at unit
        # scale the shifted point misses the cross by about 0.01 |y0/c|^2
        x0, y0 = 1e200 * SCALE_X, 1e200 * SCALE_Y
        real = oracle_mod._result

        def shifted(core):
            # check builds the input's own result, and only that, through oracle_mod._result
            res = real(core)
            x, y = res.point
            return replace(res, point=Pair(x + 0.01 * y, y))

        monkeypatch.setattr(oracle_mod, "_result", shifted)
        # other items still overflow at this scale
        with np.errstate(over="ignore", invalid="ignore"):
            rep = check(x0, y0)
        assert rep.case is CaseTag.GENERIC
        assert not rep.items["feasible"].passed

    def test_feasible_residual_is_finite(self):
        # the products of <x0, y0> overflow for this orthogonal pair
        x0, y0 = 1e160 * np.array([1.0, 1.0]), 1e160 * np.array([1.0, -1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            item = check(x0, y0).items["feasible"]
        assert item.passed
        assert np.isfinite(item.residual)
