import math
from dataclasses import replace

import numpy as np
import pytest

import crossproj.oracle as oracle_mod
from crossproj import (
    DEFAULT_TOLS,
    CaseTag,
    DomainError,
    SingletonProjection,
    Tolerances,
    as_pair,
    block_solve,
    check,
    classify,
    lagrangian_oracle,
    membership_residual,
    norm,
    objective,
    project,
    solve_lambda,
    subspace_oracle,
)
from crossproj.linalg import Pair, _sphere_lattice
from crossproj.oracle import (
    CheckReport,
    _grid3_row_candidates,
    _lagrangian,
    _spectral,
    _subspace_objectives,
)
from crossproj.projection import _reduce


def large_root_project(real):
    """``real`` with every generic result replaced by the stationary pair at the
    large multiplier root."""

    def project(x0, y0, tols=DEFAULT_TOLS):
        res = real(x0, y0, tols)
        if res.tag is not CaseTag.GENERIC:
            return res
        lam = solve_lambda(x0, y0).lambda_plus
        half = 0.5 * lam * float(np.dot(x0, y0))
        point = block_solve(lam, as_pair(x0, y0))
        return SingletonProjection(res.tag, point, lam, half, math.sqrt(2.0 * half))

    return project


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
        assert rep.mode == "lagrangian"

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
        assert rep.tie_count == 2
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


class TestSubspaceOracle:
    def test_scalar_exhaustive(self):
        rep = subspace_oracle([2.0], [1.0], resolution=1)
        assert rep.best_objective == pytest.approx(0.5, rel=1e-14)
        assert abs(rep.gap_vs_formula) <= 1e-12
        assert rep.candidates_examined == 2  # the trivial subspace and the line

    def test_plane_grid_tightens(self):
        x0 = np.array([1.0, 2.0])
        y0 = np.array([3.0, 1.0])
        rep = subspace_oracle(x0, y0, resolution=10_000)
        assert 0.0 - 1e-9 <= rep.gap_vs_formula <= 1e-6
        coarse = subspace_oracle(x0, y0, resolution=100)
        assert coarse.gap_vs_formula >= rep.gap_vs_formula - 1e-12

    def test_degenerate_constant_objective(self):
        x0 = np.array([1.0, 1.0])
        rep = subspace_oracle(x0, x0, resolution=64)
        assert rep.best_objective == pytest.approx(1.0, rel=1e-12)
        # every direction candidate ties at the common value
        assert rep.tie_count == rep.candidates_examined

    def test_upper_bound_property(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 3, 4):
            for _ in range(25):
                x0 = rng.uniform(-1.0, 1.0, n)
                y0 = rng.uniform(-1.0, 1.0, n)
                rep = subspace_oracle(x0, y0, resolution=20)
                assert rep.gap_vs_formula >= -1e-9
                assert membership_residual(rep.best_point) <= 1e-9 * (
                    1.0 + norm(x0) * norm(y0)
                )

    def test_validation(self):
        with pytest.raises(DomainError):
            subspace_oracle([1.0], [1.0], resolution=0)

    @pytest.mark.parametrize("resolution", [2.5, 3.0, True, "3"], ids=repr)
    def test_non_integer_resolution_rejected(self, resolution):
        with pytest.raises(DomainError, match="resolution must be an integer"):
            subspace_oracle([1.0, 2.0], [3.0, 1.0], resolution=resolution)

    def test_numpy_integer_resolution(self):
        x0, y0 = [1.0, 2.0], [3.0, 1.0]
        rep = subspace_oracle(x0, y0, resolution=np.int64(20))
        assert rep.best_objective == subspace_oracle(x0, y0, resolution=20).best_objective


class TestSeparableGridReduction:
    """The per-row reduction must reproduce the direct lattice sweep in R^3."""

    @pytest.mark.parametrize("r", [37, 101, 250])
    def test_matches_direct_sweep(self, r):
        rng = np.random.default_rng(44)
        for _ in range(20):
            x0 = rng.uniform(-1.0, 1.0, 3)
            y0 = rng.uniform(-1.0, 1.0, 3)
            best_direct = np.inf
            for us in _sphere_lattice(3, r):
                best_direct = min(best_direct, _subspace_objectives(x0, y0, us).min())
            reps = _grid3_row_candidates(x0, y0, r)
            best_reduced = _subspace_objectives(x0, y0, reps).min()
            assert best_reduced == pytest.approx(best_direct, rel=1e-12, abs=1e-12)

    def test_large_resolution_uses_reduction(self):
        x0 = np.array([1.0, 2.0, 0.5])
        y0 = np.array([3.0, 1.0, -0.2])
        rep = subspace_oracle(x0, y0, resolution=10_000)
        assert rep.candidates_examined == 10_000 ** 2 + 1
        assert -1e-9 <= rep.gap_vs_formula <= 1e-6


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

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 1000])
    @pytest.mark.parametrize("t", [1.0, 2.0**520, 2.0**-520, 1e300, 1e-300])
    def test_matches_formula(self, n, t):
        rng = np.random.default_rng([47, n])
        for kind, x0, y0 in spectral_inputs(rng, n):
            core = _reduce(t * x0, t * y0, DEFAULT_TOLS)
            assert abs(_spectral(core) - core.half) <= 1e-14 * core.s, kind

    @pytest.mark.parametrize("n", [2, 3])
    def test_below_grid_best(self, n):
        rng = np.random.default_rng([48, n])
        for _ in range(10):
            for kind, x0, y0 in spectral_inputs(rng, n):
                core = _reduce(x0, y0, DEFAULT_TOLS)
                grid = subspace_oracle(x0, y0, resolution=10_000).best_objective
                assert _spectral(core) * core.c**2 <= grid + 1e-14 * core.s, kind

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
            lams = solve_lambda(x0, y0)
            axis = [objective(Pair(zero, y0), x0, y0), objective(Pair(x0, zero), x0, y0)]
            cands = [objective(block_solve(lam, as_pair(x0, y0)), x0, y0) for lam in lams]
            assert _lagrangian(_reduce(x0, y0, DEFAULT_TOLS))[1] == cands + axis
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
        every projection check makes, of the input and of its moves, is wrong
        alike."""
        monkeypatch.setattr(oracle_mod, "project", large_root_project(oracle_mod.project))
        rep = check([1.0, 2.0], [3.0, 1.0])
        assert {"lagrangian_match", "point_match"} <= set(rep.failures())


class TestSymmetryItemsCanFail:
    """Corrupting only the projection of one moved input fails its item."""

    X0 = np.array([1.0, 2.0, -0.5])
    Y0 = np.array([0.7, -0.2, 1.5])

    @staticmethod
    def corrupt(monkeypatch, is_moved, change):
        # check reaches its moved inputs through oracle_mod.project only
        real = oracle_mod.project

        def patched(x0, y0, tols=DEFAULT_TOLS):
            res = real(x0, y0, tols)
            return change(res) if is_moved(x0, y0) else res

        monkeypatch.setattr(oracle_mod, "project", patched)

    def is_swapped(self, x0, y0):
        return np.array_equal(x0, self.Y0) and np.array_equal(y0, self.X0)

    def is_rotated(self, x0, y0):
        # the only moved input of the same length that is neither the swap nor
        # the unmoved input, which check projects through oracle_mod.project too
        same_norm = abs(np.linalg.norm(x0) - np.linalg.norm(self.X0)) < 1e-12
        unmoved = np.array_equal(x0, self.X0) and np.array_equal(y0, self.Y0)
        return same_norm and not self.is_swapped(x0, y0) and not unmoved

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
        "canonical, failures",
        [
            (lambda a, b: (b, a), []),
            (lambda a, b: (Pair(a.x, a.y + 0.1), b), ["swap"]),
        ],
        ids=["reversed_order_passes", "wrong_point_fails"],
    )
    def test_swapped_family(self, monkeypatch, canonical, failures):
        x0 = np.array([1.0, -0.5])
        y0 = -x0
        self.corrupt(
            monkeypatch,
            lambda a, b: np.array_equal(a, y0) and np.array_equal(b, x0),
            lambda res: replace(res, canonical=canonical(*res.canonical)),
        )
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
                rep = subspace_oracle(x0, y0, resolution=20)
        assert np.isfinite(rep.gap_vs_formula)

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
        real = oracle_mod.project

        def shifted(a, b, tols=DEFAULT_TOLS):
            res = real(a, b, tols)
            if not (np.array_equal(a, x0) and np.array_equal(b, y0)):
                return res  # a moved input
            x, y = res.point
            return replace(res, point=Pair(x + 0.01 * y, y))

        monkeypatch.setattr(oracle_mod, "project", shifted)
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
