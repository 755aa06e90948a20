import numpy as np
import pytest

import crossproj.oracle as oracle_mod
from crossproj import (
    CaseTag,
    DomainError,
    Tolerances,
    check,
    classify,
    lagrangian_oracle,
    membership_residual,
    norm,
    project,
    subspace_oracle,
)
from crossproj.oracle import _grid3_row_candidates, _grid_blocks, _subspace_objectives


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
                rep = subspace_oracle(x0, y0, resolution=20, mode="grid")
                assert rep.gap_vs_formula >= -1e-9
                assert membership_residual(rep.best_point) <= 1e-9 * (
                    1.0 + norm(x0) * norm(y0)
                )

    def test_random_mode_deterministic_per_seed(self):
        x0 = np.array([0.3, -1.2, 0.7])
        y0 = np.array([1.1, 0.4, -0.5])
        a = subspace_oracle(x0, y0, resolution=500, mode="random", seed=5)
        b = subspace_oracle(x0, y0, resolution=500, mode="random", seed=5)
        assert a.best_objective == b.best_objective
        np.testing.assert_array_equal(a.best_point.x, b.best_point.x)
        c = subspace_oracle(x0, y0, resolution=500, mode="random", seed=6)
        assert c.best_objective != a.best_objective

    def test_random_mode_upper_bound(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            x0 = rng.uniform(-1.0, 1.0, n)
            y0 = rng.uniform(-1.0, 1.0, n)
            rep = subspace_oracle(x0, y0, resolution=2000, mode="random", seed=7)
            assert rep.gap_vs_formula >= -1e-9

    def test_validation(self):
        with pytest.raises(DomainError):
            subspace_oracle([1.0], [1.0], resolution=0)
        with pytest.raises(DomainError):
            subspace_oracle([1.0], [1.0], resolution=4, mode="exhaustive")


class TestSeparableGridReduction:
    """The per-row reduction must reproduce the direct lattice sweep in R^3."""

    @pytest.mark.parametrize("r", [37, 101, 250])
    def test_matches_direct_sweep(self, r):
        rng = np.random.default_rng(44)
        for _ in range(20):
            x0 = rng.uniform(-1.0, 1.0, 3)
            y0 = rng.uniform(-1.0, 1.0, 3)
            best_direct = np.inf
            for us in _grid_blocks(3, r):
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
        assert "degenerate_spread" in rep.items

    def test_near_degenerate_stability_path(self):
        rng = np.random.default_rng(46)
        y0 = rng.uniform(-1.0, 1.0, 3)
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        rep = check(y0 + 1e-10 * w, y0)
        assert rep.ok, rep.failures()
        assert "stability" in rep.items
        assert "stationarity" not in rep.items  # not applicable this close to the ray

    def test_narrowed_orth_band(self):
        # generic under orth = 1e-13 but orthogonal under the default band:
        # the multiplier roots must come from the caller's bands
        tols = Tolerances(orth=1e-13)
        rep = check([1.0, 0.0], [1e-12, 1.0], tols=tols)
        assert rep.case is CaseTag.GENERIC
        assert rep.ok, rep.failures()
        assert lagrangian_oracle([1.0, 0.0], [1e-12, 1.0], tols).candidates_examined == 4

    def test_detects_wrong_branch(self, monkeypatch):
        """A corrupted projection (large root chosen) must be flagged."""
        from crossproj.projection import SingletonProjection, candidate, solve_lambda

        real_project = oracle_mod.project

        def corrupted(x0, y0, tols=None):
            res = real_project(x0, y0)
            if res.tag is CaseTag.GENERIC:
                lams = solve_lambda(x0, y0)
                bad = candidate(lams.lambda_plus, x0, y0)
                q = float(np.dot(x0, y0))
                return SingletonProjection(
                    res.tag, bad, lams.lambda_plus, 0.5 * lams.lambda_plus * q
                )
            return res

        monkeypatch.setattr(oracle_mod, "project", corrupted)
        rep = check([1.0, 2.0], [3.0, 1.0])
        assert not rep.ok
        assert "lagrangian_match" in rep.failures() or "point_match" in rep.failures()
