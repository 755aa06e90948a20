import numpy as np
import pytest

import crossproj.oracle as oracle_mod
from crossproj import (
    CaseTag,
    DomainError,
    Tolerances,
    candidate,
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
from crossproj.linalg import _sphere_lattice
from crossproj.oracle import (
    _grid3_row_candidates,
    _sample_multipliers,
    _subspace_objectives,
)


def reference_multipliers(rng, count):
    """The multiplier sampler of ``check``, one draw at a time."""
    out = []
    while len(out) < count:
        lam = float(rng.uniform(-3.0, 3.0))
        if abs(1.0 - lam * lam) >= 0.15:
            out.append(lam)
    return out


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

    def test_wide_degenerate_band(self):
        # degenerate only under deg = 1e-6: check reports on it, nothing raises
        x0 = np.array([1.0, 2.0, 3.0])
        y0 = x0 + 1e-8 * np.array([1.0, -1.0, 0.5])
        rep = check(x0, y0, tols=Tolerances(deg=1e-6))
        assert rep.case is CaseTag.DEGENERATE_PLUS
        assert rep.items["feasible"].passed
        assert "degenerate_spread" in rep.items

    def test_detects_wrong_branch(self, monkeypatch):
        """A corrupted projection (large root chosen) must be flagged."""
        from crossproj.projection import SingletonProjection

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


class TestMultiplierSweep:
    """``check`` samples its multipliers in one draw and sweeps them in one
    array pass; both must match the one-at-a-time scalar loop."""

    @pytest.mark.parametrize("seed", range(8))
    def test_sampler_stream(self, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(
            _sample_multipliers(rng, 20), reference_multipliers(ref, 20)
        )
        assert rng.standard_normal() == ref.standard_normal()

    @staticmethod
    def scalar_residuals(x0, y0, seed):
        # the sweep of check, one multiplier at a time through the public API
        rng = np.random.default_rng(seed)
        res = project(x0, y0)
        if res.is_set_valued:
            rng.standard_normal(x0.size)  # check's two sampled family members
            rng.standard_normal(x0.size)
        q = float(np.dot(x0, y0))
        s = float(np.dot(x0, x0) + np.dot(y0, y0))
        ident = closed = 0.0
        if res.tag is CaseTag.GENERIC:
            roots = solve_lambda(x0, y0)
            ident = max(abs((1.0 + lam * lam) * q - lam * s) for lam in roots) / (1.0 + s)
        for lam in reference_multipliers(rng, 20):
            cand = candidate(lam, x0, y0)
            den2 = (1.0 - lam * lam) ** 2
            lhs = float(np.dot(cand.x, cand.y)) * den2
            ident = max(ident, abs(lhs - ((1.0 + lam * lam) * q - lam * s)) / (1.0 + s))
            f_formula = lam * lam / (2.0 * den2) * ((1.0 + lam * lam) * s - 4.0 * lam * q)
            f_direct = objective(cand, x0, y0)
            closed = max(closed, abs(f_direct - f_formula) / (1.0 + abs(f_formula)))
        return ident, closed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["generic", "near_degenerate", "degenerate"])
    def test_matches_scalar_loop(self, n, kind):
        rng = np.random.default_rng([n, len(kind)])
        for trial in range(5):
            y0 = rng.uniform(-1.0, 1.0, n)
            if kind == "generic":
                x0, y0 = random_generic(rng, n)
            elif kind == "near_degenerate":
                w = rng.standard_normal(n)
                x0 = y0 + 1e-8 * w / np.linalg.norm(w)
            else:
                x0 = y0.copy() if trial % 2 else -y0
            seed = int(rng.integers(0, 2**63))
            rep = check(x0, y0, seed=seed)
            ident, closed = self.scalar_residuals(x0, y0, seed)
            assert abs(rep.items["orthogonality_quadratic"].residual - ident) <= 1e-14
            assert abs(rep.items["objective_closed_form"].residual - closed) <= 1e-14


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
