import io
import json
import math

import numpy as np
import pytest

from crossproj import (
    BoxPairConstraint,
    DivergenceError,
    DomainError,
    FeasibilityProblem,
    Pair,
    SingletonProjection,
    alternating_projections,
    default_start,
    distance_sq,
    douglas_rachford,
    generate_instance,
    inner,
    instance_from_dict,
    instance_to_dict,
    membership,
    project,
    project_orthant_pair,
)


def pair(x, y):
    return Pair(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


class TestOrthantProjection:
    def test_clamps_both_components(self):
        out = project_orthant_pair(pair([1.0, -2.0], [-3.0, 4.0]))
        np.testing.assert_array_equal(out.x, [1.0, 0.0])
        np.testing.assert_array_equal(out.y, [0.0, 4.0])

    def test_fixes_nonnegative_input(self):
        p = pair([0.5, 0.0], [1.0, 2.0])
        out = project_orthant_pair(p)
        np.testing.assert_array_equal(out.x, p.x)
        np.testing.assert_array_equal(out.y, p.y)

    def test_result_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = project_orthant_pair(pair(rng.standard_normal(4), rng.standard_normal(4)))
            assert np.all(out.x >= 0.0) and np.all(out.y >= 0.0)


class TestConstraints:
    def test_affine_projection_idempotent(self):
        rng = np.random.default_rng(1)
        problem, witness = generate_instance("affine", 3, seed=4)
        c = problem.constraint
        p = pair(rng.standard_normal(3), rng.standard_normal(3))
        q = c.project(p)
        r = c.project(q)
        np.testing.assert_allclose(q.x, r.x, atol=1e-12)
        np.testing.assert_allclose(q.y, r.y, atol=1e-12)
        assert c.distance(q) <= 1e-12

    def test_box_projection(self):
        c = BoxPairConstraint(
            lo_x=np.array([0.0]), hi_x=np.array([1.0]),
            lo_y=np.array([-1.0]), hi_y=np.array([0.5]),
        )
        out = c.project(pair([2.0], [-3.0]))
        np.testing.assert_array_equal(out.x, [1.0])
        np.testing.assert_array_equal(out.y, [-1.0])
        assert c.distance(pair([2.0], [-3.0])) == pytest.approx(np.hypot(1.0, 2.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [1e-300, 1e-160, 1e160, 1e300])
    @pytest.mark.parametrize("kind", ["orthant", "affine", "box"])
    def test_distance_at_every_scale(self, kind, t):
        # the distance is positively homogeneous in the displacement, so scale
        # the start and (for affine and box sets) the set's anchors or bounds
        problem, _ = generate_instance(kind, 3, seed=6)
        c = problem.constraint
        p = pair([-1.0, 3.0, -2.0], [0.5, -4.0, 2.5])
        if kind == "affine":
            scaled = type(c)(t * c.anchor_x, c.basis_x, t * c.anchor_y, c.basis_y)
        elif kind == "box":
            scaled = type(c)(t * c.lo_x, t * c.hi_x, t * c.lo_y, t * c.hi_y)
        else:
            scaled = c
        d = scaled.distance(pair(t * p.x, t * p.y))
        assert d == pytest.approx(t * c.distance(p), rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_iterates_have_finite_residuals(self):
        problem, _ = generate_instance("affine", 2, seed=0)
        start = pair([1e308, 1e308], [1e308, -1e308])
        tr = alternating_projections(problem, start, max_iter=20)
        assert tr.iterations == 20
        assert all(np.isfinite(tr.residuals_b)) and all(np.isfinite(tr.residuals_c))
        assert tr.residuals_b[0] > 1e292

    @pytest.mark.filterwarnings("error")
    def test_distance_to_cross_finite_where_its_square_overflows(self):
        problem, _ = generate_instance("orthant", 2, seed=0)
        tr = alternating_projections(problem, pair([1e308, 1e308], [1e308, 1e308]), max_iter=1)
        # |x0 - y0| = 0, so the distance is sqrt(S / 2) = sqrt(2) * 1e308
        assert tr.residuals_c == [math.sqrt(2.0) * 1e308]
        assert tr.summary()["final_residual_C"] == tr.residuals_c[0]


class TestGenerateInstance:
    @pytest.mark.parametrize("kind", ["orthant", "affine", "box"])
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_witness_is_exactly_feasible(self, kind, dim):
        problem, witness = generate_instance(kind, dim, seed=3)
        assert membership(witness, 0.0)  # disjoint supports: exact zero
        assert problem.constraint.distance(witness) == 0.0

    def test_orthant_witness_nonnegative(self):
        problem, witness = generate_instance("orthant", 1, seed=0)
        assert np.all(witness.x >= 0.0) and np.all(witness.y >= 0.0)
        assert float(witness.x[0]) == 0.0 or float(witness.y[0]) == 0.0

    def test_deterministic_bytes(self):
        a = instance_to_dict(*generate_instance("affine", 4, seed=9), seed=9)
        b = instance_to_dict(*generate_instance("affine", 4, seed=9), seed=9)
        assert json.dumps(a) == json.dumps(b)

    def test_roundtrip_through_dict(self):
        problem, witness = generate_instance("box", 3, seed=5)
        doc = instance_to_dict(problem, witness, seed=5)
        problem2, witness2 = instance_from_dict(doc)
        assert problem2.kind == "box"
        np.testing.assert_array_equal(witness2.x, witness.x)
        c1, c2 = problem.constraint, problem2.constraint
        np.testing.assert_array_equal(c1.lo_x, c2.lo_x)
        np.testing.assert_array_equal(c1.hi_y, c2.hi_y)

    def test_validation(self):
        with pytest.raises(DomainError):
            generate_instance("simplex", 2, seed=0)
        with pytest.raises(DomainError):
            generate_instance("orthant", 0, seed=0)
        with pytest.raises(DomainError):
            instance_from_dict({"kind": "orthant", "dim": 2, "witness": {"x": [1.0], "y": [0.0, 0.0]}})


class TestInstanceValidation:
    def test_every_generated_instance_roundtrips(self):
        for kind in ("orthant", "affine", "box"):
            for dim in range(1, 6):
                for seed in range(10):
                    problem, witness = generate_instance(kind, dim, seed=seed)
                    doc = instance_to_dict(problem, witness, seed=seed)
                    problem2, witness2 = instance_from_dict(json.loads(json.dumps(doc)))
                    assert instance_to_dict(problem2, witness2, seed=seed) == doc

    def _affine_doc(self):
        return instance_to_dict(*generate_instance("affine", 3, seed=2), seed=2)

    def test_non_finite_basis_entry(self):
        doc = self._affine_doc()
        doc["constraint"]["basis_y"][0][1] = float("nan")
        with pytest.raises(DomainError, match="'basis_y' has non-finite"):
            instance_from_dict(doc)

    def test_scaled_basis_row(self):
        doc = self._affine_doc()
        doc["constraint"]["basis_x"][0] = [2.0 * v for v in doc["constraint"]["basis_x"][0]]
        with pytest.raises(DomainError, match="'basis_x' must have orthonormal rows"):
            instance_from_dict(doc)

    def test_non_orthogonal_basis_rows(self):
        doc = instance_to_dict(*generate_instance("affine", 2, seed=0), seed=0)
        doc["constraint"]["basis_x"] = [[1.0, 0.0], [0.6, 0.8]]
        with pytest.raises(DomainError, match="'basis_x' must have orthonormal rows"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_swapped_box_bounds(self, axis):
        doc = instance_to_dict(*generate_instance("box", 3, seed=4), seed=4)
        data = doc["constraint"]
        data[f"lo_{axis}"][2], data[f"hi_{axis}"][2] = data[f"hi_{axis}"][2], data[f"lo_{axis}"][2]
        with pytest.raises(DomainError, match=f"'lo_{axis}' exceeds 'hi_{axis}' at coordinate 2"):
            instance_from_dict(doc)


class TestAlternatingProjections:
    def test_feasible_start_one_iteration(self):
        problem, _ = generate_instance("orthant", 2, seed=0)
        start = pair([1.0, 0.0], [0.0, 2.0])  # in the cross and the orthant
        tr = alternating_projections(problem, start, max_iter=50, tol=1e-10)
        assert tr.converged
        assert tr.iterations == 1

    def test_scalar_orthant_two_iterations(self):
        problem, _ = generate_instance("orthant", 1, seed=0)
        tr = alternating_projections(problem, pair([2.0], [1.0]), max_iter=50, tol=1e-10)
        assert tr.converged
        assert tr.iterations == 2
        final = tr.iterates[-1]
        assert inner(final.x, final.y) == 0.0
        assert np.all(final.x >= 0.0) and np.all(final.y >= 0.0)

    def test_affine_batch_converges(self):
        for i in range(20):
            dim = 1 + (i % 4)
            problem, _ = generate_instance("affine", dim, seed=900 + i)
            start = default_start("affine", dim, seed=900 + i)
            tr = alternating_projections(problem, start, max_iter=5000, tol=1e-8)
            assert tr.converged, (i, dim, tr.final_residual())
            assert tr.final_residual() <= 1e-8

    def test_trace_shape_and_determinism(self):
        problem, _ = generate_instance("orthant", 3, seed=12)
        start = default_start("orthant", 3, seed=12)
        a = alternating_projections(problem, start, max_iter=500, tol=1e-9)
        b = alternating_projections(problem, start, max_iter=500, tol=1e-9)
        assert a.iterations == b.iterations
        assert a.residuals == b.residuals
        assert len(a.residuals) == len(a.iterates) == len(a.case_tags) == a.iterations
        buf_a, buf_b = io.StringIO(), io.StringIO()
        a.write_csv(buf_a)
        b.write_csv(buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_residuals_match_definition(self):
        problem, _ = generate_instance("orthant", 2, seed=13)
        start = default_start("orthant", 2, seed=13)
        tr = alternating_projections(problem, start, max_iter=200, tol=1e-9)
        for k, (rc, rb) in enumerate(zip(tr.residuals_c, tr.residuals_b)):
            assert tr.residuals[k] == rc + rb
            assert rc >= 0.0 and rb >= 0.0

    def test_validation(self):
        problem, _ = generate_instance("orthant", 1, seed=0)
        with pytest.raises(DomainError):
            alternating_projections(problem, pair([1.0], [1.0]), max_iter=0)
        with pytest.raises(DomainError):
            alternating_projections(problem, pair([1.0], [1.0]), tol=0.0)
        with pytest.raises(DomainError):
            alternating_projections(problem, pair([1.0], [1.0]), selection="random")


class TestDouglasRachford:
    def test_fixed_point_immediate(self):
        problem, _ = generate_instance("orthant", 2, seed=0)
        start = pair([1.0, 0.0], [0.0, 2.0])
        tr = douglas_rachford(problem, start, max_iter=50, tol=1e-10)
        assert tr.converged
        assert tr.iterations == 1

    def test_scalar_orthant_shadow_residual(self):
        problem, _ = generate_instance("orthant", 1, seed=0)
        tr = douglas_rachford(problem, pair([2.0], [1.0]), max_iter=200, tol=1e-8)
        assert tr.converged
        assert tr.iterations <= 200
        assert tr.final_residual() <= 1e-8

    def test_affine_batch_success_rate(self):
        # pinned-seed batch; empirically all 100 converge, well above 95
        converged = 0
        for i in range(100):
            dim = 1 + (i % 4)
            problem, _ = generate_instance("affine", dim, seed=900 + i)
            start = default_start("affine", dim, seed=900 + i)
            tr = douglas_rachford(problem, start, max_iter=5000, tol=1e-8)
            converged += tr.converged
        assert converged >= 95

    def test_shadow_iterates_in_cross(self):
        problem, _ = generate_instance("orthant", 3, seed=21)
        start = default_start("orthant", 3, seed=21)
        tr = douglas_rachford(problem, start, max_iter=300, tol=1e-9)
        for p, rc in zip(tr.iterates, tr.residuals_c):
            assert rc <= 1e-7  # shadows are selections of the cross projection


class TestDivergenceHandling:
    class _BrokenConstraint:
        kind = "broken"

        def project(self, p):
            return Pair(p.x * np.nan, p.y)

        def distance(self, p):
            return 0.5  # keeps the residual above tol so iteration continues

    def test_alternating_projections_raises_with_trace(self):
        problem = FeasibilityProblem(1, self._BrokenConstraint())
        with pytest.raises(DivergenceError) as exc:
            alternating_projections(problem, pair([2.0], [1.0]), max_iter=10, tol=1e-12)
        assert exc.value.trace is not None
        assert exc.value.trace.iterations >= 1

    def test_douglas_rachford_raises_with_trace(self):
        problem = FeasibilityProblem(1, self._BrokenConstraint())
        with pytest.raises(DivergenceError) as exc:
            douglas_rachford(problem, pair([2.0], [1.0]), max_iter=10, tol=1e-12)
        assert exc.value.trace is not None

    @pytest.mark.parametrize("max_iter", [1, 10])
    @pytest.mark.parametrize(
        "solver, method",
        [
            (alternating_projections, "alternating_projections"),
            (douglas_rachford, "douglas_rachford"),
        ],
    )
    def test_first_update_non_finite(self, solver, method, max_iter):
        # the update of step 1 is the run's last at max_iter = 1, checked after
        # the loop; at max_iter = 10 the next step's projection rejects it
        problem = FeasibilityProblem(1, self._BrokenConstraint())
        with pytest.raises(DivergenceError) as exc:
            solver(problem, pair([2.0], [1.0]), max_iter=max_iter, tol=1e-12)
        assert str(exc.value) == f"{method}: iterate became non-finite"
        trace = exc.value.trace
        assert trace.iterations == 1
        assert len(trace.iterates) == len(trace.residuals_c) == len(trace.case_tags) == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_douglas_rachford_shadow_overflows(self):
        # the start is finite, but its cross projection overflows
        problem, _ = generate_instance("orthant", 3, seed=0)
        start = pair(
            [1.57482676e308, -1.04542625e308, -1.61249486e308],
            [1.34454056e308, -1.29428747e308, -2.89663192e307],
        )
        message = "^douglas_rachford: iterate became non-finite$"
        with pytest.raises(DivergenceError, match=message) as exc:
            douglas_rachford(problem, start, max_iter=5)
        assert exc.value.trace.iterations == 0
        assert exc.value.trace.residuals_c == []


def _reference_run(method, problem, start, max_iter, tol):
    """AP or DR written over the public API, checking each update for finiteness.

    Returns (iterates, residuals_c, residuals_b, case_tags, converged), with
    the "first" selection."""
    iterates, res_c, res_b, tags = [], [], [], []
    z = start
    for _ in range(max_iter):
        pc = project(z.x, z.y)
        sel = pc.point if isinstance(pc, SingletonProjection) else pc.canonical[0]
        if method == "ap":
            monitored, d_c = z, math.sqrt(max(2.0 * pc.half_dist_sq, 0.0))
        else:
            monitored, d_c = sel, math.sqrt(max(distance_sq(sel.x, sel.y), 0.0))
        d_b = problem.constraint.distance(monitored)
        iterates.append(monitored)
        res_c.append(d_c)
        res_b.append(d_b)
        tags.append(pc.tag.value)
        if d_c + d_b <= tol:
            return iterates, res_c, res_b, tags, True
        if method == "ap":
            z = problem.constraint.project(sel)
        else:
            pb = problem.constraint.project(Pair(2.0 * sel.x - z.x, 2.0 * sel.y - z.y))
            z = Pair(z.x + pb.x - sel.x, z.y + pb.y - sel.y)
        assert np.all(np.isfinite(z.x)) and np.all(np.isfinite(z.y))
    return iterates, res_c, res_b, tags, False


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestReferenceLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim", [1, 3, 50])
    @pytest.mark.parametrize("kind", ["orthant", "affine", "box"])
    @pytest.mark.parametrize("method", ["ap", "dr"])
    def test_bit_identical_to_library(self, method, kind, dim, seed):
        problem, _ = generate_instance(kind, dim, seed)
        start = default_start(kind, dim, seed)
        solver = alternating_projections if method == "ap" else douglas_rachford
        tr = solver(problem, start, max_iter=300, tol=1e-8)
        iterates, res_c, res_b, tags, converged = _reference_run(
            method, problem, start, 300, 1e-8
        )
        assert (tr.converged, tr.iterations) == (converged, len(iterates))
        assert tr.case_tags == tags
        assert _bits(tr.residuals_c) == _bits(res_c)
        assert _bits(tr.residuals_b) == _bits(res_b)
        for got, want in zip(tr.iterates, iterates):
            assert _bits([got.x, got.y]) == _bits([want.x, want.y])


class TestSelectionPolicies:
    def test_degenerate_iterate_uses_configured_selection(self):
        problem, _ = generate_instance("orthant", 1, seed=0)
        start = pair([1.0], [1.0])  # degenerate: projection is set-valued
        first = alternating_projections(problem, start, max_iter=20, tol=1e-10,
                                        selection="first")
        second = alternating_projections(problem, start, max_iter=20, tol=1e-10,
                                         selection="second")
        assert first.case_tags[0] == "degenerate_plus"
        # first selection lands on (0, y), second on (x, 0)
        np.testing.assert_array_equal(first.iterates[-1].x, [0.0])
        np.testing.assert_array_equal(first.iterates[-1].y, [1.0])
        np.testing.assert_array_equal(second.iterates[-1].x, [1.0])
        np.testing.assert_array_equal(second.iterates[-1].y, [0.0])
