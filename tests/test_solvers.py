import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossproj import (
    AffinePairConstraint,
    BoxPairConstraint,
    DimensionMismatch,
    DivergenceError,
    DomainError,
    FeasibilityProblem,
    OrthantPairConstraint,
    Pair,
    SingletonProjection,
    SolverTrace,
    alternating_projections,
    default_start,
    douglas_rachford,
    generate_instance,
    inner,
    membership_residual,
    instance_from_dict,
    instance_to_dict,
    project,
)


def pair(x, y):
    return Pair(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


class TestOrthantProjection:
    def test_clamps_both_components(self):
        out = OrthantPairConstraint().project(pair([1.0, -2.0], [-3.0, 4.0]))
        np.testing.assert_array_equal(out.x, [1.0, 0.0])
        np.testing.assert_array_equal(out.y, [0.0, 4.0])

    def test_fixes_nonnegative_input(self):
        p = pair([0.5, 0.0], [1.0, 2.0])
        out = OrthantPairConstraint().project(p)
        np.testing.assert_array_equal(out.x, p.x)
        np.testing.assert_array_equal(out.y, p.y)

    def test_result_nonnegative(self):
        rng = np.random.default_rng(0)
        orthant = OrthantPairConstraint()
        for _ in range(50):
            out = orthant.project(pair(rng.standard_normal(4), rng.standard_normal(4)))
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

    def test_empty_affine_basis_pins_to_anchor(self):
        # a (0, n) basis spans nothing, so the component's set is its anchor
        anchor_x, anchor_y = np.array([1.0, 0.0, -2.0]), np.array([0.5, 3.0, 0.0])
        c = AffinePairConstraint(anchor_x, np.zeros((0, 3)), anchor_y, np.zeros((0, 3)))
        rng = np.random.default_rng(2)
        for _ in range(5):
            q = c.project(pair(rng.standard_normal(3), rng.standard_normal(3)))
            np.testing.assert_array_equal(q.x, anchor_x)
            np.testing.assert_array_equal(q.y, anchor_y)
        assert c.distance(pair(anchor_x, anchor_y)) == 0.0

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

    def test_empty_trace_has_infinite_residual(self):
        trace = SolverTrace(method="ap")
        assert trace.final_residual() == math.inf
        assert trace.summary()["final_residual"] is None


#: Finite floats with the edges of the range drawn often: signed zeros,
#: subnormals and +-1.7e308.
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.0**-1022, 1.7e308, -1.7e308])


def _vectors(n):
    return st.lists(_FINITE, min_size=n, max_size=n).map(np.array)


@st.composite
def _box_and_point(draw):
    """A box (some coordinates with lo == hi) and a pair of its dimension."""
    n = draw(st.integers(1, 6))
    a, b = draw(_vectors(2 * n)), draw(_vectors(2 * n))
    lo = np.minimum(a, b)
    hi = np.where(draw(st.lists(st.booleans(), min_size=2 * n, max_size=2 * n)), lo,
                  np.maximum(a, b))
    box = BoxPairConstraint(lo[:n], hi[:n], lo[n:], hi[n:])
    return box, Pair(draw(_vectors(n)), draw(_vectors(n)))


class TestProjectionIsExact:
    """AP records d_B = 0.0 for P_B's output without measuring it wherever
    the kind states ``_idempotent``; this pins that the measurement gives
    exactly that 0.0."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(_vectors(n), _vectors(n))))
    def test_orthant(self, xy):
        c = OrthantPairConstraint()
        assert c._idempotent
        assert c.distance(c.project(Pair(*xy))) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(_box_and_point())
    def test_box(self, box_and_point):
        box, p = box_and_point
        assert box._idempotent
        assert box.distance(box.project(p)) == 0.0

    def test_affine_does_not_state_it(self):
        assert AffinePairConstraint._idempotent is False

    @pytest.mark.parametrize("solver", [alternating_projections, douglas_rachford])
    def test_duck_typed_measured_every_step(self, solver):
        measured = []

        class Orthant:
            """The orthant's P_B, duck-typed, without the class-level statement."""

            kind = "orthant"

            def project(self, p):
                return OrthantPairConstraint().project(p)

            def distance(self, p):
                measured.append(d := OrthantPairConstraint().distance(p))
                return d

        problem = FeasibilityProblem(50, Orthant())
        tr = solver(problem, default_start("orthant", 50, 0), max_iter=7, tol=1e-300)
        assert tr.iterations == len(measured) == 7
        assert tr.residuals_b == measured

    @pytest.mark.parametrize("solver", [alternating_projections, douglas_rachford])
    def test_affine_measured_every_step(self, solver, monkeypatch):
        measured = []
        distance = AffinePairConstraint.distance

        def counted(self, p):
            measured.append(d := distance(self, p))
            return d

        monkeypatch.setattr(AffinePairConstraint, "distance", counted)
        problem, _ = generate_instance("affine", 50, 0)
        tr = solver(problem, default_start("affine", 50, 0), max_iter=7, tol=1e-300)
        assert tr.iterations == len(measured) == 7
        assert tr.residuals_b == measured


class TestBoxProjectionIsClip:
    """P_B of a box gives np.clip's bits, signed zeros and lo == hi included."""

    @settings(max_examples=200, deadline=None)
    @given(_box_and_point())
    def test_arrays_and_lists(self, box_and_point):
        box, p = box_and_point
        want = Pair(np.clip(p.x, box.lo_x, box.hi_x), np.clip(p.y, box.lo_y, box.hi_y))
        for q in (p, Pair(p.x.tolist(), p.y.tolist())):
            out = box.project(q)
            assert out.x.dtype == out.y.dtype == np.float64
            assert (out.x.tobytes(), out.y.tobytes()) == (want.x.tobytes(), want.y.tobytes())


class TestGenerateInstance:
    @pytest.mark.parametrize("kind", ["orthant", "affine", "box"])
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_witness_is_exactly_feasible(self, kind, dim):
        problem, witness = generate_instance(kind, dim, seed=3)
        assert membership_residual(witness) == 0.0  # disjoint supports: exact zero
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
        with pytest.raises(DomainError, match="instance kind must be one of"):
            default_start("bogus", 3)
        with pytest.raises(DomainError):
            generate_instance("orthant", 0, seed=0)
        with pytest.raises(DomainError):
            instance_from_dict({"kind": "orthant", "dim": 2, "witness": {"x": [1.0], "y": [0.0, 0.0]}})

    @pytest.mark.parametrize("dim", [0, -1, 2.5, 3.0, True, np.True_, "3"], ids=repr)
    def test_dim_must_be_a_positive_integer(self, dim):
        # the rule of count, resolution and max_iter: a float once reached numpy's
        # seed check, and dim 0 gave default_start an empty pair
        def problem(kind, dim):
            return FeasibilityProblem(dim, OrthantPairConstraint())

        for make in (generate_instance, default_start, problem):
            with pytest.raises(DomainError, match="^dim must be an integer >= 1$"):
                make("orthant", dim)

    @pytest.mark.parametrize("constraint", ["abc", None, object()], ids=["str", "none", "object"])
    def test_constraint_must_be_a_constraint(self, constraint):
        # once a bare TypeError from the shape loop's vars()
        with pytest.raises(DomainError, match=r"^constraint must be one of the kinds "
                           r"\('orthant', 'affine', 'box'\)"):
            FeasibilityProblem(3, constraint)

    def test_kind_is_checked_before_dim(self):
        for make in (generate_instance, default_start):
            with pytest.raises(DomainError, match="instance kind must be one of"):
                make("bogus", 0)

    def test_numpy_integer_dim(self):
        problem, _ = generate_instance("box", np.int64(3), seed=2)
        assert problem.dim == 3 and type(problem.dim) is int
        start = default_start("box", np.int32(3), seed=2)
        np.testing.assert_array_equal(start.x, default_start("box", 3, seed=2).x)
        problem = FeasibilityProblem(np.int64(3), OrthantPairConstraint())
        assert problem.dim == 3 and type(problem.dim) is int
        doc = json.loads(json.dumps(instance_to_dict(problem, start)))
        assert instance_from_dict(doc)[0].dim == 3


class TestInstanceValidation:
    def test_every_generated_instance_roundtrips(self):
        for kind in ("orthant", "affine", "box"):
            for dim in range(1, 6):
                for seed in range(10):
                    problem, witness = generate_instance(kind, dim, seed=seed)
                    doc = instance_to_dict(problem, witness, seed=seed)
                    problem2, witness2 = instance_from_dict(json.loads(json.dumps(doc)))
                    assert instance_to_dict(problem2, witness2, seed=seed) == doc

    @pytest.mark.parametrize("seed", [-1, np.int64(-1), True, 1.5, "3"], ids=repr)
    def test_seed_written_only_if_readable(self, seed):
        problem, witness = generate_instance("box", 2, seed=0)
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            instance_to_dict(problem, witness, seed=seed)

    @pytest.mark.parametrize("seed", [-1, "abc", 2.5, True], ids=repr)
    def test_seed_read_only_if_valid(self, seed):
        doc = instance_to_dict(*generate_instance("box", 2, seed=0), seed=0)
        doc["seed"] = seed
        with pytest.raises(DomainError, match="field 'seed' must be an integer >= 0"):
            instance_from_dict(doc)

    def test_numpy_integer_seed_roundtrips_through_json(self):
        problem, witness = generate_instance("box", 2, seed=3)
        doc = instance_to_dict(problem, witness, seed=np.int64(3))
        assert type(doc["seed"]) is int
        loaded = json.loads(json.dumps(doc))
        assert loaded == instance_to_dict(problem, witness, seed=3)
        assert instance_to_dict(*instance_from_dict(loaded), seed=loaded["seed"]) == loaded

    def _affine_doc(self):
        return instance_to_dict(*generate_instance("affine", 3, seed=2), seed=2)

    def test_missing_basis_roundtrips_and_solves(self):
        problem, witness = generate_instance("affine", 3, seed=4)
        doc = instance_to_dict(problem, witness, seed=4)
        del doc["constraint"]["basis_x"]
        loaded, _ = instance_from_dict(doc)
        assert loaded.constraint.basis_x.shape == (0, 3)
        again = instance_to_dict(loaded, witness, seed=4)
        assert again["constraint"]["basis_x"] == []
        assert instance_to_dict(instance_from_dict(again)[0], witness, seed=4) == again
        for solver in (alternating_projections, douglas_rachford):
            trace = solver(loaded, default_start("affine", 3, seed=4), max_iter=50)
            assert trace.iterations >= 1
            assert all(map(math.isfinite, trace.residuals))

    def test_unknown_kind_named(self):
        doc = instance_to_dict(*generate_instance("box", 2, seed=0), seed=0)
        doc["kind"] = "cube"
        with pytest.raises(DomainError, match="instance kind must be one of .*, not 'cube'"):
            instance_from_dict(doc)

    def test_vector_field_not_a_list(self):
        doc = instance_to_dict(*generate_instance("box", 2, seed=0), seed=0)
        doc["constraint"]["lo_y"] = 1.5
        with pytest.raises(DomainError, match="field 'lo_y' must be an array"):
            instance_from_dict(doc)

    def test_non_finite_basis_entry(self):
        doc = self._affine_doc()
        doc["constraint"]["basis_y"][0][1] = float("nan")
        with pytest.raises(DomainError, match=r"'basis_y\[0\]\[1\]' is not finite"):
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


class TestConstraintsValidateThemselves:
    """The instance-file rules hold for a constraint however it is built."""

    def test_empty_box_rejected(self):
        with pytest.raises(DomainError, match="'lo_x' exceeds 'hi_x' at coordinate 0"):
            BoxPairConstraint(lo_x=[1.0, 0.0], hi_x=[0.0, 1.0], lo_y=[0.0, 0.0], hi_y=[1.0, 1.0])
        with pytest.raises(DomainError, match="'lo_y' exceeds 'hi_y' at coordinate 1"):
            BoxPairConstraint(
                lo_x=np.zeros(2), hi_x=np.ones(2), lo_y=np.array([0.0, 2.0]), hi_y=np.ones(2)
            )

    def test_degenerate_box_accepted(self):
        c = BoxPairConstraint(lo_x=[1.0], hi_x=[1.0], lo_y=[0], hi_y=[2])
        assert c.lo_y.dtype == np.float64
        assert c.distance(pair([1.0], [3.0])) == 1.0

    def test_scaled_basis_rejected(self):
        with pytest.raises(DomainError, match="'basis_x' must have orthonormal rows"):
            AffinePairConstraint(np.zeros(2), 2.0 * np.eye(2), np.zeros(2), np.eye(2))

    def test_non_orthogonal_basis_rejected(self):
        with pytest.raises(DomainError, match="'basis_y' must have orthonormal rows"):
            AffinePairConstraint(
                np.zeros(2), np.eye(2), np.zeros(2), np.array([[1.0, 0.0], [0.6, 0.8]])
            )

    @pytest.mark.parametrize("kind", ["affine", "box"])
    def test_non_finite_field_rejected(self, kind):
        c = generate_instance(kind, 3, seed=1)[0].constraint
        name = "anchor_y" if kind == "affine" else "hi_y"
        values = {f.name: getattr(c, f.name).copy() for f in dataclasses.fields(c)}
        values[name][1] = np.inf
        with pytest.raises(DomainError, match=f"'{name}' has non-finite entries"):
            type(c)(**values)

    def test_mis_dimensioned_constraint_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"'lo_x' has shape \(1,\), dim is 3"):
            FeasibilityProblem(3, BoxPairConstraint([0.0], [1.0], [0.0], [1.0]))
        empty = AffinePairConstraint(np.zeros(3), np.zeros((0, 3)), np.zeros(3), np.eye(3))
        assert FeasibilityProblem(3, empty).dim == 3  # a (0, n) basis fits dim n


class TestStartDimension:
    @pytest.mark.parametrize("solver", [alternating_projections, douglas_rachford])
    @pytest.mark.parametrize("n", [2, 5])
    def test_start_of_another_dimension_raises(self, solver, n):
        problem, _ = generate_instance("orthant", 3, seed=0)
        with pytest.raises(DimensionMismatch, match="start has dimension"):
            solver(problem, pair(np.ones(n), np.ones(n)))


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
        for tol in (0.0, math.inf, math.nan, -1.0, "1e-8"):
            with pytest.raises(DomainError):
                alternating_projections(problem, pair([1.0], [1.0]), tol=tol)


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


class TestMaxIter:
    """Both solvers take max_iter as an integer >= 1, numpy integers included."""

    @pytest.mark.parametrize("solver", [alternating_projections, douglas_rachford])
    @pytest.mark.parametrize("max_iter", [2.5, True, 0, -1, "3"])
    def test_non_integer_or_small_rejected(self, solver, max_iter):
        problem, _ = generate_instance("box", 3, 0)
        with pytest.raises(DomainError, match="^max_iter must be an integer >= 1$"):
            solver(problem, default_start("box", 3, 0), max_iter=max_iter)

    @pytest.mark.parametrize("solver", [alternating_projections, douglas_rachford])
    def test_numpy_integer(self, solver):
        problem, _ = generate_instance("box", 3, 0)
        start = default_start("box", 3, 0)
        trace = solver(problem, start, max_iter=np.int64(2), tol=1e-300)
        assert trace.iterations == 2
        assert trace.config["max_iter"] == 2 and type(trace.config["max_iter"]) is int


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


def _reference_run(method, problem, start, max_iter, tol, member=lambda k: 0):
    """AP or DR written over the public API, checking each update for finiteness.

    Returns (iterates, residuals_c, residuals_b, case_tags, converged); a
    set-valued step k takes canonical[member(k)], by default canonical[0],
    (0, y0), as the library does."""
    iterates, res_c, res_b, tags = [], [], [], []
    z = start
    for k in range(max_iter):
        pc = project(z.x, z.y)
        sel = pc.point if isinstance(pc, SingletonProjection) else pc.canonical[member(k)]
        if method == "ap":
            monitored, d_c = z, math.sqrt(max(2.0 * pc.half_dist_sq, 0.0))
        else:
            monitored, d_c = sel, math.sqrt(max(2.0 * project(sel.x, sel.y).half_dist_sq, 0.0))
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
    """The library's traces keep the bits of a loop that measures every
    residual, on the benchmark's instance set (n = 50, seeds 0-9, the cap of
    1000 iterations at which most AP orthant runs stop) and at n = 1 and 3."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("dim", [1, 3, 50])
    @pytest.mark.parametrize("kind", ["orthant", "affine", "box"])
    @pytest.mark.parametrize("method", ["ap", "dr"])
    def test_bit_identical_to_library(self, method, kind, dim, seed):
        problem, _ = generate_instance(kind, dim, seed)
        _assert_reference_bits(method, problem, default_start(kind, dim, seed), 1000)

    # starts on each tag: x0 = y0, x0 = -y0 and disjoint supports (orthogonal)
    STARTS = {"plus": "degenerate_plus", "minus": "degenerate_minus",
              "disjoint": "orthogonal"}

    @pytest.mark.parametrize("start_tag", list(STARTS))
    @pytest.mark.parametrize("selection", ["first", "second", "alternate"])
    @pytest.mark.parametrize("dim", [1, 3, 50])
    @pytest.mark.parametrize("kind", ["orthant", "affine", "box"])
    @pytest.mark.parametrize("method", ["ap", "dr"])
    def test_every_tag_and_selection(self, method, kind, dim, selection, start_tag):
        """A set-valued step takes (0, y0), canonical[0] ("first").  The other
        member, (x0, 0), is canonical[0] of the swapped input (y0, x0), so the
        run on the swapped problem and start, swapped back, is the one that
        takes (x0, 0) ("second").  A loop that alternates the two members agrees
        with the library before its first set-valued step at an odd k and parts
        from it there ("alternate")."""
        problem, _ = generate_instance(kind, dim, 4)
        rng = np.random.default_rng([dim, len(start_tag)])
        x = rng.uniform(-2.0, 2.0, dim)
        if start_tag == "disjoint":
            on_x = np.arange(dim) % 2 == 0
            start = Pair(np.where(on_x, x, 0.0), np.where(on_x, 0.0, x))
        else:
            start = Pair(x, x.copy() if start_tag == "plus" else -x)
        if selection == "first":
            tags = _assert_reference_bits(method, problem, start, 200)
        elif selection == "second":
            tr = _solver(method)(_swapped(problem), Pair(start.y, start.x), max_iter=200, tol=1e-8)
            tr.iterates = [Pair(p.y, p.x) for p in tr.iterates]
            ref = _reference_run(method, problem, start, 200, 1e-8, member=lambda k: 1)
            tags = _assert_same_run(tr, ref)
        else:
            tr = _solver(method)(problem, start, max_iter=200, tol=1e-8)
            ref = _reference_run(method, problem, start, 200, 1e-8, member=lambda k: k % 2)
            odd = [k for k, t in enumerate(ref[3]) if k % 2 and t.startswith("degenerate")]
            k = odd[0] if odd else None
            tags = _assert_same_run(tr, ref, upto=k)
            if odd:  # the loop takes (x0, 0) at step k, the library (0, y0)
                assert _bits(tr.iterates[k : k + 2]) != _bits(ref[0][k : k + 2])
        assert tags[0] == self.STARTS[start_tag]


def _solver(method):
    return alternating_projections if method == "ap" else douglas_rachford


def _swapped(problem):
    """The problem with the roles of x and y exchanged."""
    c = problem.constraint
    if c.kind == "box":
        c = BoxPairConstraint(c.lo_y, c.hi_y, c.lo_x, c.hi_x)
    elif c.kind == "affine":
        c = AffinePairConstraint(c.anchor_y, c.basis_y, c.anchor_x, c.basis_x)
    return FeasibilityProblem(problem.dim, c)


def _assert_reference_bits(method, problem, start, max_iter) -> list[str]:
    """The library's trace has the bits of the reference loop's; returns its tags."""
    tr = _solver(method)(problem, start, max_iter=max_iter, tol=1e-8)
    return _assert_same_run(tr, _reference_run(method, problem, start, max_iter, 1e-8))


def _assert_same_run(tr, ref, upto=None) -> list[str]:
    """The trace has the bits of a reference run, or of its first ``upto``
    steps where it is given; returns the trace's tags."""
    iterates, res_c, res_b, tags, converged = ref
    if upto is None:
        assert (tr.converged, tr.iterations) == (converged, len(iterates))
    assert tr.case_tags[:upto] == tags[:upto]
    assert _bits(tr.residuals_c[:upto]) == _bits(res_c[:upto])
    assert _bits(tr.residuals_b[:upto]) == _bits(res_b[:upto])
    for got, want in zip(tr.iterates[:upto], iterates[:upto], strict=True):
        assert _bits([got.x, got.y]) == _bits([want.x, want.y])
    return tr.case_tags


class TestSetValuedStep:
    def test_degenerate_step_takes_0_y0(self):
        # x0 = y0 = 1: the cross projection is set valued, and AP and DR both
        # take (0, y0), which lies in the orthant and the cross
        problem, _ = generate_instance("orthant", 1, seed=0)
        for solver in (alternating_projections, douglas_rachford):
            tr = solver(problem, pair([1.0], [1.0]), max_iter=20, tol=1e-10)
            assert tr.converged and tr.case_tags[0] == "degenerate_plus"
            np.testing.assert_array_equal(tr.iterates[-1].x, [0.0])
            np.testing.assert_array_equal(tr.iterates[-1].y, [1.0])
