"""The benchmark's traced run (``bench/run.py --trace 1``) swaps wrappers onto
module attributes of the library; each name it patches must stay bound.

``project`` decides an in-window input from its three reductions alone; the
scaled route, which every other input takes, validates the input once
through ``_pair`` (which the tracer does not patch).  These tests count
its calls themselves, and the solvers' calls of the constraint's ``project``
and ``distance``, which the tracer folds into one span."""

import sys
from pathlib import Path

import numpy as np

import crossproj.oracle as oracle_mod
import crossproj.projection as projection_mod
import crossproj.solvers as solvers_mod

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import Tracer  # noqa: E402

PATCHED = [
    (projection_mod, name)
    for name in ("as_vector", "norm", "inner", "block_solve", "classify", "project")
] + [(oracle_mod, name) for name in ("norm", "classify", "project", "check")]


def _count_validations(monkeypatch) -> list:
    """Record the names of each of the core's calls to the one-pass pair validator."""
    calls = []
    validate = projection_mod._pair

    def counted(x, y, names):
        calls.append(names)
        return validate(x, y, names)

    monkeypatch.setattr(projection_mod, "_pair", counted)
    return calls


def test_tracer_installs_and_removes(monkeypatch):
    validations = _count_validations(monkeypatch)
    originals = {key: getattr(*key) for key in PATCHED}
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(*key) is not fn for key, fn in originals.items())
        projection_mod.project(np.array([1.0, 2.0]), np.array([3.0, 1.0]))
        snap = tracer.snapshot()
    finally:
        tracer.remove()
    assert all(getattr(*key) is fn for key, fn in originals.items())
    assert snap["calls", "projection.project"] == 1
    # an in-window input is decided from its reductions, with no inf-norm pass
    assert validations == []
    assert snap["count", "branch.generic_direct"] == 1


def test_scaled_route_validates_each_vector_once(monkeypatch):
    validations = _count_validations(monkeypatch)
    projection_mod.project(np.array([1e300, 1.0]), np.array([1e300, -3.0]))
    assert validations == [("x0", "y0")]


def _check_validations(monkeypatch, x0, y0) -> tuple[list, int]:
    """The core's validator calls and the ``oracle.project`` calls of one check."""
    validations = _count_validations(monkeypatch)
    tracer = Tracer()
    tracer.install()
    try:
        oracle_mod.check(np.array(x0), np.array(y0))
        snap = tracer.snapshot()
    finally:
        tracer.remove()
    return validations, snap["calls", "oracle.project"]


def test_check_validates_each_input_once(monkeypatch):
    validations, projects = _check_validations(monkeypatch, [1.0, 2.0, -0.5], [0.7, -0.2, 1.5])
    # one validator call, for check's own record of the input, from which it
    # builds the input's result and which the Lagrangian sweep and the spectral
    # bound read; its five projections (the moves) are in window and validate nothing
    assert projects == 5
    assert validations == [("x0", "y0")]


def test_check_validates_degenerate_input_once(monkeypatch):
    validations, projects = _check_validations(monkeypatch, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    # as above: the sampled family members reduce nothing
    assert projects == 5
    assert validations == [("x0", "y0")]


def test_member_reduces_nothing(monkeypatch):
    res = projection_mod.project(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
    validations = _count_validations(monkeypatch)
    res.member(np.array([0.0, 0.6, 0.8]))
    assert validations == []


def test_solver_step_validates_iterate_once(monkeypatch):
    validations = _count_validations(monkeypatch)
    norms = []
    inf_norm = solvers_mod._inf_norm

    def counted(arr):
        norms.append(arr.size)
        return inf_norm(arr)

    monkeypatch.setattr(solvers_mod, "_inf_norm", counted)
    problem, _ = solvers_mod.generate_instance("orthant", 50, 0)
    start = solvers_mod.default_start("orthant", 50, 0)
    k = 5
    trace = solvers_mod.alternating_projections(problem, start, max_iter=k, tol=1e-8)
    assert (trace.iterations, trace.converged) == (k, False)
    # each step's projection decides the in-window iterate from its reductions,
    # which are finite only if every coordinate is; only the last update, which
    # no projection follows, is measured apart
    assert validations == []
    assert norms == [50, 50]


def _count_constraint_calls(monkeypatch, cls) -> list:
    """Record each call of the constraint class's ``project`` and ``distance``."""
    calls = []
    for name in ("project", "distance"):
        real = getattr(cls, name)

        def counted(self, p, real=real, name=name):
            calls.append(name)
            return real(self, p)

        monkeypatch.setattr(cls, name, counted)
    return calls


def _traced_run(method, kind, max_iter):
    """One run on the benchmark's n = 50 instance of seed 0, and the tracer's totals."""
    problem, _ = solvers_mod.generate_instance(kind, 50, 0)
    start = solvers_mod.default_start(kind, 50, 0)
    solver = {"ap": solvers_mod.alternating_projections, "dr": solvers_mod.douglas_rachford}
    tracer = Tracer()
    tracer.install()
    try:
        trace = solver[method](problem, start, max_iter=max_iter, tol=1e-8)
        snap = tracer.snapshot()
    finally:
        tracer.remove()
    return trace, snap


def _count_classifications(monkeypatch) -> list:
    """Record each cross classification, through the solvers' binding of
    ``_classified`` (the step's and DR's shadow's) or projection's own (``project``)."""
    calls = []
    classified = projection_mod._classified

    def counted(x0, y0, tols):
        calls.append(np.size(x0))
        return classified(x0, y0, tols)

    monkeypatch.setattr(projection_mod, "_classified", counted)
    monkeypatch.setattr(solvers_mod, "_classified", counted)
    return calls


def test_ap_measures_orthant_and_box_once(monkeypatch):
    # after the start the iterate is P_B's own output, which these kinds hold
    # exactly: the run takes one distance, at the start (the box's goes through
    # its own projection), and one P_B per step; each step classifies its
    # iterate once and builds no projection result
    for kind, cls, start in (("orthant", solvers_mod.OrthantPairConstraint, ["distance"]),
                             ("box", solvers_mod.BoxPairConstraint, ["distance", "project"])):
        calls = _count_constraint_calls(monkeypatch, cls)
        classified = _count_classifications(monkeypatch)
        trace, snap = _traced_run("ap", kind, 6)
        assert not trace.converged and trace.iterations == 6
        assert calls == start + ["project"] * 6
        assert classified == [50] * 6
        assert snap["calls", "solvers.p_c"] == snap["calls", "projection.project"] == 0


def test_dr_shadow_takes_no_projection(monkeypatch):
    # the iterate and its shadow are each classified once per step, and no
    # projection result is built for either; two P_B (reflection, d_B) per step
    calls = _count_constraint_calls(monkeypatch, solvers_mod.OrthantPairConstraint)
    classified = _count_classifications(monkeypatch)
    trace, snap = _traced_run("dr", "orthant", 5)
    assert trace.iterations == 5
    assert classified == [50] * 10
    assert snap["calls", "solvers.p_c"] == snap["calls", "projection.project"] == 0
    assert calls == ["distance", "project"] * 5
