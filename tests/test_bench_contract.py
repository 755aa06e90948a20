"""The benchmark's traced run (``bench/run.py --trace 1``) swaps wrappers onto
module attributes of the library; each name it patches must stay bound.

``project`` decides an in-window input from its three reductions alone; the
scaled route, which every other input takes, validates each vector once
through ``_vector_inf`` (which the tracer does not patch).  These tests count
its calls themselves."""

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
    """Count the core's calls to the one-pass validator."""
    calls = []
    validate = projection_mod._vector_inf

    def counted(v, name):
        calls.append(name)
        return validate(v, name)

    monkeypatch.setattr(projection_mod, "_vector_inf", counted)
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
    assert validations == ["x0", "y0"]


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
    # two validator calls, for check's own reduction, which the Lagrangian
    # sweep and the spectral bound take; its six projections (the input and
    # its five moves) are in window and validate nothing
    assert projects == 6
    assert validations == ["x0", "y0"]


def test_check_validates_degenerate_input_once(monkeypatch):
    validations, projects = _check_validations(monkeypatch, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    # as above: the sampled family members reduce nothing
    assert projects == 6
    assert validations == ["x0", "y0"]


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
