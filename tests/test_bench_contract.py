"""The benchmark's traced run (``bench/run.py --trace 1``) swaps wrappers onto
module attributes of the library; each name it patches must stay bound.

The core validates each input vector once, through ``_vector_inf`` (which
the tracer does not patch); these tests count its calls themselves."""

import sys
from pathlib import Path

import numpy as np

import crossproj.oracle as oracle_mod
import crossproj.projection as projection_mod

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
    # the input is validated once: one validator call per component
    assert validations == ["x0", "y0"]
    assert snap["count", "branch.generic_direct"] == 1


def test_check_validates_each_input_once(monkeypatch):
    validations = _count_validations(monkeypatch)
    tracer = Tracer()
    tracer.install()
    try:
        oracle_mod.check(np.array([1.0, 2.0, -0.5]), np.array([0.7, -0.2, 1.5]))
        snap = tracer.snapshot()
    finally:
        tracer.remove()
    # two validator calls per core reduction: check itself, its six project
    # calls and the two oracles; the multiplier sweep validates nothing
    assert snap["calls", "oracle.project"] == 6
    assert len(validations) == 18
