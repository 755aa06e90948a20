"""Tests of the benchmark's reference checker.

Run from the repository root with ``python -m pytest bench/test_reference.py``.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from crossproj.projection import project  # noqa: E402
from reference import unit_scale, wrong_reason  # noqa: E402

X = np.array([1.0, 2.0, -0.5])
Y = np.array([0.7, -0.2, 1.5])


def verdict(x, y):
    res = project(x, y)
    return wrong_reason(x, y, res.half_dist_sq, res.selections())


def scaled_answer(t):
    """The unit-scale projection of (X, Y), rescaled exactly to t (X, Y)."""
    res = project(X, Y)
    return res.half_dist_sq * t * t, [(t * px, t * py) for px, py in res.selections()]


def test_project_is_right_at_unit_scale():
    assert verdict(X, Y) is None


@pytest.mark.parametrize("t", [1e-8, 1e300])
def test_flags_the_scale_defects_of_project(t):
    with np.errstate(over="ignore", invalid="ignore"):
        assert verdict(t * X, t * Y) is not None


def test_accepts_project_at_1e150():
    assert verdict(1e150 * X, 1e150 * Y) is None


def test_accepts_the_exact_answer_at_1e150():
    half, points = scaled_answer(1e150)
    assert wrong_reason(1e150 * X, 1e150 * Y, half, points) is None


def test_inf_only_where_the_exact_value_overflows():
    _, points = scaled_answer(1e300)
    assert wrong_reason(1e300 * X, 1e300 * Y, np.inf, points) is None
    assert wrong_reason(1e300 * X, 1e300 * Y, 0.0, points) is not None
    _, unit_points = scaled_answer(1.0)
    assert wrong_reason(X, Y, np.inf, unit_points) is not None


def test_rejects_a_point_off_the_cross():
    half, _ = scaled_answer(1.0)
    assert wrong_reason(X, Y, half, [(X, Y)]) is not None


def test_unit_scale_covers_all_three_cases():
    c, half_u, s_u = unit_scale(X, Y)
    assert c * c * half_u == pytest.approx(project(X, Y).half_dist_sq, rel=1e-12)
    x, y = np.array([1.0, 0.0]), np.array([0.0, 3.0])
    assert unit_scale(x, y)[1] == 0.0
    c, half_u, s_u = unit_scale(X, -X)
    assert half_u == pytest.approx(s_u / 4, rel=1e-15)
    assert unit_scale(np.zeros(2), np.zeros(2)) == (0.0, 0.0, 0.0)
