"""The paper's Hilbert-space statements, reproduced in finite sections.

* The cross is never weakly sequentially closed in infinite dimensions:
  (e1 + ek, e1 - ek) lies in the cross for every k and converges weakly to
  (e1, e1) as k grows, which is at distance 1 from it.  In l2 truncated to
  n coordinates the sequence and its limit are tagged and measured exactly.
* The cross is proximinal, with an explicit projection in every case: in
  L2[0, 1] the distance of (f, g) to the cross is
  sqrt((S - sqrt(S^2 - 4 q^2)) / 2) for q = <f, g> and S = |f|^2 + |g|^2.
  A weighted inner product <f, g> = sum w_i f_i g_i is handed to the
  Euclidean projection by scaling both vectors by sqrt(w); with trapezoid
  weights the distance converges to the closed form at O(h^2).
"""

import math

import numpy as np
import pytest

from crossproj import CaseTag, project

N = 1000


def _unit(k: int) -> np.ndarray:
    e = np.zeros(N)
    e[k - 1] = 1.0
    return e


@pytest.mark.parametrize("k", [2, 10, 999])
def test_weak_sequence_lies_in_the_cross(k):
    res = project(_unit(1) + _unit(k), _unit(1) - _unit(k))
    assert res.tag is CaseTag.ORTHOGONAL
    assert res.dist == 0.0


def test_weak_limit_is_outside_the_cross():
    res = project(_unit(1), _unit(1))
    assert res.tag is CaseTag.DEGENERATE_PLUS
    assert res.dist == 1.0


# f = sin(pi t), g = t on [0, 1]: q = 1/pi, S = 1/2 + 1/3
_Q, _S = 1.0 / math.pi, 5.0 / 6.0
L2_DIST = math.sqrt((_S - math.sqrt(_S * _S - 4.0 * _Q * _Q)) / 2.0)


def _trapezoid_dist(m: int) -> float:
    # distance of (f, g) sampled on m intervals, in the trapezoid inner product
    t = np.linspace(0.0, 1.0, m + 1)
    w = np.full(m + 1, 1.0 / m)
    w[[0, -1]] = 0.5 / m
    r = np.sqrt(w)
    return project(r * np.sin(np.pi * t), r * t).dist


def test_l2_distance_matches_closed_form():
    assert L2_DIST == pytest.approx(0.384446, abs=1e-6)
    assert abs(_trapezoid_dist(512) - L2_DIST) <= 1e-5


def test_l2_distance_converges_at_second_order():
    dists = [_trapezoid_dist(m) for m in (16, 32, 64, 128, 256, 512)]
    diffs = np.diff(dists)
    ratios = diffs[:-1] / diffs[1:]
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios
