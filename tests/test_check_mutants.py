"""Mutation harness for ``check``: every item must be able to catch a wrong
``project``.

Eleven defects are injected into the pieces that both routes of ``project``
and ``check``'s own record of its input share: the classification and roots
(``_roots``), the result construction (``_result``, which ``check`` also
calls on that record) or the family member kernel (``_family_member``).  ``check`` runs under each on a fixed battery:
the inputs of ``crossproj check --seed s --trials 6`` for s = 0, 1, 2.  A mutant changes
an input when the result of ``project`` on it differs from the true one (a
family's member for the diagonal direction included); a changed input whose
report is ``ok`` is a miss.  Each mutant's misses are pinned as an upper
bound, and each item must fail on some changed input where it passed
before.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import crossproj.oracle as oracle_mod
import crossproj.projection as projection_mod
from crossproj import CaseTag, check
from crossproj.cli import _crafted_inputs
from crossproj.linalg import Pair, _pow2_scale, block_solve

SEEDS = (0, 1, 2)
TRIALS = 6
DIMS = (1, 2, 3, 4)


def battery():
    """(x0, y0, check seed), drawn in the order ``crossproj check`` draws them."""
    out = []
    for seed in SEEDS:
        for dim in DIMS:
            rng = np.random.default_rng([seed, dim])
            inputs = list(_crafted_inputs(rng, dim))
            inputs += [
                (rng.uniform(-1.0, 1.0, dim), rng.uniform(-1.0, 1.0, dim))
                for _ in range(TRIALS)
            ]
            out += [(x0, y0, int(rng.integers(0, 2**63))) for x0, y0 in inputs]
    return out


def _turned(v, angle=1e-6):
    # v rotated by angle in the plane of its first two coordinates
    w = v.copy()
    if v.size > 1:
        c, s = math.cos(angle), math.sin(angle)
        w[0], w[1] = c * v[0] - s * v[1], s * v[0] + c * v[1]
    return w


def _axis(x0, y0):
    # the nearer axis selection
    zero = np.zeros_like(x0)
    return Pair(x0, zero) if float(x0.dot(x0)) >= float(y0.dot(y0)) else Pair(zero, y0)


def _large_root(res, core):
    x0, y0, lam = core.x0, core.y0, core.lam_plus
    point = block_solve(lam, Pair(x0, y0))
    half = 0.5 * lam * float(x0.dot(y0))
    return replace(res, point=point, lam=lam, half_dist_sq=half, dist=math.sqrt(2.0 * half))


# defects of a generic result, given the result and the record it was built from
ASSEMBLE = {
    "shifted_point": lambda res, core: replace(
        res, point=Pair(res.point.x + 1e-7 * core.x0, res.point.y)),
    "off_cross": lambda res, core: replace(
        res, point=Pair(res.point.x + 1e-6 * res.point.y, res.point.y)),
    "rotated_point": lambda res, core: replace(
        res, point=Pair(_turned(res.point.x), _turned(res.point.y))),
    "axis_point": lambda res, core: replace(res, point=_axis(core.x0, core.y0)),
    "swapped_parts": lambda res, core: replace(res, point=Pair(res.point.y, res.point.x)),
    "large_root": _large_root,
}


def _generic(tag, q):
    return tag is CaseTag.GENERIC


# defects of the classification and roots (tag, small root, large root, half
# the squared distance; the norms and array _roots also returns pass through
# unchanged): (the inputs they apply to, given the tag and <x0, y0> at unit
# scale, the defect)
REDUCE = {
    "scaled_half": (_generic, lambda tag, lam, lam_plus, half, *rest: (
        tag, lam, lam_plus, half * (1.0 + 1e-6), *rest)),
    "scaled_lam": (_generic, lambda tag, lam, lam_plus, half, *rest: (
        tag, lam * (1.0 + 1e-6), lam_plus, half, *rest)),
    "orthogonal_below_0.1": (
        lambda tag, q: _generic(tag, q) and abs(q) < 0.1,
        lambda tag, lam, lam_plus, half, *rest: (CaseTag.ORTHOGONAL, None, None, 0.0, *rest),
    ),
    "scaled_degenerate_half": (
        lambda tag, q: tag.is_degenerate,
        lambda tag, lam, lam_plus, half, *rest: (
            tag, lam, lam_plus, half * (1.0 + 1e-6), *rest),
    ),
}

MUTANTS = [*ASSEMBLE, *REDUCE, "scaled_member"]

#: Changed inputs whose report was ok, at most, per mutant: a baseline that
#: may fall, never rise.  Near the degenerate ray (the crafted inputs with
#: eps = 1e-10, and at n = 1 also 1e-6 and 1e-8) a swapped or axis point
#: becomes right as x0 -> y0; a 1e-6 relative change of a small half squared
#: distance falls below the absolute tolerances of every item.
MAX_MISSES = {
    "shifted_point": 0,
    "off_cross": 0,
    "rotated_point": 0,
    "axis_point": 12,
    "swapped_parts": 10,
    "large_root": 0,
    "scaled_half": 2,
    "scaled_lam": 0,
    "orthogonal_below_0.1": 0,
    "scaled_degenerate_half": 0,
    "scaled_member": 0,
}

def _install(mp, name):
    # project (either route) and check's own record read the module's _roots;
    # project builds its result through projection's _result, check through
    # its own binding of it
    if name in ASSEMBLE:
        real, change = projection_mod._result, ASSEMBLE[name]

        def result(core):
            res = real(core)
            return change(res, core) if core.tag is CaseTag.GENERIC else res

        mp.setattr(projection_mod, "_result", result)
        mp.setattr(oracle_mod, "_result", result)
    elif name in REDUCE:
        real, (applies, change) = projection_mod._roots, REDUCE[name]

        def roots(q, xx, yy, tols, xs, ys):
            out = real(q, xx, yy, tols, xs, ys)
            # (xs, ys) = (x0, y0)/k has the power-of-two scale c/k, and q = <xs, ys>
            ck = _pow2_scale(max(float(np.abs(xs).max()), float(np.abs(ys).max())))
            return change(*out) if applies(out[0], q / (ck * ck)) else out

        mp.setattr(projection_mod, "_roots", roots)
    else:
        real = projection_mod._family_member

        def member(xs, ys, u, k=1.0):
            # the member scaled along its own u; FamilyProjection.member only
            x, y = real(xs, ys, u, k)
            return Pair(x * (1.0 + 1e-6), y)

        mp.setattr(projection_mod, "_family_member", member)


def _fingerprint(res):
    points = res.selections()
    if res.is_set_valued:
        n = res.x0.size
        points.append(res.member(np.full(n, 1.0 / math.sqrt(n))))
    return (res.tag, res.half_dist_sq, getattr(res, "lam", None),
            [np.concatenate(p).tolist() for p in points])


@pytest.fixture(scope="module")
def study():
    """(reports without a mutant, {mutant: (changed flags, reports)})."""
    inputs = battery()
    truth = [_fingerprint(projection_mod.project(x0, y0)) for x0, y0, _ in inputs]
    base = [check(x0, y0, seed=s) for x0, y0, s in inputs]
    runs = {}
    for name in MUTANTS:
        with pytest.MonkeyPatch.context() as mp:
            _install(mp, name)
            changed = [
                _fingerprint(projection_mod.project(x0, y0)) != t
                for (x0, y0, _), t in zip(inputs, truth)
            ]
            reports = [check(x0, y0, seed=s) for x0, y0, s in inputs]
        runs[name] = (changed, reports)
    return base, runs


@pytest.mark.parametrize("name", MUTANTS)
def test_misses_stay_within_bound(study, name):
    changed, reports = study[1][name]
    assert any(changed), "the mutant changes no input"
    misses = sum(c and rep.ok for c, rep in zip(changed, reports))
    assert misses <= MAX_MISSES[name]


def test_every_item_catches_a_mutant(study):
    base, runs = study
    items = {name for rep in base for name in rep.items}
    caught = {
        item
        for changed, reports in runs.values()
        for c, before, after in zip(changed, base, reports)
        if c
        for item in after.failures()
        if item in before.items and before.items[item].passed
    }
    assert items <= caught, items - caught
