"""Mutation harness for ``check``: every item must be able to catch a wrong
``project``.

Eleven defects are injected into the numeric core (``_reduce``), the point
assembly (``_assemble``) or the family member kernel (``_family_member``),
and ``check`` runs under each on a fixed battery: the inputs of
``crossproj check --seed s --trials 6`` for s = 0, 1, 2.  A mutant changes
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
from crossproj.linalg import Pair, block_solve
from crossproj.projection import LambdaPair

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


def _axis(core):
    # the nearer axis selection
    zero = np.zeros_like(core.x0)
    return Pair(core.x0, zero) if core.nx >= core.ny else Pair(zero, core.y0)


def _generic(core):
    return core.tag is CaseTag.GENERIC


def _large_root(res, core):
    lam = core.lams.lambda_plus
    half = 0.5 * lam * core.q * core.c * core.c
    point = block_solve(lam, Pair(core.x0, core.y0))
    return replace(res, point=point, lam=lam, half_dist_sq=half, dist=None)


# defects of a generic result, given the result and its reduction
ASSEMBLE = {
    "shifted_point": lambda res, core: replace(
        res, point=Pair(res.point.x + 1e-7 * core.x0, res.point.y)),
    "off_cross": lambda res, core: replace(
        res, point=Pair(res.point.x + 1e-6 * res.point.y, res.point.y)),
    "rotated_point": lambda res, core: replace(
        res, point=Pair(_turned(res.point.x), _turned(res.point.y))),
    "axis_point": lambda res, core: replace(res, point=_axis(core)),
    "swapped_parts": lambda res, core: replace(res, point=Pair(res.point.y, res.point.x)),
    "large_root": _large_root,
}


# defects of the reduction: (the reductions they apply to, the defect)
REDUCE = {
    "scaled_half": (_generic, lambda core: core._replace(half=core.half * (1.0 + 1e-6))),
    "scaled_lam": (_generic, lambda core: core._replace(
        lams=LambdaPair(core.lams.lambda_minus * (1.0 + 1e-6), core.lams.lambda_plus))),
    "orthogonal_below_0.1": (
        lambda core: _generic(core) and abs(core.q) < 0.1,
        lambda core: core._replace(tag=CaseTag.ORTHOGONAL, lams=None, half=0.0),
    ),
    "scaled_degenerate_half": (
        lambda core: core.tag.is_degenerate,
        lambda core: core._replace(half=core.half * (1.0 + 1e-6)),
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
    if name in ASSEMBLE:
        real, change = projection_mod._assemble, ASSEMBLE[name]

        def assemble(core):
            res = real(core)
            return change(res, core) if _generic(core) else res

        # project and check's own result both assemble through _assemble
        mp.setattr(projection_mod, "_assemble", assemble)
        mp.setattr(oracle_mod, "_assemble", assemble)
    elif name in REDUCE:
        real, (applies, change) = projection_mod._reduce, REDUCE[name]

        def reduce(x0, y0, tols):
            core = real(x0, y0, tols)
            return change(core) if applies(core) else core

        mp.setattr(projection_mod, "_reduce", reduce)
        mp.setattr(oracle_mod, "_reduce", reduce)
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
