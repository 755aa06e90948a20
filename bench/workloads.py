"""The four benchmark workloads.

Each workload holds the inputs of one pass, generated from the seed, and
knows how to make one operation's library call and how to judge its
output.  An operation is one ``project`` call (project_small,
project_large), one ``check`` call (check_battery) or one solver run
(solve_feasibility).  Library functions are looked up on their module at
every call, so the traced run sees the calls through its wrappers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

import cases
import reference


class Verdict(NamedTuple):
    ok: bool  # the output is right
    known: bool  # a wrong output of a documented seed-state defect
    completed: bool  # a solver run reached tol; other operations always complete


RAISED = Verdict(False, False, False)


class ProjectWorkload:
    """Back-to-back ``project(x0, y0)`` calls over a fixed case mix."""

    sample_if = None

    def __init__(self, projection, seed: int, dims, blocks: int, stream: int):
        self._projection = projection
        self.ops = cases.make_pairs(seed, dims, blocks, stream)
        self.facts = {
            "dims": list(dims),
            "blocks_per_dim": blocks,
            "pair_set_bytes": sum(x.nbytes + y.nbytes for _, x, y in self.ops),
            "case_shares": cases.case_shares(),
        }

    def arrays(self):
        for _, x, y in self.ops:
            yield x
            yield y

    def call(self, op):
        return self._projection.project(op[1], op[2])

    def judge(self, op, res) -> Verdict:
        kind, x, y = op
        ok = reference.wrong_reason(x, y, res.half_dist_sq, res.selections()) is None
        return Verdict(ok, not ok and kind in cases.KNOWN_WRONG_SCALES, True)


CHECK_DIMS = (1, 2, 3, 4)
CHECK_TRIALS = 100
_CRAFTED_EPS = (1e-6, 1e-8, 1e-10)
#: Seed-state defect: on a near-degenerate input the check's fixed accuracy
#: tolerances (1e-8 to 1e-10) can fail by a hair -- at about one seed in
#: four, one or two of the 12 such inputs; no other input failed in seeds
#: 0..99.  A raw multiplier candidate, for one, passes the oracle's
#: membership filter and undercuts the formula by 1.5e-9 (tol 1e-9).
NEAR_DEGENERATE_MISSES = {
    "lagrangian_lower",
    "lagrangian_match",
    "objective_identity",
    "point_match",
    "subspace_reduction",
}


def _check_battery(seed: int):
    """The input mix of ``crossproj check`` with its default settings.

    Per dimension: the origin, an orthogonal unit pair, both degenerate
    rays, three near-degenerate pairs, then uniform trials; each input gets
    its own check seed.  Drawn in the same order as the command draws them,
    so seed s gives the inputs of ``crossproj check --seed s``.  An
    operation is (x0, y0, check seed, whether the input is near-degenerate).
    """
    ops = []
    for dim in CHECK_DIMS:
        rng = np.random.default_rng([seed, dim])
        zero = np.zeros(dim)
        e1 = np.zeros(dim)
        e1[0] = 1.0
        e2 = np.zeros(dim)
        if dim >= 2:
            e2[1] = 1.0
        inputs = [(zero, zero, False), (e1, e2, False)]
        v = rng.uniform(0.5, 1.5, dim)
        inputs += [(v, v.copy(), False), (v, -v, False)]
        for eps in _CRAFTED_EPS:
            y = rng.uniform(-1.0, 1.0, dim)
            w = rng.standard_normal(dim)
            w /= np.linalg.norm(w)
            inputs.append((y + eps * w, y, True))
        inputs += [
            (rng.uniform(-1.0, 1.0, dim), rng.uniform(-1.0, 1.0, dim), False)
            for _ in range(CHECK_TRIALS)
        ]
        ops += [(x0, y0, int(rng.integers(0, 2**63)), near) for x0, y0, near in inputs]
    return ops


class CheckWorkload:
    """One ``oracle.check`` call per input of the default check battery."""

    sample_if = None

    def __init__(self, oracle, seed: int):
        self._oracle = oracle
        self.ops = _check_battery(seed)
        self.facts = {"dims": list(CHECK_DIMS), "trials_per_dim": CHECK_TRIALS}

    def arrays(self):
        for x0, y0, _, _ in self.ops:
            yield x0
            yield y0

    def call(self, op):
        return self._oracle.check(op[0], op[1], seed=op[2])

    def judge(self, op, res) -> Verdict:
        known = not res.ok and op[3] and set(res.failures()) <= NEAR_DEGENERATE_MISSES
        return Verdict(res.ok, known, True)


SOLVE_DIM = 50
SOLVE_KINDS = ("orthant", "affine", "box")
SOLVE_METHODS = ("ap", "dr")
#: Instance seeds are fixed, so the instance set -- and with it how many AP
#: orthant runs stall at the cap -- is the same at every benchmark seed;
#: the benchmark seed sets the order of the runs.
SOLVE_INSTANCE_SEEDS = tuple(range(10))
SOLVE_MAX_ITER = 1000
SOLVE_TOL = 1e-8


def _distance_to_b(constraint, x: np.ndarray, y: np.ndarray) -> float:
    """Distance to the constraint set, from the constraint's data alone."""
    if hasattr(constraint, "lo_x"):
        rx = x - np.clip(x, constraint.lo_x, constraint.hi_x)
        ry = y - np.clip(y, constraint.lo_y, constraint.hi_y)
    elif hasattr(constraint, "basis_x"):
        dx, dy = x - constraint.anchor_x, y - constraint.anchor_y
        rx = dx - constraint.basis_x.T @ (constraint.basis_x @ dx)
        ry = dy - constraint.basis_y.T @ (constraint.basis_y @ dy)
    else:
        rx, ry = np.minimum(x, 0.0), np.minimum(y, 0.0)
    return math.sqrt(float(np.dot(rx, rx) + np.dot(ry, ry)))


class SolveWorkload:
    """AP and DR runs on a fixed set of generated feasibility instances."""

    @staticmethod
    def sample_if(op, trace) -> bool:
        # run time is reported over converged runs; capped runs last max_iter
        return trace.converged

    def __init__(self, solvers, seed: int):
        self._solvers = solvers
        runs = []
        for kind in SOLVE_KINDS:
            for s in SOLVE_INSTANCE_SEEDS:
                problem, _ = solvers.generate_instance(kind, SOLVE_DIM, s)
                start = solvers.default_start(kind, SOLVE_DIM, s)
                runs += [(method, problem, start) for method in SOLVE_METHODS]
        order = np.random.default_rng([seed, 3]).permutation(len(runs))
        self.ops = [runs[i] for i in order]
        self.facts = {
            "dim": SOLVE_DIM,
            "kinds": list(SOLVE_KINDS),
            "methods": list(SOLVE_METHODS),
            "instance_seeds": list(SOLVE_INSTANCE_SEEDS),
            "max_iter": SOLVE_MAX_ITER,
            "tol": SOLVE_TOL,
        }

    def arrays(self):
        for _, _, start in self.ops:
            yield start.x
            yield start.y

    def call(self, op):
        method, problem, start = op
        run = (
            self._solvers.alternating_projections
            if method == "ap"
            else self._solvers.douglas_rachford
        )
        return run(problem, start, max_iter=SOLVE_MAX_ITER, tol=SOLVE_TOL)

    def judge(self, op, trace) -> Verdict:
        if not trace.converged:
            return Verdict(True, False, False)
        x, y = trace.iterates[-1]
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            return Verdict(False, False, True)
        c, half_u, _ = reference.unit_scale(x, y)
        d_c = c * math.sqrt(2.0 * half_u)
        d_b = _distance_to_b(op[1].constraint, x, y)
        # the solver stops at d_C + d_B <= tol by its own arithmetic
        return Verdict(d_c + d_b <= 2.0 * SOLVE_TOL, False, True)


WORKLOADS = ("project_small", "project_large", "check_battery", "solve_feasibility")
SMALL_DIMS = (1, 2, 3, 8)
SMALL_BLOCKS = 25
LARGE_DIM = 10_000


def large_blocks(llc_bytes: int) -> int:
    """Blocks of n = 10^4 pairs whose total size exceeds 4x the LLC."""
    block_bytes = len(cases.BLOCK) * 2 * LARGE_DIM * 8
    return 4 * llc_bytes // block_bytes + 1


def build(name: str, seed: int, llc_bytes: int, crossproj):
    """The named workload; ``crossproj`` maps layer names to modules."""
    if name == "project_small":
        return ProjectWorkload(crossproj["projection"], seed, SMALL_DIMS, SMALL_BLOCKS, stream=1)
    if name == "project_large":
        return ProjectWorkload(
            crossproj["projection"], seed, (LARGE_DIM,), large_blocks(llc_bytes), stream=2
        )
    if name == "check_battery":
        return CheckWorkload(crossproj["oracle"], seed)
    if name == "solve_feasibility":
        return SolveWorkload(crossproj["solvers"], seed)
    raise ValueError(f"unknown workload {name!r}")
