"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion pins its tolerance and runtime budget in place; failures
carry the offending inputs.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines as they complete.
"""

import io
import time

import numpy as np

from crossproj import (
    DEFAULT_TOLS,
    CaseTag,
    FamilyProjection,
    Pair,
    SingletonProjection,
    alternating_projections,
    as_pair,
    block_solve,
    classify,
    default_start,
    family_samples,
    generate_instance,
    inner,
    lagrangian_oracle,
    membership_residual,
    norm,
    objective,
    project,
    subspace_oracle,
)
from crossproj.projection import _unit


def _finish(num, name, t0, limit, failures):
    elapsed = time.perf_counter() - t0
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.2f}s, limit {limit:g}s)")
    assert not failures, f"{len(failures)} violation(s), first: {failures[:3]}"
    assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds budget {limit}s"


def _generic_inputs(rng, n, count):
    out = []
    while len(out) < count:
        x0 = rng.uniform(-1.0, 1.0, n)
        y0 = rng.uniform(-1.0, 1.0, n)
        if classify(x0, y0) is CaseTag.GENERIC:
            out.append((x0, y0))
    return out


GOLDEN_1D = [
    # (x0, y0, expected point set per the axis-comparison rule)
    (1.0, 2.0, {(0.0, 2.0)}),
    (1.0, -3.0, {(0.0, -3.0)}),
    (-1.0, 2.0, {(0.0, 2.0)}),
    (2.0, 1.0, {(2.0, 0.0)}),
    (-3.0, 1.0, {(-3.0, 0.0)}),
    (2.0, -1.0, {(2.0, 0.0)}),
    (1.0, 1.0, {(1.0, 0.0), (0.0, 1.0)}),
    (1.0, -1.0, {(1.0, 0.0), (0.0, -1.0)}),
    (-2.0, 2.0, {(-2.0, 0.0), (0.0, 2.0)}),
    (0.0, 0.0, {(0.0, 0.0)}),
    (0.0, 3.0, {(0.0, 3.0)}),
    (2.0, 0.0, {(2.0, 0.0)}),
]


def test_criterion_1_golden_1d_table():
    t0 = time.perf_counter()
    failures = []
    for x0, y0, expected in GOLDEN_1D:
        for label, res in (
            ("floats", project(x0, y0)),
            ("arrays", project(np.array([x0]), np.array([y0]))),
        ):
            got = res.selections()
            if len(expected) == 1:
                if len(got) != 1:
                    failures.append((label, x0, y0, "expected singleton"))
                    continue
                (ex, ey), = expected
                if abs(got[0].x[0] - ex) > 1e-15 or abs(got[0].y[0] - ey) > 1e-15:
                    failures.append((label, x0, y0, float(got[0].x[0]), float(got[0].y[0])))
            else:
                if not isinstance(res, FamilyProjection):
                    failures.append((label, x0, y0, "expected two-point family"))
                    continue
                got_set = {(float(p.x[0]), float(p.y[0])) for p in got}
                matched = all(
                    any(abs(gx - ex) <= 1e-15 and abs(gy - ey) <= 1e-15
                        for gx, gy in got_set)
                    for ex, ey in expected
                ) and len(got_set) == len(expected)
                if not matched:
                    failures.append((label, x0, y0, got_set, expected))
    _finish(1, "1-D golden table", t0, 1.0, failures)


def test_criterion_2_generic_formula_vs_lagrangian_oracle():
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 9):
        rng = np.random.default_rng([7002, n])
        for x0, y0 in _generic_inputs(rng, n, 1000):
            res = project(x0, y0)
            rep = lagrangian_oracle(x0, y0)
            f = res.half_dist_sq
            if abs(rep.best_objective - f) > 1e-10 * (1.0 + abs(f)):
                failures.append((n, list(x0), list(y0), rep.best_objective, f))
                continue
            dx = rep.best_point.x - res.point.x
            dy = rep.best_point.y - res.point.y
            if float(np.sqrt(np.dot(dx, dx) + np.dot(dy, dy))) > 1e-8:
                failures.append((n, list(x0), list(y0), "point mismatch"))
    _finish(2, "generic formula vs Lagrangian oracle", t0, 10.0, failures)


def test_criterion_3_subspace_grid_upper_bound():
    # the subspace oracle is exact (the top eigenvector of x0 x0^T - y0 y0^T),
    # so its gap to the formula is round-off in every dimension
    t0 = time.perf_counter()
    failures = []
    for n in (2, 3, 8, 50):
        rng = np.random.default_rng([7003, n])
        for _ in range(50):
            x0 = rng.uniform(-1.0, 1.0, n)
            y0 = rng.uniform(-1.0, 1.0, n)
            rep = subspace_oracle(x0, y0)
            half = project(x0, y0).half_dist_sq
            if not abs(rep.gap_vs_formula) <= 1e-12 * (1.0 + half):
                failures.append((n, list(x0), list(y0), rep.gap_vs_formula))
    _finish(3, "exact subspace oracle", t0, 60.0, failures)


def test_criterion_4_degenerate_independence():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7004)
    for i in range(100):
        n = 1 + (i % 4)
        x0 = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
        y0 = x0.copy() if i % 2 == 0 else -x0
        half = 0.25 * float(np.dot(x0, x0) + np.dot(y0, y0))
        mem_tol = 1e-9 * (1.0 + norm(x0) * norm(y0))
        for _, p in family_samples(x0, y0, 64):
            if membership_residual(p) > mem_tol:
                failures.append((i, n, "membership", membership_residual(p)))
                break
            f = objective(p, x0, y0)
            if abs(f - half) > 1e-10 * (1.0 + half):
                failures.append((i, n, "objective", f, half))
                break
    _finish(4, "degenerate independence", t0, 5.0, failures)


def test_criterion_5_identity_suite():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7005)
    for trial in range(1000):
        n = 1 + (trial % 8)
        (x0, y0), = _generic_inputs(rng, n, 1)
        q = inner(x0, y0)
        s = float(np.dot(x0, x0) + np.dot(y0, y0))
        core = _unit(x0, y0, DEFAULT_TOLS)  # the record check reads the roots from
        lams = (core.lam, core.lam_plus)
        if abs(lams[0] * lams[1] - 1.0) > 1e-10:
            failures.append((trial, "vieta"))
        res = project(x0, y0)
        scale = 1.0 + norm(x0) + norm(y0)
        pt, lam = res.point, res.lam
        stat = norm(pt.x + lam * pt.y - x0) + norm(pt.y + lam * pt.x - y0)
        if stat > 1e-10 * scale:
            failures.append((trial, "stationarity", stat))
        # orthogonality quadratic, forward direction: the roots give members
        for root in lams:
            if abs((1.0 + root * root) * q - root * s) > 1e-10 * (1.0 + s):
                failures.append((trial, "quadratic root residual"))
        # closed-form objective and the reverse direction at random multipliers
        checked = 0
        while checked < 20:
            lam_r = float(rng.uniform(-3.0, 3.0))
            if abs(1.0 - lam_r * lam_r) < 0.15:
                continue
            checked += 1
            cand = block_solve(lam_r, as_pair(x0, y0))
            den2 = (1.0 - lam_r * lam_r) ** 2
            formula = lam_r * lam_r / (2.0 * den2) * ((1.0 + lam_r * lam_r) * s - 4.0 * lam_r * q)
            if abs(objective(cand, x0, y0) - formula) > 1e-10 * (1.0 + abs(formula)):
                failures.append((trial, "closed-form objective"))
            lhs = inner(cand.x, cand.y) * den2
            rhs = (1.0 + lam_r * lam_r) * q - lam_r * s
            if abs(lhs - rhs) > 1e-10 * (1.0 + s):
                failures.append((trial, "orthogonality biconditional"))
    _finish(5, "identity suite", t0, 10.0, failures)


def test_criterion_6_symmetry_suite():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7006)
    for trial in range(500):
        n = 2 + (trial % 5)
        x0 = rng.uniform(-1.0, 1.0, n)
        y0 = rng.uniform(-1.0, 1.0, n)
        res = project(x0, y0)
        tol = 1e-9 * (1.0 + norm(x0) + norm(y0))

        for t in (0.5, 2.0, 10.0):
            scaled = project(t * x0, t * y0)
            if scaled.tag is not res.tag:
                failures.append((trial, "homogeneity tag", t))
                continue
            if abs(scaled.half_dist_sq - t * t * res.half_dist_sq) > tol * t * t:
                failures.append((trial, "homogeneity distance", t))
            for a, b in zip(scaled.selections(), res.selections()):
                if norm(a.x - t * b.x) + norm(a.y - t * b.y) > tol * t:
                    failures.append((trial, "homogeneity point", t))

        swapped = project(y0, x0)
        if swapped.tag is not res.tag:
            failures.append((trial, "swap tag"))
        elif isinstance(res, SingletonProjection):
            if (
                norm(swapped.point.x - res.point.y) + norm(swapped.point.y - res.point.x)
                > tol
                or abs(swapped.lam - res.lam) > 1e-9
            ):
                failures.append((trial, "swap point"))
        else:
            if (
                norm(swapped.canonical[0].y - res.canonical[1].x)
                + norm(swapped.canonical[1].x - res.canonical[0].y)
            ) > tol:
                failures.append((trial, "swap family"))

        a = rng.standard_normal((n, n))
        rot, r = np.linalg.qr(a)
        rot = rot * np.sign(np.diag(r))
        rotated = project(rot @ x0, rot @ y0)
        if rotated.tag is not res.tag:
            failures.append((trial, "rotation tag"))
        else:
            for p, b in zip(rotated.selections(), res.selections()):
                if norm(p.x - rot @ b.x) + norm(p.y - rot @ b.y) > tol:
                    failures.append((trial, "rotation point"))
    _finish(6, "symmetry suite", t0, 10.0, failures)


def test_criterion_7_stability_stress():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7007)
    for eps in (1e-6, 1e-8, 1e-10):
        for trial in range(200):
            n = 1 + (trial % 4)
            y0 = rng.uniform(-1.0, 1.0, n)
            w = rng.standard_normal(n)
            w /= np.linalg.norm(w)
            x0 = y0 + eps * w
            if classify(x0, y0) is not CaseTag.GENERIC:
                failures.append((eps, trial, "not generic"))
                continue
            res = project(x0, y0)
            pt = res.point
            if not (np.all(np.isfinite(pt.x)) and np.all(np.isfinite(pt.y))):
                failures.append((eps, trial, "non-finite"))
                continue
            if membership_residual(pt) > 1e-8 * (1.0 + norm(x0) * norm(y0)):
                failures.append((eps, trial, "membership", membership_residual(pt)))
                continue
            canon = min(
                objective(Pair(np.zeros(n), y0), x0, y0),
                objective(Pair(x0, np.zeros(n)), x0, y0),
            )
            if objective(pt, x0, y0) > canon + 1e-7:
                failures.append((eps, trial, "objective", objective(pt, x0, y0), canon))
    _finish(7, "stability stress", t0, 5.0, failures)


def test_criterion_8_solver_demo():
    t0 = time.perf_counter()
    failures = []
    converged = 0
    for i in range(50):
        dim = 1 + (i % 4)
        problem, witness = generate_instance("orthant", dim, seed=800 + i)
        start = default_start("orthant", dim, seed=800 + i)
        trace = alternating_projections(problem, start, max_iter=5000, tol=1e-8)
        if trace.converged and trace.final_residual() <= 1e-8:
            converged += 1
    if converged < 48:
        failures.append(("converged", converged, "of 50"))

    # determinism: reruns write byte-identical traces
    problem, _ = generate_instance("orthant", 3, seed=800)
    start = default_start("orthant", 3, seed=800)
    blobs = []
    for _ in range(2):
        trace = alternating_projections(problem, start, max_iter=5000, tol=1e-8)
        buf = io.StringIO()
        trace.write_csv(buf)
        blobs.append(buf.getvalue().encode())
    if blobs[0] != blobs[1]:
        failures.append(("trace determinism",))
    _finish(8, "solver demo", t0, 30.0, failures)
