"""Per-layer spans recorded from outside the library.

:class:`Tracer` swaps wrappers onto module attributes of crossproj (and
onto the constraint classes' ``project``/``distance``), so every call the
library makes through those names opens a span.  A span knows its name,
its start and its parent (the span open when it started); when it closes,
its duration is added to its name's inclusive total (outermost span of a
name only, so recursion is not counted twice), its duration minus its
children's to the name's self total, and its duration to the parent's
child time.  Spans are folded into these totals as they close instead of
being kept, so a long traced run uses constant memory.

``install`` puts the wrappers in place and ``remove`` restores the
original attributes; untraced passes run with none installed.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns

import numpy as np

#: |1 - lam^2| below this takes the subspace fallback (the library's
#: FALLBACK_BAND, restated so the benchmark infers branches on its own).
FALLBACK_BAND = 1e-6


def _nbytes(v) -> int:
    return v.nbytes if isinstance(v, np.ndarray) else 8 * np.size(v)


# Bytes each linalg primitive reads or writes, computed from its arguments.
_BYTES = {
    "linalg.as_vector": lambda a, k: _nbytes(a[0]),
    "linalg.norm": lambda a, k: _nbytes(a[0]),
    "linalg.inner": lambda a, k: _nbytes(a[0]) + _nbytes(a[1]),
    # reads rhs.x and rhs.y, writes the two solution components
    "linalg.block_solve": lambda a, k: 2 * (_nbytes(a[1].x) + _nbytes(a[1].y)),
}


def branch_of(res) -> str:
    """Projection branch inferred from a result's tag and multiplier."""
    tag = res.tag.value
    if tag == "generic":
        return "generic_fallback" if abs(1.0 - res.lam * res.lam) < FALLBACK_BAND else "generic_direct"
    if tag.startswith("degenerate"):
        return "degenerate"
    return tag


class Tracer:
    """Span totals per name and event counts."""

    def __init__(self) -> None:
        self._acc: dict[str, list[int]] = {}  # name -> [calls, incl ns, self ns, open]
        self._stack: list[list[int]] = []  # open spans: [child ns]
        self.counts: Counter = Counter()
        self._saved: list = []

    def snapshot(self) -> Counter:
        """Totals so far, keyed ("calls" | "incl_ns" | "self_ns", span) or ("count", event)."""
        snap = Counter({("count", k): v for k, v in self.counts.items()})
        for name, (calls, incl, own, _) in self._acc.items():
            snap["calls", name] = calls
            snap["incl_ns", name] = incl
            snap["self_ns", name] = own
        return snap

    def wrap(self, name: str, fn, on_result=None):
        acc = self._acc.setdefault(name, [0, 0, 0, 0])
        stack, counts = self._stack, self.counts
        nbytes = _BYTES.get(name)

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            acc[3] += 1
            t0 = perf_counter_ns()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                acc[3] -= 1
                acc[0] += 1
                acc[2] += dt - frame[0]
                if not acc[3]:  # the outermost span of this name
                    acc[1] += dt
                if stack:
                    stack[-1][0] += dt
            if nbytes is not None:
                counts["linalg.bytes"] += nbytes(args, kwargs)
            if on_result is not None:
                on_result(res, counts)
            return res

        return traced

    def _set(self, owner, attr: str, fn) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def _patch(self, owner, attr: str, name: str, on_result=None) -> None:
        self._set(owner, attr, self.wrap(name, getattr(owner, attr), on_result))

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        from crossproj import linalg as lin, oracle as orc, projection as proj, solvers as sol

        def on_project(res, counts):
            counts["branch." + branch_of(res)] += 1

        # linalg primitives, at each module that looks them up
        self._patch(lin, "as_vector", "linalg.as_vector")
        self._patch(proj, "as_vector", "linalg.as_vector")
        self._patch(proj, "norm", "linalg.norm")
        self._patch(orc, "norm", "linalg.norm")
        self._patch(proj, "inner", "linalg.inner")
        self._patch(proj, "block_solve", "linalg.block_solve")
        # projection layer
        self._patch(proj, "classify", "projection.classify")
        self._patch(orc, "classify", "projection.classify")
        traced_project = self.wrap("projection.project", proj.project, on_project)
        self._set(proj, "project", traced_project)
        # consumers reach the projection layer through their own bindings
        self._set(orc, "project", self.wrap("oracle.project", traced_project))
        self._set(sol, "project", self.wrap("solvers.p_c", traced_project))
        # oracle layer

        def on_check(report, counts):
            counts["oracle.items"] += len(report.items)

        self._patch(orc, "check", "oracle.check", on_check)
        self._patch(orc, "lagrangian_oracle", "oracle.lagrangian_oracle")
        self._patch(orc, "subspace_oracle", "oracle.subspace_oracle")
        # solver layer

        def on_run(trace, counts):
            counts["solvers.iterations"] += trace.iterations

        self._patch(sol, "alternating_projections", "solvers.loop", on_run)
        self._patch(sol, "douglas_rachford", "solvers.loop", on_run)
        for cls in (sol.OrthantPairConstraint, sol.AffinePairConstraint, sol.BoxPairConstraint):
            self._patch(cls, "project", "solvers.p_b")
            self._patch(cls, "distance", "solvers.p_b")

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
