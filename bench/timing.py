"""Timed passes on a machine whose speed drifts.

The benchmark machine is shared: for seconds to minutes at a time it runs
the same code up to about 1.8x slower, in CPU time as much as in wall
time, when its neighbours are busy.  A slow stretch says nothing about
the code under test, so the timed passes are cut into chunks of about
0.05 s, each bracketed by a *probe*: a fixed piece of interpreter and
numpy work that never touches crossproj.  A chunk is *steady* when both
of its probes ran within ``STEADY_RATIO`` of the fastest probe of the run,
and the timings come from steady chunks only.  Which chunks count depends
on the probes alone, never on how long the library's calls took, so a
change that makes some calls slow cannot hide itself.

Timing continues past the requested seconds until every operation has
run at least once in a steady chunk; if that has not happened by
``HARD_STOP`` times the requested seconds, the steady threshold is raised
step by step until it has.

Passes can alternate between variants (the traced run alternates plain
and traced passes), so that both meet the same machine.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

#: A probe is taken once this much time has passed since the last one.
CHUNK_NS = 50_000_000
#: A chunk is steady when both its probes are within this ratio of the
#: run's fastest probe; the machine's slow mode is about 1.8x.
STEADY_RATIO = 1.1
#: Timing stops at this multiple of the requested seconds at the latest.
HARD_STOP = 2.0

_PROBE_VEC = np.arange(8.0)


def probe_ns() -> int:
    """Fastest of two runs of fixed interpreter and small-numpy work."""
    best = 0
    for _ in range(2):
        t0 = perf_counter_ns()
        s = 0
        for i in range(2000):
            s += i * i
        for _ in range(50):
            np.dot(_PROBE_VEC, _PROBE_VEC)
        dt = perf_counter_ns() - t0
        best = dt if not best else min(best, dt)
    return best


class Timed:
    """Latencies of back-to-back passes over a workload, in chunks.

    ``on_chunk`` runs after each chunk closes, before the next probe;
    ``switch(variant)`` before each pass.  Neither is timed.
    """

    def __init__(self, workload, on_chunk=None, switch=None):
        self.w = workload
        self.on_chunk = on_chunk
        self.switch = switch
        self.lat: list[np.ndarray] = []  # per pass, ns per operation
        self.chunk: list[np.ndarray] = []  # per pass, chunk of each operation
        self.kept: list[np.ndarray] = []  # per pass, latency counts for p50
        self.variant: list[int] = []  # per pass
        self.raised = 0
        self.probes = [probe_ns()]  # chunk c lies between probes c and c + 1
        self._next = perf_counter_ns() + CHUNK_NS

    def run_pass(self, variant: int = 0) -> None:
        if self.switch is not None:
            self.switch(variant)
        w, n = self.w, len(self.w.ops)
        lat = np.empty(n, np.int64)
        chunk = np.empty(n, np.int64)
        kept = np.ones(n, bool)
        clock, call, keep = perf_counter_ns, w.call, w.sample_if
        for i, op in enumerate(w.ops):
            t0 = clock()
            try:
                res = call(op)
            except Exception:  # counted; the run then reports correct = false
                self.raised += 1
                res = None
            t1 = clock()
            lat[i] = t1 - t0
            chunk[i] = len(self.probes) - 1
            if res is None or (keep is not None and not keep(op, res)):
                kept[i] = False
            if t1 >= self._next:
                self.close_chunk()
        self.lat.append(lat)
        self.chunk.append(chunk)
        self.kept.append(kept)
        self.variant.append(variant)

    def close_chunk(self) -> None:
        if self.on_chunk is not None:
            self.on_chunk()
        self.probes.append(probe_ns())
        self._next = perf_counter_ns() + CHUNK_NS

    def run(self, seconds: float, variants: int = 1, min_passes: int = 1) -> "Timed":
        """Passes, cycling through the variants, until ``seconds`` are up
        and every operation of every variant ran steady at least once."""
        start = perf_counter_ns()
        while True:
            self.run_pass(self.passes % variants)
            elapsed = (perf_counter_ns() - start) * 1e-9
            if elapsed >= seconds and self.passes >= max(min_passes, variants):
                if elapsed >= HARD_STOP * seconds or self._covered(self.chunk_probes(), STEADY_RATIO):
                    break
        self.close_chunk()
        return self

    @property
    def passes(self) -> int:
        return len(self.lat)

    def chunk_probes(self) -> np.ndarray:
        """Slower of the two probes around each closed chunk."""
        p = np.asarray(self.probes, dtype=float)
        return np.maximum(p[:-1], p[1:])

    def _steady_ops(self, pc: np.ndarray, ratio: float) -> np.ndarray:
        ok = np.zeros(len(pc) + 1, bool)  # the last entry: a chunk still open
        ok[:-1] = pc <= ratio * pc.min()
        return ok[np.stack(self.chunk)]

    def _covered(self, pc: np.ndarray, ratio: float) -> bool:
        if not len(pc):
            return False
        steady = self._steady_ops(pc, ratio)
        variant = np.asarray(self.variant)
        return all(steady[variant == v].any(axis=0).all() for v in set(self.variant))

    def steady(self) -> tuple[np.ndarray, float]:
        """(passes x ops mask of steady operations, probe ratio used)."""
        pc = self.chunk_probes()
        ratios = np.unique(pc / pc.min())
        ratios = np.concatenate(([STEADY_RATIO], ratios[ratios > STEADY_RATIO]))
        # the smallest ratio at which every operation ran steady at least once
        lo, hi = 0, len(ratios) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._covered(pc, ratios[mid]):
                hi = mid
            else:
                lo = mid + 1
        return self._steady_ops(pc, ratios[lo]), float(ratios[lo])

    def summary(self, variant: int = 0) -> dict:
        """Pass time, p50 and tail latency from the variant's steady passes.

        Pass time sums, and p50 is the median over kept operations of, each
        operation's median steady latency, so every operation weighs the
        same however often it ran steady.  The tail is the highest of p99,
        p95 and p90 over all steady samples with ten samples beyond it.
        """
        rows = np.asarray(self.variant) == variant
        steady, ratio = self.steady()
        steady = steady[rows]
        lat = np.stack(self.lat).astype(float)[rows]
        kept = np.stack(self.kept)[rows]
        per_op = np.nanmedian(np.where(steady, lat, np.nan), axis=0)
        samples = lat[steady & kept]
        tail = {}
        for p in (99, 95, 90):
            value = float(np.percentile(samples, p))
            beyond = int((samples > value).sum())
            if beyond >= 10:
                tail = {"tail_pct": p, "tail_ns": value, "tail_beyond": beyond}
                break
        return {
            "pass_ns": float(per_op.sum()),
            "p50_ns": float(np.median(per_op[kept.all(axis=0)])),
            "samples": int(samples.size),
            "steady_frac": float(steady.mean()),
            "steady_ratio": ratio,
            "passes": int(rows.sum()),
            **tail,
        }

    def steady_chunks(self) -> np.ndarray:
        """Steady flag per closed chunk, at the ratio ``steady`` settles on."""
        pc = self.chunk_probes()
        return pc <= self.steady()[1] * pc.min()

    def ops_per_chunk(self, variant: int = 0) -> np.ndarray:
        """Operations of the variant's passes that ran in each closed chunk."""
        chunks = [c for c, v in zip(self.chunk, self.variant) if v == variant]
        return np.bincount(np.concatenate(chunks), minlength=len(self.probes))[: len(self.probes) - 1]
