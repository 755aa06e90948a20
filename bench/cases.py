"""Seeded input pairs for the projection workloads.

Every block of ``BLOCK`` cases has the same mix, so the case shares, the
branch each case takes and the set of known-wrong cases are the same at
every seed; only the vectors change.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

NEAR_EPS = (1e-6, 1e-8, 1e-10)
SCALES = (1e-300, 1e-150, 1e-8, 1e8, 1e150, 1e300)

#: Case kinds of one block, in generation order (shuffled afterwards).
BLOCK = (
    ("generic",) * 7
    + ("orthogonal",) * 2
    + ("degenerate_plus", "degenerate_minus")
    + tuple(f"near_{eps:.0e}" for eps in NEAR_EPS)
    + tuple(f"scale_{t:.0e}" for t in SCALES)
)

#: Scale factors at which the seed-state library answers a generic pair
#: wrongly.  Below unit scale the orthogonality band is absolute, so the
#: pair is called orthogonal at distance 0.  From about 1e154 up np.dot
#: overflows: at small n the pair is called orthogonal at distance 0, at
#: n = 10^4 <x0, y0> is mostly NaN and it is called degenerate.
KNOWN_WRONG_SCALES = ("scale_1e-300", "scale_1e-150", "scale_1e-08", "scale_1e+300")


def case_shares() -> dict[str, float]:
    """Share of each case family in a block."""
    families = Counter(kind.split("_")[0] for kind in BLOCK)
    return {family: count / len(BLOCK) for family, count in families.items()}


def _generic(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    # Far from both the orthogonal and the degenerate bands, so the case is
    # generic and takes the direct quotient at any seed and dimension.
    while True:
        u = rng.uniform(-1.0, 1.0, n)
        w = rng.uniform(-1.0, 1.0, n)
        nu, nw = np.linalg.norm(u), np.linalg.norm(w)
        if nu < 1e-3 or nw < 1e-3:
            continue
        a = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5)
        y = a * u + rng.uniform(0.3, 1.5) * (nu / nw) * w
        ny = np.linalg.norm(y)
        q = abs(float(np.dot(u, y)))
        gap = min(np.linalg.norm(u - y), np.linalg.norm(u + y))
        if q >= 0.1 * nu * ny and gap >= 0.1 * (nu + ny):
            return u, y


def make_pair(rng: np.random.Generator, kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One input pair of the given case kind in R^n."""
    if kind == "generic":
        return _generic(rng, n)
    if kind == "orthogonal":
        # disjoint supports: <x, y> is exactly 0
        on_x = rng.random(n) < 0.5
        u = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
        w = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
        return np.where(on_x, u, 0.0), np.where(on_x, 0.0, w)
    if kind in ("degenerate_plus", "degenerate_minus"):
        u = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
        return u, (u.copy() if kind == "degenerate_plus" else -u)
    if kind.startswith("near_"):
        # |y| = 1 puts |1 - lam^2| at about 2 eps, so eps = 1e-6 takes the
        # direct quotient and the two smaller eps the subspace fallback
        eps = float(kind[5:])
        y = rng.uniform(-1.0, 1.0, n)
        y /= np.linalg.norm(y)
        w = rng.standard_normal(n)
        w /= np.linalg.norm(w)
        return y + eps * w, y
    if kind.startswith("scale_"):
        t = float(kind[6:])
        x, y = _generic(rng, n)
        return t * x, t * y
    raise ValueError(f"unknown case kind {kind!r}")


def make_pairs(seed: int, dims, blocks: int, stream: int):
    """Shuffled (kind, x0, y0) list: ``blocks`` blocks per dimension."""
    rng = np.random.default_rng([seed, stream])
    spec = [(kind, n) for n in dims for _ in range(blocks) for kind in BLOCK]
    order = rng.permutation(len(spec))
    out = []
    for i in order:
        kind, n = spec[i]
        x, y = make_pair(rng, kind, n)
        out.append((kind, x, y))
    return out
