"""Plain-numpy brute-force oracles for the similarity kernel.

These loop over rows in float64 and share no code with
`corpus_select.relevance`, so a test that compares the two checks the
kernel rather than the kernel against itself.
"""

import numpy as np

from corpus_select.errors import DimensionMismatch, EmptySelection, MissingView


def cosine(a, b) -> float:
    """Dot product of two unit (or zero) vectors, clamped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimensionMismatch(f"vectors have dims {a.shape[0]} and {b.shape[0]}")
    if not a.any() or not b.any():
        return 0.0
    return float(np.clip(a @ b, -1.0, 1.0))


def brute_max_sim(cands, targets) -> np.ndarray:
    """Per-candidate max dot product against the targets, as a double loop."""
    out = np.empty(len(cands))
    for i, x in enumerate(np.asarray(cands, dtype=np.float64)):
        best = -np.inf
        for y in np.asarray(targets, dtype=np.float64):
            best = max(best, float(x @ y))
        out[i] = best
    return out


def diversity_penalty(candidate, selected, views, weights) -> float:
    """Fused max cosine of one candidate to the already-selected set."""
    selected = list(selected)
    if not selected:
        raise EmptySelection("diversity penalty needs a nonempty selected set")
    value = 0.0
    for name, w in weights.weights.items():
        if w == 0.0:
            continue
        if name not in views:
            raise MissingView(f"candidates are missing weighted view {name!r}")
        mat = np.asarray(views[name], dtype=np.float64)
        value += w * max(cosine(mat[candidate], mat[j]) for j in selected)
    return float(np.clip(value, -1.0, 1.0))
