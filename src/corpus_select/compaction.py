"""K-means compaction of target embeddings.

Caps the number of target rows used in relevance computation by replacing
each dataset's per-view matrix with k cluster centroids (re-normalized to
unit length). Lloyd iterations start from k-means++ seeds and stop on a
relative centroid-shift threshold; empty clusters are repaired by handing
them the point farthest from its assigned centroid, which guarantees the
k-row contract. All distance math runs in float64, and every squared
distance, the seeding weights included, is `|x|^2 - 2 x.c + |c|^2` clamped
at 0 (`_assign`): one BLAS product per seed. Rows that this form cannot
tell from a seed, within its rounding error `2 (D + 2) eps (|x|^2 + |c|^2)`,
take the elementwise `((x - c) ** 2).sum()` instead, so the seed and its
duplicates weigh exactly 0 and cannot be drawn while any other row weighs more.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from corpus_select.errors import DegenerateInput, NonFiniteEntry
from corpus_select.rng import generator, subseed
from corpus_select.store import TargetDataset, TargetSet, _normalize_rows

_MAX_ITERS = 100
_TOL = 1e-4  # relative centroid-shift threshold


@dataclass(frozen=True)
class KMeansConfig:
    k: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")


@dataclass
class Clustering:
    """Result of one k-means run.

    `inertia_history` records the assignment-step inertia (sum of squared
    distances to the nearest centroid) once per Lloyd iteration, starting
    with the post-init assignment; pure Lloyd steps never increase it.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations: int
    inertia_history: list[float]

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


def _seed_distances(x: np.ndarray, x2: np.ndarray, idx: int) -> np.ndarray:
    d2 = _assign(x, x[idx : idx + 1], x2)[1][:, 0]
    near = np.flatnonzero(d2 <= 2 * (x.shape[1] + 2) * np.finfo(np.float64).eps * (x2 + x2[idx]))
    d2[near] = ((x[near] - x[idx]) ** 2).sum(axis=1)
    return d2


def _plusplus_init(x: np.ndarray, x2: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=np.float64)
    idx = int(rng.integers(n))
    centroids[0] = x[idx]
    d2 = _seed_distances(x, x2, idx)
    for c in range(1, k):
        total = d2.sum()
        idx = int(rng.choice(n, p=d2 / total)) if total > 0 else int(rng.integers(n))
        centroids[c] = x[idx]
        np.minimum(d2, _seed_distances(x, x2, idx), out=d2)
    return centroids


def _assign(x: np.ndarray, centroids: np.ndarray, x2: np.ndarray):
    d2 = x2[:, None] - 2.0 * (x @ centroids.T) + (centroids * centroids).sum(axis=1)
    np.maximum(d2, 0.0, out=d2)
    return d2.argmin(axis=1), d2


def _means(x: np.ndarray, assignments: np.ndarray, k: int) -> np.ndarray:
    # one-hot GEMM: sums in the BLAS kernel's order; stable bits are measured, not guaranteed
    onehot = np.zeros((k, x.shape[0]), dtype=np.float64)
    onehot[assignments, np.arange(x.shape[0])] = 1.0
    counts = onehot.sum(axis=1)
    return (onehot @ x) / counts[:, None]


def _repair_empty(
    x: np.ndarray, assignments: np.ndarray, d2: np.ndarray, centroids: np.ndarray, k: int
) -> bool:
    """Give each empty cluster the point farthest from its assigned centroid.

    Only steals from clusters with >= 2 members so no new empties appear;
    the stolen point becomes the empty cluster's centroid. Returns whether
    any repair happened.
    """
    counts = np.bincount(assignments, minlength=k)
    empties = np.flatnonzero(counts == 0)
    if not empties.size:
        return False
    point_d2 = d2[np.arange(len(assignments)), assignments].copy()
    for e in empties:
        eligible = counts[assignments] >= 2
        if not eligible.any():
            break
        scores = np.where(eligible, point_d2, -np.inf)
        j = int(scores.argmax())
        counts[assignments[j]] -= 1
        assignments[j] = e
        counts[e] = 1
        centroids[e] = x[j]
        point_d2[j] = -np.inf
    return True


def kmeans(rows: np.ndarray, cfg: KMeansConfig) -> Clustering:
    """Lloyd's algorithm with k-means++ seeding, deterministic in the seed.

    k is clamped to the row count. If every row is identical and k > 1,
    emits a DegenerateInput warning and returns the k=1 clustering.
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"rows must be a nonempty 2-D matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        r, c = np.argwhere(~np.isfinite(x))[0]
        raise NonFiniteEntry(r, c, context="kmeans input")
    n = x.shape[0]
    k = min(cfg.k, n)
    if k > 1 and bool((x == x[0]).all()):
        warnings.warn(
            f"all {n} rows identical; returning a single cluster instead of k={k}",
            DegenerateInput,
            stacklevel=2,
        )
        k = 1

    rng = generator(cfg.seed, "kmeans")
    x2 = np.einsum("ij,ij->i", x, x)
    centroids = _plusplus_init(x, x2, k, rng)

    assignments, d2 = _assign(x, centroids, x2)
    history = [float(d2.min(axis=1).sum())]
    _repair_empty(x, assignments, d2, centroids, k)

    iterations = 0
    for _ in range(_MAX_ITERS):
        iterations += 1
        new_centroids = _means(x, assignments, k)
        # numpy sums, not BLAS norms: the kernel and thread count cannot move the iteration count
        denom = max(float(np.sqrt(np.square(centroids).sum())), 1e-12)
        shift = float(np.sqrt(np.square(new_centroids - centroids).sum())) / denom
        centroids = new_centroids
        assignments, d2 = _assign(x, centroids, x2)
        history.append(float(d2.min(axis=1).sum()))
        repaired = _repair_empty(x, assignments, d2, centroids, k)
        if shift < _TOL and not repaired:
            break

    # final consistency pass: re-derive assignments from the final centroids
    # and repair any empties; repair snaps the stolen point's coordinates
    # onto the empty centroid, so with coincident centroids the state cycles
    # with period one and the equality check ends the loop
    centroids = _means(x, assignments, k)
    prev = None
    for _ in range(10):
        assignments, d2 = _assign(x, centroids, x2)
        repaired = _repair_empty(x, assignments, d2, centroids, k)
        if not repaired or (prev is not None and np.array_equal(assignments, prev)):
            break
        prev = assignments.copy()
    inertia = float(((x - centroids[assignments]) ** 2).sum())

    return Clustering(centroids, assignments.astype(np.int64), inertia, iterations, history)


def compact_targets(
    targets: TargetSet, cfg: KMeansConfig, *, report: list | None = None
) -> TargetSet:
    """Replace each dataset's per-view rows with k unit-normalized centroids.

    Views with at most k rows pass through unchanged. Each (dataset, view)
    pair clusters independently with its own derived seed. `report`, if
    given, collects one dict per (dataset, view) with before/after row
    counts, inertia and iteration count.
    """
    datasets: list[TargetDataset] = []
    for ds in targets.datasets:
        views: dict[str, np.ndarray] = {}
        for view_name, mat in ds.views.items():
            rows, inertia, iterations = mat, 0.0, 0
            if mat.shape[0] > cfg.k:
                sub_cfg = replace(cfg, seed=subseed(cfg.seed, "compact", ds.name, view_name))
                clustering = kmeans(mat, sub_cfg)
                rows = _normalize_rows(clustering.centroids.astype(np.float32))
                inertia, iterations = clustering.inertia, clustering.iterations
            views[view_name] = rows
            if report is not None:
                report.append(
                    {
                        "dataset": ds.name,
                        "view": view_name,
                        "rows_before": mat.shape[0],
                        "rows_after": rows.shape[0],
                        "inertia": inertia,
                        "iterations": iterations,
                    }
                )
        datasets.append(TargetDataset(ds.name, views))
    return TargetSet(datasets)
