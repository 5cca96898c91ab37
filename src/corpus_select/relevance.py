"""Similarity and relevance scoring.

A candidate's relevance to a target dataset is its maximum cosine
similarity to any target row. With several embedding views the per-view
maxima are combined by a weighted sum (late fusion); with several target
datasets the fused scores are aggregated by max or mean. The diversity
penalty is the mirror image: each view's maximum similarity to the
already-selected set, fused with the same weights. One kernel,
`max_similarity`, scores both, and `FusionWeights.fuse` is the only
place views are combined.

Rows are assumed unit-L2 (or zero), so cosine is a plain dot product and
a zero row scores 0 against everything. Kernels compute in float64 over
candidate blocks with a running max, so the full candidate-by-target
score matrix is never materialized; blocks can be fanned out over threads
because each writes a disjoint output slice and blocking is fixed, making
results bit-identical for any worker count.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from corpus_select.errors import DimensionMismatch, EmptyTargets, EmptyTargetSet, MissingView
from corpus_select.store import EmbeddingView, TargetSet

_CAND_BLOCK = 16384
_TARGET_BLOCK = 16384


class AggregationMode(enum.Enum):
    """How per-dataset relevance combines across target datasets."""

    MAX = "max"
    MEAN = "mean"

    @classmethod
    def from_name(cls, name: str) -> "AggregationMode":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"aggregation must be 'max' or 'mean', got {name!r}") from None


@dataclass(frozen=True)
class FusionWeights:
    """Nonnegative per-view weights, stored normalized to sum to 1.

    Normalizing keeps the MMR trade-off comparable across view counts and
    makes the weights scale-invariant: multiplying all raw weights by any
    c > 0 yields the same FusionWeights.
    """

    weights: Mapping[str, float]

    def __post_init__(self):
        items = dict(self.weights)
        if not items:
            raise ValueError("at least one fusion weight is required")
        for name, w in items.items():
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"weight for view {name!r} must be finite and >= 0, got {w}")
        total = sum(items.values())
        if total <= 0:
            raise ValueError("at least one fusion weight must be positive")
        object.__setattr__(
            self, "weights", {name: w / total for name, w in items.items()}
        )

    @classmethod
    def uniform(cls, names: Sequence[str]) -> "FusionWeights":
        return cls({name: 1.0 for name in names})

    @property
    def names(self) -> list[str]:
        return list(self.weights)

    def fuse(self, score: Callable[[str], np.ndarray]) -> np.ndarray:
        """Weighted sum of `score(name)` over views of nonzero weight, clipped to [-1, 1].

        Views are visited in weight order and zero-weight views are never
        scored, so every caller sums the same terms in the same order.
        """
        total = 0.0
        for name, w in self.weights.items():
            if w != 0.0:
                total = total + w * score(name)
        return np.clip(total, -1.0, 1.0)


def _as_matrix(view) -> np.ndarray:
    return view.rows if isinstance(view, EmbeddingView) else np.asarray(view)


def max_similarity(
    candidates: np.ndarray,
    targets: np.ndarray,
    *,
    threads: int = 1,
) -> np.ndarray:
    """Per-candidate maximum dot product against the target rows.

    Returns a float64 vector of length N, clipped to [-1, 1]. This is the
    only similarity kernel: relevance, the selector's running max and the
    exact-greedy oracle all score through it.
    """
    cands = _as_matrix(candidates)
    tgts = _as_matrix(targets)
    if tgts.ndim != 2 or tgts.shape[0] == 0:
        raise EmptyTargets("target matrix has no rows")
    if cands.shape[1] != tgts.shape[1]:
        raise DimensionMismatch(
            f"candidates have {cands.shape[1]} dims, targets {tgts.shape[1]}"
        )
    n = cands.shape[0]
    result = np.empty(n, dtype=np.float64)
    tgt64 = tgts.astype(np.float64, copy=False)

    def _block(lo: int) -> None:
        hi = min(lo + _CAND_BLOCK, n)
        cb = cands[lo:hi].astype(np.float64, copy=False)
        best = np.full(hi - lo, -np.inf)
        for tlo in range(0, tgt64.shape[0], _TARGET_BLOCK):
            sims = cb @ tgt64[tlo : tlo + _TARGET_BLOCK].T
            np.maximum(best, sims.max(axis=1), out=best)
        result[lo:hi] = best

    starts = range(0, n, _CAND_BLOCK)
    if threads > 1 and n > _CAND_BLOCK:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_block, starts))
    else:
        for lo in starts:
            _block(lo)
    np.clip(result, -1.0, 1.0, out=result)
    return result


def update_running_max(
    rows: np.ndarray,
    batch: np.ndarray,
    running: np.ndarray,
    *,
    threads: int = 1,
) -> None:
    """Fold max similarity against `batch` into `running`, in place.

    Used by the batched selector to extend each candidate's maximum
    similarity to the selected set one committed batch at a time.
    """
    np.maximum(running, max_similarity(rows, batch, threads=threads), out=running)


def _check_views(
    views: Mapping[str, np.ndarray],
    targets: Mapping[str, np.ndarray],
    weights: FusionWeights,
) -> None:
    for name in weights.names:
        if name not in views:
            raise MissingView(f"candidates are missing weighted view {name!r}")
        if name not in targets:
            raise MissingView(f"targets are missing weighted view {name!r}")


def relevance_fused(
    views: Mapping[str, EmbeddingView | np.ndarray],
    targets: Mapping[str, np.ndarray],
    weights: FusionWeights,
    *,
    threads: int = 1,
) -> np.ndarray:
    """Weighted sum over views of per-view max cosine to the targets."""
    _check_views(views, targets, weights)
    n = _as_matrix(views[weights.names[0]]).shape[0]

    def score(name: str) -> np.ndarray:
        mat = _as_matrix(views[name])
        if mat.shape[0] != n:
            raise DimensionMismatch(
                f"view {name!r} has {mat.shape[0]} rows, expected {n}"
            )
        return max_similarity(mat, targets[name], threads=threads)

    return weights.fuse(score)


def relevance_multi_dataset(
    views: Mapping[str, EmbeddingView | np.ndarray],
    targets: TargetSet,
    weights: FusionWeights,
    mode: AggregationMode = AggregationMode.MAX,
    *,
    threads: int = 1,
) -> np.ndarray:
    """Aggregate fused relevance over target datasets by max or mean.

    Max mode takes each view's maximum similarity across every dataset's
    rows before fusing, which equals fused relevance over the union of
    all target rows up to BLAS rounding: a candidate scores by its best
    match anywhere. Mean mode averages the per-dataset fused scores (the
    weighted sum distributes over the average, so fusing before or after
    the mean is the same), favoring candidates useful across domains.
    Mean never exceeds max for any candidate.
    """
    if not targets.datasets:
        raise EmptyTargetSet("target set has no datasets")
    for ds in targets.datasets:
        _check_views(views, ds.views, weights)
    if mode is AggregationMode.MAX:
        return weights.fuse(
            lambda name: np.maximum.reduce(
                [
                    max_similarity(_as_matrix(views[name]), ds.views[name], threads=threads)
                    for ds in targets.datasets
                ]
            )
        )
    per_dataset = [
        relevance_fused(views, ds.views, weights, threads=threads)
        for ds in targets.datasets
    ]
    return np.mean(per_dataset, axis=0)
