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
a zero row scores 0 against everything. The kernel rounds both operands
to integers at scale 2^26 (`to_grid`, a grid of step 2^-26) and
multiplies them in float64. For rows of norm at most 1, every product
and partial sum of the GEMM is an integer below (2^26 + sqrt(D)/2)^2,
which is under 2^53 at any D (Cauchy-Schwarz), so the GEMM is exact: its
result does not depend on summation order, FMA use, BLAS blocking, the
BLAS kernel or the thread count. The bound leaves room for norms up to
about 1.4, far beyond float32 rounding of unit rows. The price is a
score error of about sqrt(D) * 2^-26 at most against the unrounded rows
(2.4e-7 at D = 256). Candidates are scored in blocks with a running max,
so the full candidate-by-target score matrix is never materialized;
blocks can be fanned out over threads because each writes a disjoint
output slice.
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
_GRID = 2.0**26


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
    c > 0 yields the same FusionWeights. Views of weight 0 are dropped, so
    `names` lists only the views that are loaded, scored and tracked.
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
        shares = ((name, w / total) for name, w in items.items())
        object.__setattr__(self, "weights", {name: s for name, s in shares if s > 0.0})

    @classmethod
    def uniform(cls, names: Sequence[str]) -> "FusionWeights":
        return cls({name: 1.0 for name in names})

    @property
    def names(self) -> list[str]:
        return list(self.weights)

    def fuse(self, score: Callable[[str], np.ndarray]) -> np.ndarray:
        """Weighted sum of `score(name)` over the views, clipped to [-1, 1].

        Views are visited in weight order, so every caller sums the same
        terms in the same order.
        """
        total = 0.0
        for name, w in self.weights.items():
            total = total + w * score(name)
        return np.clip(total, -1.0, 1.0)


def _as_matrix(view) -> np.ndarray:
    return view.rows if isinstance(view, EmbeddingView) else np.asarray(view)


def to_grid(values, scale: float = 1.0) -> np.ndarray:
    """`values` rounded onto the exact-product grid, as float64 integers.

    Returns rint(values * 2^26 / scale). `scale` must be a power of two,
    so that scaling is exact, and no less than the largest row (or
    column) norm, so that products of two such operands stay exact; unit
    rows use scale 1.
    `max_similarity(a, b)` equals `max_similarity(to_grid(a), to_grid(b),
    on_grid=True)` bit for bit.
    """
    grid = np.array(values, dtype=np.float64)
    grid *= _GRID / scale
    np.rint(grid, out=grid)
    return grid


def max_similarity(
    candidates: np.ndarray,
    targets: np.ndarray,
    *,
    threads: int = 1,
    on_grid: bool = False,
) -> np.ndarray:
    """Per-candidate maximum dot product against the target rows.

    Returns a float64 vector of length N, clipped to [-1, 1]. This is the
    one similarity kernel (`_max_similarity_sets` with one target set):
    relevance, the selector's running max and the exact-greedy oracle all
    score through it. Both operands are rounded with `to_grid` first, so
    the result is exact for the rounded rows; `on_grid=True` says both
    already are `to_grid` output (the selector's pool is rounded once, not
    once per round).
    """
    return _max_similarity_sets(candidates, [targets], threads=threads, on_grid=on_grid)[0]


def _max_similarity_sets(candidates, target_sets, *, threads: int = 1, on_grid: bool = False):
    """`max_similarity` against each target set: a (sets, N) array.

    Each candidate block is rounded once for all sets, so every further
    target dataset adds only its GEMMs.
    """
    cands = _as_matrix(candidates)
    sets = [_as_matrix(t) for t in target_sets]
    for tgts in sets:
        if tgts.ndim != 2 or tgts.shape[0] == 0:
            raise EmptyTargets("target matrix has no rows")
        if cands.shape[1] != tgts.shape[1]:
            raise DimensionMismatch(
                f"candidates have {cands.shape[1]} dims, targets {tgts.shape[1]}"
            )
    n = cands.shape[0]
    result = np.empty((len(sets), n), dtype=np.float64)
    grids = sets if on_grid else [to_grid(t) for t in sets]

    def _block(lo: int) -> None:
        hi = min(lo + _CAND_BLOCK, n)
        cb = cands[lo:hi] if on_grid else to_grid(cands[lo:hi])
        for best, tgt_grid in zip(result[:, lo:hi], grids):
            best[...] = -np.inf
            for tlo in range(0, tgt_grid.shape[0], _TARGET_BLOCK):
                sims = cb @ tgt_grid[tlo : tlo + _TARGET_BLOCK].T
                np.maximum(best, sims.max(axis=1), out=best)

    starts = range(0, n, _CAND_BLOCK)
    if threads > 1 and n > _CAND_BLOCK:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_block, starts))
    else:
        for lo in starts:
            _block(lo)
    result *= 1.0 / (_GRID * _GRID)
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
    similarity to the selected set one committed batch at a time; `rows`
    and `batch` are `to_grid` output.
    """
    np.maximum(
        running, max_similarity(rows, batch, threads=threads, on_grid=True), out=running
    )


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


def _view_scorer(views, weights: FusionWeights, target_sets, *, threads: int):
    """`score(name)`: each target set's max similarity in view `name`, a (sets, N) array.

    `target_sets(name)` lists the view's target matrices. Views are scored
    only when `FusionWeights.fuse` asks, and must all have N rows.
    """
    n = _as_matrix(views[weights.names[0]]).shape[0]

    def score(name: str) -> np.ndarray:
        mat = _as_matrix(views[name])
        if mat.shape[0] != n:
            raise DimensionMismatch(
                f"view {name!r} has {mat.shape[0]} rows, expected {n}"
            )
        return _max_similarity_sets(mat, target_sets(name), threads=threads)

    return score


def relevance_fused(
    views: Mapping[str, EmbeddingView | np.ndarray],
    targets: Mapping[str, np.ndarray],
    weights: FusionWeights,
    *,
    threads: int = 1,
) -> np.ndarray:
    """Weighted sum over views of per-view max cosine to the targets."""
    _check_views(views, targets, weights)
    score = _view_scorer(views, weights, lambda name: [targets[name]], threads=threads)
    return weights.fuse(score)[0]


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
    all target rows bit for bit, because the kernel is exact: a
    candidate scores by its best match anywhere. Mean mode averages the
    per-dataset fused scores (the weighted sum distributes over the
    average, so fusing before or after the mean is the same), favoring
    candidates useful across domains.
    Mean never exceeds max for any candidate.
    """
    if not targets.datasets:
        raise EmptyTargetSet("target set has no datasets")
    for ds in targets.datasets:
        _check_views(views, ds.views, weights)
    score = _view_scorer(
        views, weights, lambda name: [ds.views[name] for ds in targets.datasets], threads=threads
    )
    if mode is AggregationMode.MAX:
        return weights.fuse(lambda name: score(name).max(axis=0))
    return weights.fuse(score).mean(axis=0)
