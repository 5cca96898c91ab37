"""Similarity and relevance scoring.

A candidate's relevance to a target dataset is its maximum cosine
similarity to any target row. With several embedding views the per-view
maxima are combined by a weighted sum (late fusion); with several target
datasets the fused scores are aggregated by max or mean. The diversity
penalty is the mirror image: each view's maximum similarity to the
already-selected set, fused with the same weights. `FusionWeights.fuse`
is the only place views are combined, always in view-name order, so the
order in which a caller lists the views does not change a score bit.

Relevance, its bounds and both selectors take their matrices from
`weighted_views` and `weighted_targets`; one call may run them more than
once. They check that every weighted view is present and that the
candidate views agree on their row count, and cast candidate matrices to
float32. A single target dataset is a one-dataset `TargetSet`.

Rows are float32 and unit (or zero) by `store`'s one unit rule, a
float64 norm within `_UNIT_TOL` (1e-4) of 1 or 0, so cosine is a plain
dot product and a zero row scores 0 against everything. The rule is
checked where rows are scored: a `store.ViewFile`'s blocks by the
reader, an in-memory view by `relevance_bounds`, the rows
`max_similarity` scores (at `rows=` too), the targets by
`_checked_targets`, and the blocks `projection.project_view` takes; any
other row, NaN rows included, raises NonUnitRow naming it. Candidates
are cast to float32 where they enter (`weighted_views`,
`max_similarity`, `update_running_max`), as `TargetDataset` casts
targets, so rows of any other dtype score as their float32 cast. A score
is exact on a grid: both rows are rounded to integers at scale 2^26
(`to_grid`, a grid of step 2^-26), and their dot product is an integer
sum. For rows of norm at most c and t, every product and partial sum is
below (2^26 c + sqrt(D)/2) (2^26 t + sqrt(D)/2) (Cauchy-Schwarz), and
while that is under 2^53 the float64 sum is exact in any order: it does
not depend on summation order, FMA use, the BLAS kernel or the thread
count. Unit rows, c = t = 1 + `_UNIT_TOL`, are far inside that. The
price is a score error of about sqrt(D) * 2^-26 at most against the
unrounded rows (2.4e-7 at D = 256).

One blocked loop (`_blocked_max`) runs a float32 GEMM, the screen, in
tiles of at most 2,048 candidate rows by 4,096 target rows; each tile is
reduced to its row max before the next GEMM, so no more than one tile of
scores (32 MB) exists at a time and the full candidate-by-target matrix
is never materialized. The BLAS library parallelises each GEMM itself;
`blas_threads` scopes how many threads it may use. For any summation
order, blocking or FMA use, a float32 dot product of D terms is within
gamma_D * |x| |y| of the exact one, gamma_D = D u / (1 - D u) with
u = 2^-24 (Higham, *Accuracy and Stability of Numerical Algorithms*,
section 3.1), and the grid rounding moves a score by at most
2^-27 sqrt(D) (|x| + |y|) + D 2^-54. Every scored row has norm at most
c = t = 1 + `_UNIT_TOL`, so the exact score lies within

    eps = gamma_D c t + 2^-27 sqrt(D) (c + t) + D 2^-54

of the float32 row max (plus a slack term for underflow and float64
rounding, which also covers the rounding of the unit check's norms).
eps is a constant of D (`_screen_eps`); no row norm is measured for it.

`relevance_bounds` widens the screen's row max by eps: the bounds a - eps
and a + eps are rounded outward in float64 and clipped like exact
scores, and fusion and aggregation are monotone under round-to-nearest,
so the fused bounds hold bit for bit. A view given as a `store.ViewFile`
is read, checked and normalized by its screen a block at a time and
never held whole, and an in-memory matrix is one block. The selector
scores exactly only the rows whose upper bound can reach its pool
(Rump's filter), with `relevance_multi_dataset(..., rows=)`.

One rule scores exactly, `update_running_max`: a target set is folded
into a running max tile by tile. A row whose float32 max a cannot beat
its running max even at a + eps (rounded up and clipped) is left alone.
For the others only the pairs scoring at least a - 2 eps in float32
(rounded down) are scored exactly, as dot products of grid rows. The
exact argmax is among them: its float32 score is at least the exact max
minus eps, and that max is at least a - eps. Every exact score is this
fold: `max_similarity`, and relevance through it, fold a target set
from -inf, and the selector's running max folds in each commit segment.
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import glob
import math
import os
from dataclasses import dataclass
from functools import cache
from typing import Callable, Mapping, Sequence

import numpy as np

from corpus_select.errors import DimensionMismatch, EmptyTargets, EmptyTargetSet, MissingView
from corpus_select.store import _UNIT_TOL, TargetSet, ViewFile, _check_unit

_TILE_ROWS = 2048  # candidate rows per score tile
_TILE_TARGETS = 4096  # target rows per score tile
_GRID = 2.0**26
_PAIR_CHUNK = 256  # pairs scored exactly at a time: small temporaries stay in cache
_OPENBLAS_CALLS = ("get_num_threads", "set_num_threads", "get_corename")


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
    """Nonnegative per-view weights, stored normalized to sum to 1 and sorted by view name.

    Normalizing keeps the MMR trade-off comparable across view counts and
    makes the weights scale-invariant: multiplying all raw weights by any
    c > 0 yields the same FusionWeights. Views of weight 0 are dropped, so
    `names` lists only the views that are loaded, scored and tracked, in
    name order: fusion and every loop over views follow it, whatever
    order the caller gave.
    """

    weights: Mapping[str, float]

    def __post_init__(self):
        items = dict(sorted(self.weights.items()))
        if not items:
            raise ValueError("at least one fusion weight is required")
        for name, w in items.items():
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"weight for view {name!r} must be finite and >= 0, got {w}")
        total = sum(items.values())
        if total <= 0:
            raise ValueError("at least one fusion weight must be positive")
        if not np.isfinite(total):  # each share w / inf would be 0 and dropped
            raise ValueError(f"the fusion weights must sum to a finite number, got {total}")
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

        Views are visited in name order, so every caller sums the same
        terms in the same order.
        """
        total = 0.0
        for name, w in self.weights.items():
            total = total + w * score(name)
        return np.clip(total, -1.0, 1.0)


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS with its thread and core-name calls typed, or None if absent."""
    libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")))
    try:
        lib = ctypes.CDLL(libs[0])
        get, put, core = (getattr(lib, f"scipy_openblas_{c}64_") for c in _OPENBLAS_CALLS)
    except (IndexError, OSError, AttributeError):  # no such library, or one without these calls
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    core.argtypes, core.restype = [], ctypes.c_char_p
    return lib


def blas_corename() -> str | None:
    """The OpenBLAS kernel numpy runs on (such as "SkylakeX"), or None if not found."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_corename64_().decode("ascii", "replace")


def blas_thread_cap(threads: int) -> int | None:
    """The BLAS thread count `blas_threads(threads)` sets, or None where it sets none."""
    return None if _openblas() is None else min(threads, available_cpus())


@contextlib.contextmanager
def blas_threads(threads: int):
    """Run the block with numpy's OpenBLAS on `blas_thread_cap(threads)` threads.

    The count is process-wide; the previous one comes back on exit, also
    when the block raises. Where the OpenBLAS calls are not found the
    count is left as it is.
    """
    lib = _openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(blas_thread_cap(threads))
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def to_grid(values, scale: float = 1.0) -> np.ndarray:
    """`values` rounded onto the exact-product grid, as float64 integers.

    Returns rint(values * 2^26 / scale). `scale` must be a power of two,
    so that scaling is exact, and no less than the largest row (or
    column) norm, so that products of two such operands stay exact; unit
    rows use scale 1.
    """
    grid = np.array(values, dtype=np.float64)
    grid *= _GRID / scale
    np.rint(grid, out=grid)
    return grid


def max_similarity(candidates, targets, *, rows=None) -> np.ndarray:
    """Per-candidate maximum dot product against the target rows, exact on the grid.

    Returns a float64 vector of length N, clipped to [-1, 1]: the running
    max folded from -inf by `update_running_max`. Relevance, the selector's
    seed and the exact-greedy oracle score through it. Given `rows`, it scores
    the candidate rows at those indices, read a tile at a time. A target or
    scored row that is not unit (or zero) raises NonUnitRow.
    """
    cands = np.asarray(candidates, np.float32)
    (tgts,) = _checked_targets(cands.shape[1], [targets])
    _check_unit(cands, "candidate", rows)
    out = np.full(cands.shape[0] if rows is None else rows.size, -np.inf)
    update_running_max(cands, tgts, out, rows=rows)
    return out


def _checked_targets(d: int, target_sets) -> list[np.ndarray]:
    """The target matrices as float32, each nonempty 2-D with the candidates' `d` columns and unit (or zero) rows."""
    sets = [np.asarray(t, np.float32) for t in target_sets]
    for tgts in sets:
        if tgts.ndim != 2 or tgts.shape[0] == 0:
            raise EmptyTargets("target matrix has no rows")
        if d != tgts.shape[1]:
            raise DimensionMismatch(f"candidates have {d} dims, targets {tgts.shape[1]}")
        _check_unit(tgts, "target")
    return sets


def _blocked_max(cands: np.ndarray, rows, sets: list[np.ndarray], reduce=None) -> np.ndarray:
    """Per-candidate float32 max of `cands[rows] @ targets.T` for each target matrix: (sets, n).

    The candidates are the float32 rows of `cands`, or those at `rows`,
    and the target matrices are float32. Each tile's row max is
    `sims.max(axis=1)`, or `reduce(sims, clo, tlo)` when given: `sims` is
    the tile whose first candidate and target rows are clo and tlo.
    """
    n = cands.shape[0] if rows is None else rows.size
    result = np.full((len(sets), n), -np.inf, dtype=np.float32)
    width = min(_TILE_TARGETS, max(t.shape[0] for t in sets))
    buf = np.empty(min(_TILE_ROWS, n) * width, dtype=np.float32)
    for clo in range(0, n, _TILE_ROWS):
        part = slice(clo, min(clo + _TILE_ROWS, n))
        cb = cands[part if rows is None else rows[part]]
        for best, tgts in zip(result[:, part], sets):
            for tlo in range(0, tgts.shape[0], _TILE_TARGETS):
                tt = tgts[tlo : tlo + _TILE_TARGETS]
                sims = buf[: cb.shape[0] * tt.shape[0]].reshape(cb.shape[0], tt.shape[0])
                np.matmul(cb, tt.T, out=sims)
                a = sims.max(axis=1) if reduce is None else reduce(sims, clo, tlo)
                np.maximum(best, a, out=best)
    return result


def _screen_eps(d: int) -> float:
    """How far a float32 GEMM score of two unit (or zero) rows of `d` dims
    may be from the exact one: the module docstring's eps at c = t = 1 + `_UNIT_TOL`."""
    c = t = 1.0 + _UNIT_TOL
    gamma = d * 2.0**-24 / (1.0 - d * 2.0**-24)
    eps = gamma * c * t + 2.0**-27 * math.sqrt(d) * (c + t) + d * 2.0**-54
    # underflow in the float32 GEMM, and float64 rounding in the fold, in eps and in the unit check
    return eps + d * 2.0**-50 * (1.0 + c) * (1.0 + t)


def _floor32(a: np.ndarray, eps: float) -> np.ndarray:
    """a - 2 eps rounded down, then down again to float32: a float32 score
    below it is exactly below a - eps."""
    floor = np.nextafter(np.asarray(a, dtype=np.float64) - 2.0 * eps, -np.inf).astype(np.float32)
    return np.nextafter(floor, np.float32(-np.inf))


def _grid_dots(x: np.ndarray, xi: np.ndarray, y: np.ndarray, yi: np.ndarray) -> np.ndarray:
    """The exact score of each pair (x[xi[k]], y[yi[k]]): a dot product of grid rows
    (an integer sum below 2^53, exact in any order), scaled and clipped."""
    out = np.empty(xi.size)
    for lo in range(0, xi.size, _PAIR_CHUNK):
        part = slice(lo, lo + _PAIR_CHUNK)
        out[part] = np.einsum("ij,ij->i", to_grid(x[xi[part]]), to_grid(y[yi[part]]))
    out *= 1.0 / (_GRID * _GRID)
    np.clip(out, -1.0, 1.0, out=out)
    return out


def update_running_max(cands: np.ndarray, tgts: np.ndarray, running: np.ndarray, *, rows=None) -> None:
    """Fold each candidate's exact max similarity against `tgts` into `running`, in place.

    The candidates are the rows of `cands`, or those at `rows`, read a
    tile at a time; both operands are cast to float32, and are unit (or
    zero) as their caller checked. `running` ends bit for bit as
    `np.maximum(running, max_similarity(cands, tgts, rows=rows))` would
    leave it: only the pairs that the float32 screen cannot rule out by
    `_screen_eps(D)` are scored exactly (module docstring). The batched
    selector folds in each commit segment with it; `max_similarity` from -inf.
    """
    cands, tgts = np.asarray(cands, np.float32), np.asarray(tgts, np.float32)
    at, eps = ((lambda k: k) if rows is None else rows.__getitem__), _screen_eps(cands.shape[1])

    def reduce(sims, clo, tlo):
        a = sims.max(axis=1)
        run = running[clo : clo + a.size]
        live = np.flatnonzero(np.clip(np.nextafter(a.astype(np.float64) + eps, np.inf), -1.0, 1.0) >= run)
        if live.size:
            part = sims if live.size == a.size else sims[live]  # every row is live from -inf: no gather
            i, k = np.divmod(np.flatnonzero(part >= _floor32(a[live], eps)[:, None]), sims.shape[1])
            i = live[i]
            exact = _grid_dots(cands, at(clo + i), tgts, tlo + k)
            first = np.flatnonzero(np.diff(i, prepend=-1))
            run[i[first]] = np.maximum(run[i[first]], np.maximum.reduceat(exact, first))
        return a

    _blocked_max(cands, rows, [tgts], reduce)


def weighted_views(
    views: Mapping[str, np.ndarray | ViewFile], weights: FusionWeights, n: int | None = None
) -> dict[str, np.ndarray | ViewFile]:
    """Each weighted view's candidate matrix, or its file, in view-name order.

    The one check on views before scoring: every weighted view must be
    present, and all must have the same row count, `n` when given. Each
    matrix is cast to float32 (a float32 one is taken as it is); a
    `store.ViewFile` is taken as it is, and its rows are checked as they
    are read.
    """
    mats = {}
    for name in weights.names:
        if name not in views:
            raise MissingView(f"candidates are missing weighted view {name!r}")
        view = views[name]
        mats[name] = mat = view if isinstance(view, ViewFile) else np.asarray(view, np.float32)
        n = mat.shape[0] if n is None else n
        if mat.shape[0] != n:
            raise DimensionMismatch(f"view {name!r} has {mat.shape[0]} rows, expected {n}")
    return mats


def weighted_targets(targets: TargetSet, weights: FusionWeights) -> dict[str, list[np.ndarray]]:
    """Each weighted view's target matrices, one per dataset in dataset order."""
    if not targets.datasets:
        raise EmptyTargetSet("target set has no datasets")
    for ds in targets.datasets:
        for name in weights.names:
            if name not in ds.views:
                raise MissingView(f"targets are missing weighted view {name!r}")
    return {name: [ds.views[name] for ds in targets.datasets] for name in weights.names}


def _aggregate(weights: FusionWeights, mode: AggregationMode, score) -> np.ndarray:
    """Fuse per-view (sets, N) scores and aggregate them over the target sets.

    Max takes each view's max over the sets before fusing; mean adds the
    fused per-set scores in set order, then divides by the set count.
    Every step is monotone under round-to-nearest, so bounds on `score`
    come out as bounds on the result.
    """
    if mode is AggregationMode.MAX:
        return weights.fuse(lambda name: score(name).max(axis=0))
    fused = weights.fuse(score)
    total = fused[0]
    for row in fused[1:]:
        total = total + row
    return total / len(fused)


def relevance_multi_dataset(
    views: Mapping[str, np.ndarray],
    targets: TargetSet,
    weights: FusionWeights,
    mode: AggregationMode = AggregationMode.MAX,
    *,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Aggregate fused relevance over target datasets by max or mean.

    Each view scores the candidates, or those at `rows` (read by index),
    with `max_similarity` against each dataset. Max mode takes each
    view's maximum across the datasets before fusing, which equals fused
    relevance over the union of all target rows bit for bit, because
    scores are exact: a candidate scores by its best match anywhere. Mean
    mode averages the per-dataset fused scores (the weighted sum
    distributes over the average, so fusing before or after the mean is
    the same), favoring candidates useful across domains. Mean never
    exceeds max for any candidate.
    """
    mats, sets = weighted_views(views, weights), weighted_targets(targets, weights)
    return _aggregate(
        weights, mode, lambda name: np.array([max_similarity(mats[name], t, rows=rows) for t in sets[name]])
    )


def relevance_bounds(
    views: Mapping[str, np.ndarray | ViewFile],
    targets: TargetSet,
    weights: FusionWeights,
    mode: AggregationMode = AggregationMode.MAX,
) -> tuple[np.ndarray, np.ndarray]:
    """Certified (lo, hi) with lo <= `relevance_multi_dataset(...)` <= hi, bit for bit.

    Each view is screened once with a float32 GEMM per tile, a block of
    rows at a time: a `store.ViewFile`'s blocks (read, checked and
    normalized here), or an in-memory matrix, checked unit here, as one
    block. Each row's max a against each target set, widened to a -/+ the
    `_screen_eps` of D (rounded outward and clipped to [-1, 1]), goes
    through the same fusion and aggregation as the exact scores. Only
    these bounds are kept.
    """
    mats, sets = weighted_views(views, weights), weighted_targets(targets, weights)
    bounds = {}
    for name, mat in mats.items():
        (n, d), tsets = mat.shape, _checked_targets(mat.shape[1], sets[name])
        eps = _screen_eps(d)
        b = bounds[name] = np.empty((2, len(tsets), n))
        if not isinstance(mat, ViewFile):
            _check_unit(mat, f"view {name!r}")
        # a file is read, checked and normalized a block at a time; a matrix is one block
        for lo, block in mat.blocks() if isinstance(mat, ViewFile) else [(0, mat)]:
            part = slice(lo, lo + block.shape[0])
            a = _blocked_max(block, None, tsets).astype(np.float64)
            np.nextafter(a - eps, -np.inf, out=b[0, :, part])
            np.nextafter(a + eps, np.inf, out=b[1, :, part])
        np.clip(b, -1.0, 1.0, out=b)
    lo = _aggregate(weights, mode, lambda name: bounds[name][0])
    hi = _aggregate(weights, mode, lambda name: bounds[name][1])
    return lo, hi
