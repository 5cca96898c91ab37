"""Similarity and relevance scoring.

A candidate's relevance to a target dataset is its maximum cosine
similarity to any target row. With several embedding views the per-view
maxima are combined by a weighted sum (late fusion); with several target
datasets the fused scores are aggregated by max or mean. The diversity
penalty is the mirror image: each view's maximum similarity to the
already-selected set, fused with the same weights. One exact kernel
scores both: `max_similarity`, and `update_running_max`, which scores
on it only the pairs a float32 screen cannot rule out.
`FusionWeights.fuse` is the only place views are combined. Views are checked once on the way to the
kernel: `weighted_views` gives each weighted view's candidate matrix and
`weighted_targets` its per-dataset target matrices, and relevance, its
bounds and both selectors take their matrices from them. A single
target dataset is a one-dataset `TargetSet`.

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
(2.4e-7 at D = 256).

Candidates are scored in tiles of at most 2,048 candidate rows by 4,096
target rows, and each tile is reduced to its row max before the next
GEMM, so no more than one tile of scores (64 MB in float64, 32 MB in
float32) exists at a time and the full candidate-by-target matrix is
never materialized. The BLAS library parallelises each GEMM itself;
`blas_threads` scopes how many threads it may use, and the exact
kernel's scores do not depend on that count.

The same blocked loop also runs a float32 GEMM, the screen behind
`relevance_bounds`. For any summation order, blocking or FMA use, a
float32 dot product of D terms is within gamma_D * |x| |y| of the exact
one, gamma_D = D u / (1 - D u) with u = 2^-24 (Higham, *Accuracy and
Stability of Numerical Algorithms*, section 3.1), and the grid rounding
moves a score by at most 2^-27 sqrt(D) (|x| + |y|) + D 2^-54. With c and
t the largest candidate and target row norms, the exact kernel's score
therefore lies within

    eps = gamma_D c t + 2^-27 sqrt(D) (c + t) + D 2^-54

of the float32 row max (plus the float32 cast error of inputs that are
not float32, and a slack term for underflow and float64 rounding). The
bounds a - eps and a + eps are rounded outward in float64 and clipped
like the kernel's scores, and fusion and aggregation are monotone under
round-to-nearest, so the fused bounds hold bit for bit. The selector
scores exactly only the rows whose upper bound can reach its pool
(Rump's filter, then certify).

The running max is screened the same way, tile by tile. A row whose
float32 max a cannot beat its running max even at a + eps (rounded up
and clipped) is left alone. For the others only the pairs scoring at
least a - 2 eps in float32 (rounded down) are scored exactly, as dot
products of grid rows (integer sums below 2^53, exact in any order).
The exact argmax is among them: its float32 score is at least the
exact max minus eps, and that max is at least a - eps.
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
from corpus_select.store import TargetSet

_TILE_ROWS = 2048  # candidate rows per score tile
_TILE_TARGETS = 4096  # target rows per score tile
_GRID = 2.0**26
_SCREEN_MAX_NORM = 2.0**40  # beyond this the float32 screen could overflow
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
    `max_similarity(a, b)` equals `max_similarity(to_grid(a), to_grid(b),
    on_grid=True)` bit for bit.
    """
    grid = np.array(values, dtype=np.float64)
    grid *= _GRID / scale
    np.rint(grid, out=grid)
    return grid


def max_similarity(candidates: np.ndarray, targets: np.ndarray, *, on_grid: bool = False) -> np.ndarray:
    """Per-candidate maximum dot product against the target rows.

    Returns a float64 vector of length N, clipped to [-1, 1]. This is the
    one similarity kernel (`_max_similarity_sets` with one target set):
    relevance, the selector's seed and the exact-greedy oracle score
    through it, and the running max folds in its scores. Both operands
    are rounded with `to_grid` first, so the result is exact for the
    rounded rows; `on_grid=True` says both already are `to_grid` output
    (the exact-greedy selector rounds its views once, not once per pick).
    """
    return _max_similarity_sets(candidates, [targets], on_grid=on_grid)[0]


def _checked(candidates, target_sets) -> tuple[np.ndarray, list[np.ndarray]]:
    cands = np.asarray(candidates)
    sets = [np.asarray(t) for t in target_sets]
    for tgts in sets:
        if tgts.ndim != 2 or tgts.shape[0] == 0:
            raise EmptyTargets("target matrix has no rows")
        if cands.shape[1] != tgts.shape[1]:
            raise DimensionMismatch(
                f"candidates have {cands.shape[1]} dims, targets {tgts.shape[1]}"
            )
    return cands, sets


def _blocked_max(n: int, tile_rows, sets: list[np.ndarray], screen=None) -> np.ndarray:
    """Per-candidate max of `tile_rows(lo, hi) @ targets.T` for each target matrix: (sets, n).

    `tile_rows(lo, hi)` gives candidate rows lo:hi in the dtype of the
    target matrices, which is the dtype of the GEMM and of the result.
    Each tile is reduced into the result, and handed with its row max and
    its first candidate and target row to `screen(sims, a, clo, tlo)`
    when given, before the next GEMM writes the same buffer.
    """
    dtype = sets[0].dtype
    result = np.empty((len(sets), n), dtype=dtype)
    width = min(_TILE_TARGETS, max(t.shape[0] for t in sets))
    buf = np.empty(min(_TILE_ROWS, n) * width, dtype=dtype)
    for clo in range(0, n, _TILE_ROWS):
        cb = tile_rows(clo, min(clo + _TILE_ROWS, n))
        for best, tgts in zip(result[:, clo : clo + cb.shape[0]], sets):
            for tlo in range(0, tgts.shape[0], _TILE_TARGETS):
                tt = tgts[tlo : tlo + _TILE_TARGETS]
                sims = buf[: cb.shape[0] * tt.shape[0]].reshape(cb.shape[0], tt.shape[0])
                np.matmul(cb, tt.T, out=sims)
                a = sims.max(axis=1, out=best if tlo == 0 else None)
                if tlo:
                    np.maximum(best, a, out=best)
                if screen is not None:
                    screen(sims, a, clo, tlo)
    return result


def _max_similarity_sets(candidates, target_sets, *, on_grid: bool = False):
    """`max_similarity` against each target set: a (sets, N) array.

    Each candidate tile is rounded once for all sets, so every further
    target dataset adds only its GEMMs.
    """
    cands, sets = _checked(candidates, target_sets)
    if on_grid:
        rows, grids = (lambda lo, hi: cands[lo:hi]), sets
    else:
        rows, grids = (lambda lo, hi: to_grid(cands[lo:hi])), [to_grid(t) for t in sets]
    result = _blocked_max(cands.shape[0], rows, grids)
    result *= 1.0 / (_GRID * _GRID)
    np.clip(result, -1.0, 1.0, out=result)
    return result


def _max_norm(mat: np.ndarray) -> float:
    return math.sqrt(np.einsum("ij,ij->i", mat, mat, dtype=np.float64).max(initial=0.0))


def _screen_eps(d: int, c: float, t: float, casts: int) -> float:
    """How far a float32 GEMM score may be from the kernel's (module docstring).

    c and t bound the row norms of the two operands, and `casts` counts
    those that are not float32. inf where the float32 GEMM could overflow.
    """
    if not (c <= _SCREEN_MAX_NORM and t <= _SCREEN_MAX_NORM):
        return math.inf
    gamma = d * 2.0**-24 / (1.0 - d * 2.0**-24)
    eps = gamma * c * t + 2.0**-27 * math.sqrt(d) * (c + t) + d * 2.0**-54
    # inputs that are not float32 are cast: at most 2^-24 c t per side,
    # doubled to cover what the cast does to the norms in the terms above
    eps += 2.0**-23 * c * t * casts
    # underflow in the float32 GEMM, and float64 rounding in the kernel and in eps
    return eps + d * 2.0**-50 * (1.0 + c) * (1.0 + t)


def running_max_eps(pool: np.ndarray) -> float:
    """`update_running_max`'s `eps` for rows of `pool` against rows of `pool`."""
    c = _max_norm(pool)
    return _screen_eps(pool.shape[1], c, c, 2 * (pool.dtype != np.float32))


def _as_float32(mat: np.ndarray) -> np.ndarray:
    return np.asarray(mat, dtype=np.float32)


def _similarity_bounds(candidates, target_sets) -> np.ndarray:
    """Certified bounds on `_max_similarity_sets(candidates, target_sets)`: (2, sets, N).

    `[0]` is a lower and `[1]` an upper bound, both float64 and clipped to
    [-1, 1], computed from one float32 GEMM per tile and `_screen_eps`.
    """
    cands, sets = _checked(candidates, target_sets)
    n, d = cands.shape
    approx = _blocked_max(n, lambda lo, hi: _as_float32(cands[lo:hi]), [_as_float32(t) for t in sets])
    c = _max_norm(cands)
    bounds = np.empty((2, len(sets), n), dtype=np.float64)
    for j, tgts in enumerate(sets):
        eps = _screen_eps(d, c, _max_norm(tgts), (cands.dtype != np.float32) + (tgts.dtype != np.float32))
        if eps == math.inf:
            bounds[0, j], bounds[1, j] = -1.0, 1.0
            continue
        a = approx[j].astype(np.float64)
        bounds[0, j] = np.nextafter(a - eps, -np.inf)
        bounds[1, j] = np.nextafter(a + eps, np.inf)
    np.clip(bounds, -1.0, 1.0, out=bounds)
    return bounds


def update_running_max(rows: np.ndarray, batch: np.ndarray, running: np.ndarray, *, eps: float) -> None:
    """Fold max similarity against `batch` into `running`, in place.

    Used by the batched selector to extend each candidate's maximum
    similarity to the selected set one commit segment at a time.
    `running` ends bit for bit as `np.maximum(running, max_similarity(rows,
    batch))` would leave it, but only the pairs that the float32 screen of
    the module docstring, with `eps` from `running_max_eps`, cannot rule
    out are scored exactly, then scaled and clipped as the kernel does.
    """

    def certify(sims, a, clo, tlo):
        run = running[clo : clo + a.size]
        a = a.astype(np.float64)
        live = np.flatnonzero(np.clip(np.nextafter(a + eps, np.inf), -1.0, 1.0) >= run)
        if not live.size:
            return
        # a - 2 eps rounded down, then down again to float32
        floor = np.nextafter(a[live] - 2.0 * eps, -np.inf).astype(np.float32)
        floor = np.nextafter(floor, np.float32(-np.inf))
        i, j = np.divmod(np.flatnonzero(sims[live] >= floor[:, None]), sims.shape[1])
        exact = np.empty(i.size)
        for lo in range(0, i.size, _PAIR_CHUNK):
            pi, pj = clo + live[i[lo : lo + _PAIR_CHUNK]], tlo + j[lo : lo + _PAIR_CHUNK]
            exact[lo : lo + _PAIR_CHUNK] = np.einsum("ij,ij->i", to_grid(rows[pi]), to_grid(batch[pj]))
        exact *= 1.0 / (_GRID * _GRID)
        np.clip(exact, -1.0, 1.0, out=exact)
        first = np.flatnonzero(np.diff(i, prepend=-1))
        hit = live[i[first]]
        run[hit] = np.maximum(run[hit], np.maximum.reduceat(exact, first))

    _blocked_max(rows.shape[0], lambda lo, hi: _as_float32(rows[lo:hi]), [_as_float32(batch)], certify)


def weighted_views(
    views: Mapping[str, np.ndarray], weights: FusionWeights, n: int | None = None
) -> dict[str, np.ndarray]:
    """Each weighted view's candidate matrix, in weight order.

    The one check on views before the kernel: every weighted view must be
    present, and all must have the same row count, `n` when given.
    """
    mats = {}
    for name in weights.names:
        if name not in views:
            raise MissingView(f"candidates are missing weighted view {name!r}")
        mats[name] = mat = views[name]
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
    mats, sets = weighted_views(views, weights), weighted_targets(targets, weights)
    return _aggregate(weights, mode, lambda name: _max_similarity_sets(mats[name], sets[name]))


def relevance_bounds(
    views: Mapping[str, np.ndarray],
    targets: TargetSet,
    weights: FusionWeights,
    mode: AggregationMode = AggregationMode.MAX,
) -> tuple[np.ndarray, np.ndarray]:
    """Certified (lo, hi) with lo <= `relevance_multi_dataset(...)` <= hi, bit for bit.

    Each view is screened once with a float32 GEMM (`_similarity_bounds`),
    and its lower and upper bounds go through the same fusion and
    aggregation as the exact scores.
    """
    mats, sets = weighted_views(views, weights), weighted_targets(targets, weights)
    bounds = {name: _similarity_bounds(mats[name], sets[name]) for name in mats}
    lo = _aggregate(weights, mode, lambda name: bounds[name][0])
    hi = _aggregate(weights, mode, lambda name: bounds[name][1])
    return lo, hi
