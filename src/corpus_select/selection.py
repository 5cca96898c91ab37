"""Duration-budgeted subset selectors.

`batched_mmr` is the production selector: it prefilters candidates to the
top ceil(rho*N) by relevance (scoring exactly, by index, only the rows
that certified float32 bounds leave in reach of that pool), seeds the
selection with the most relevant candidate, then repeatedly commits the
top B remaining candidates by MMR score m_i = lam*r_i - (1-lam)*v_i
until the selected duration reaches the budget T = alpha * total
duration. The diversity penalty v_i counts only candidates committed in
*previous* rounds, so diversity inside a committed batch is deliberately
not enforced; with B=1 and rho=1 the procedure reduces exactly to greedy
MMR.

Rounds refresh lazily: the accelerated greedy of Minoux (1978), also
known as CELF (Leskovec et al., 2007), applied to MMR. v only grows as
batches commit, so a candidate's stale MMR score is an upper bound on
its exact one, bit for bit: the running max is a max over exact grid dot
products, and the 2^-52 scale, the fusion sum and clip and
lam*r - (1-lam)*v are all monotone under round-to-nearest. Each round
refreshes in stale order until the top B by current key are all fresh,
2B first, then doubling; those B are then the top B by exact key, since
every stale candidate ranks below them at its bound. The head is found
by argpartition, widened to every candidate tied with the boundary key,
then a sort of the head alone. A refresh folds in only the rows
committed since the candidate's last one, one commit segment (the rows
committed between two stamps) per call over every candidate stamped
before it, from a commit-order buffer; committed rows are never
refreshed again. Picks and score bits are those of refreshing the whole
pool every round.

`batched_mmr` takes each view as an in-memory matrix or as a
`store.ViewFile`, as `cli select` passes them, on one code path. The
prefilter's screen reads a file a block of rows at a time (checking and
normalizing each block) and keeps only per-row bounds. After the cut,
in-memory views are read in place, by index, and never copied; once any
view is a file, the survivors of each view are gathered once, by
offset, into one matrix. That gather is the only branch: the exact
step, the seed, the running max and the commit buffer then index the
survivors' rows wherever they are.

`greedy_mmr_exact` is the reference selector for tests: no prefilter, no
batching, and v_i recomputed from scratch against the full selected set
at every step, with the unselected rows read from the views by index.

Both MMR selectors take their view matrices from
`relevance.weighted_views`, with weights uniform over the views unless
the config sets them, in view-name order: a weighted view missing from `views`
raises MissingView, and one whose row count is not the candidate count
(the durations' for `batched_mmr`, the relevance vector's for
`greedy_mmr_exact`) raises DimensionMismatch.

`random_baseline` and `duration_baseline` fill the same budget with a
seeded shuffle and with a target-duration-distribution match. Both are
one fill (`_fill`) of seeded per-bin shuffles: the random baseline is
its one-bin case.

Everything here is deterministic: ties break toward the lower candidate
index, the batched selector contains no randomness at all, and the
baselines draw from Philox streams. Every similarity is exact on the
grid: relevance, the seed's, the running max's and the oracle's are one
screened fold (`relevance.update_running_max`), which scores exactly
every pair its float32 screen cannot rule out. So scores, and hence
picks and output bytes, are bit-identical for any `threads` value, BLAS
kernel or CPU, and equal ties are real ties.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from corpus_select.errors import EmptyCorpus, EmptyTargets, NonPositiveDuration, SmallPoolWarning
from corpus_select.relevance import (
    AggregationMode,
    FusionWeights,
    blas_threads,
    max_similarity,
    relevance_bounds,
    relevance_multi_dataset,
    update_running_max,
    weighted_views,
)
from corpus_select.rng import generator
from corpus_select.store import TargetSet, ViewFile


@dataclass
class SelectionConfig:
    """Knobs of the batched selector.

    lam trades relevance (1.0) against diversity (0.0); alpha is the
    subset fraction of total duration; rho the prefilter fraction; weights
    default to uniform over the views in play. There is no seed: MMR
    selection has no randomness.
    """

    alpha: float
    lam: float = 0.7
    rho: float = 0.15
    batch_size: int = 1024
    weights: FusionWeights | None = None
    aggregation: AggregationMode = AggregationMode.MAX

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {self.rho}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class Pick:
    """One selected utterance with its scores at commit time."""

    rank: int
    index: int
    relevance: float
    diversity: float
    mmr: float
    cumulative_duration_s: float


@dataclass
class SelectionResult:
    picks: list[Pick]
    budget_s: float
    total_selected_s: float
    pool_size: int
    rounds: int
    exhausted: bool = False

    @property
    def indices(self) -> np.ndarray:
        return np.array([p.index for p in self.picks], dtype=np.int64)


def _ranked(indices: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Indices sorted by score descending, ties toward the lower index."""
    order = np.lexsort((indices, -scores))
    return indices[order]


def _budget(durations: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """The durations as float64 and the budget alpha * total duration.

    Each duration, and their total, must be positive and finite: else NonPositiveDuration
    names the first row that is not, or that takes the running total past float range."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    d = np.asarray(durations, dtype=np.float64)
    if d.shape[0] == 0:
        raise EmptyCorpus("no candidates to select from")
    with np.errstate(over="ignore", invalid="ignore"):
        if not (d > 0).all() or not math.isfinite(total := float(d.sum())):
            bad = np.flatnonzero(~(d > 0) | ~np.isfinite(np.cumsum(d)))
            row = int(bad[0]) if bad.size else d.size - 1  # the pairwise total overflowed, the running one not
            fault = NonPositiveDuration(float(d[row]), row)
            fault.args = (f"durations[{row}] is {d[row]}: each duration and their total must be positive and finite",)
            raise fault
    return d, alpha * total


def _prefilter(
    mats: Mapping[str, np.ndarray | ViewFile],
    targets: TargetSet,
    weights: FusionWeights,
    mode: AggregationMode,
    pool_size: int,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """The top `pool_size` rows by relevance, ranked, their relevance, and where their rows are.

    Only rows that can reach the pool are scored exactly. `cut` is the
    pool_size-th largest certified lower bound from `relevance_bounds`; a
    row whose upper bound is below it scores below at least pool_size
    rows, so the survivors with upper bound >= cut hold the whole pool,
    and `relevance_multi_dataset(..., rows=)` scores them by index. When
    the pool is every row, the cut is the smallest lower bound and every
    row survives. Relevance is exact per row, so the pool and its scores
    are those of scoring every row.

    The survivors' rows are the views' own when every view is in memory,
    and else one gathered matrix per view. Returns the pool, its
    relevance, those matrices, and the pool's rows in them.
    """
    lo, hi = relevance_bounds(mats, targets, weights, mode)
    cut = np.partition(lo, lo.size - pool_size)[lo.size - pool_size]
    rows = at = np.flatnonzero(hi >= cut)
    if any(isinstance(mat, ViewFile) for mat in mats.values()):
        mats = {name: mat[rows] for name, mat in mats.items()}
        at = np.arange(rows.size)
    r = relevance_multi_dataset(mats, targets, weights, mode, rows=at)
    # rows ascend, so ties still break toward the lower candidate index
    top = _ranked(np.arange(rows.size), r)[:pool_size]
    return rows[top], r[top], mats, at[top]


def greedy_mmr_exact(
    relevance: np.ndarray,
    views: Mapping[str, np.ndarray],
    durations: np.ndarray,
    cfg: SelectionConfig,
) -> SelectionResult:
    """Reference greedy MMR: full candidate pool, one pick per step.

    Seeds with the argmax-relevance candidate, then each step picks the
    unselected candidate maximizing lam*r_i - (1-lam)*v_i, recomputing
    v_i (fused max similarity to the whole selected set) from scratch
    with `max_similarity`, which reads the unselected rows by index.
    Stops once cumulative duration reaches alpha * total duration.
    """
    r = np.asarray(relevance, dtype=np.float64)
    d, budget = _budget(durations, cfg.alpha)
    n = r.shape[0]
    if d.shape[0] != n:
        raise ValueError(f"relevance has {n} entries but durations {d.shape[0]}")
    weights = cfg.weights or FusionWeights.uniform(views)
    mats = weighted_views(views, weights, n)

    all_idx = np.arange(n)
    seed_idx = int(_ranked(all_idx, r)[0])
    picks = [
        Pick(1, seed_idx, float(r[seed_idx]), 0.0, cfg.lam * float(r[seed_idx]), float(d[seed_idx]))
    ]
    selected = [seed_idx]
    selected_mask = np.zeros(n, dtype=bool)
    selected_mask[seed_idx] = True
    total = float(d[seed_idx])
    exhausted = False

    while total < budget:
        remaining = all_idx[~selected_mask]
        if remaining.size == 0:
            exhausted = True
            break
        v = weights.fuse(lambda name: max_similarity(mats[name], mats[name][selected], rows=remaining))
        m = cfg.lam * r[remaining] - (1.0 - cfg.lam) * v
        local = np.lexsort((remaining, -m))[0]
        idx = int(remaining[local])
        total += float(d[idx])
        picks.append(
            Pick(len(picks) + 1, idx, float(r[idx]), float(v[local]), float(m[local]), total)
        )
        selected.append(idx)
        selected_mask[idx] = True

    return SelectionResult(picks, budget, total, pool_size=n, rounds=len(picks) - 1, exhausted=exhausted)


def batched_mmr(
    durations: np.ndarray,
    views: Mapping[str, np.ndarray | ViewFile],
    targets: TargetSet,
    cfg: SelectionConfig,
    *,
    threads: int = 1,
) -> SelectionResult:
    """Batched greedy MMR selection with a relevance prefilter.

    Relevance is computed once up front (fused across views, aggregated
    across target datasets), exactly only for the rows that certified
    bounds leave in reach of the pool (`_prefilter`), and frozen; only
    the diversity penalty evolves as batches commit, tracked as a
    per-view running max that each new batch folds into. The seed pick
    counts toward the budget before the first round's budget test. BLAS
    runs on `threads` threads (`relevance.blas_threads`). A view may be a
    `store.ViewFile`: it is screened a block at a time and only its
    survivors are held (module docstring).
    """
    with blas_threads(threads):
        d, budget = _budget(durations, cfg.alpha)
        n = d.shape[0]
        weights = cfg.weights or FusionWeights.uniform(views)
        mats = weighted_views(views, weights, n)

        pool_size = min(n, max(1, math.ceil(cfg.rho * n)))
        # mats[name][at[k]] is the row of pool[k]
        pool, r_pool, mats, at = _prefilter(mats, targets, weights, cfg.aggregation, pool_size)
        expected_picks = math.ceil(cfg.alpha * n)
        if pool_size < 2 * expected_picks:
            warnings.warn(
                f"prefilter pool ({pool_size}) is below twice the expected pick "
                f"count ({expected_picks}); selection may exhaust it",
                SmallPoolWarning,
                stacklevel=2,
            )

        lam_r = cfg.lam * r_pool

        seed_pos = 0  # pool is sorted by (-relevance, index)
        seed_idx = int(pool[seed_pos])
        total = float(d[seed_idx])
        picks = [Pick(1, seed_idx, float(r_pool[0]), 0.0, cfg.lam * float(r_pool[0]), total)]
        committed = np.zeros(pool_size, dtype=bool)
        committed[seed_pos] = True

        # Committed rows in commit order, per view (pages are touched only as
        # rows commit). stamp[i] is how many of them are folded into
        # candidate i's per-view running max vmax; v and m are i's fused
        # diversity and MMR score as of that stamp.
        ncom = 1
        commits = {name: np.empty((pool_size, mat.shape[1]), dtype=mat.dtype) for name, mat in mats.items()}
        for name, mat in mats.items():
            commits[name][0] = mat[at[seed_pos]]
        stamp = np.full(pool_size, ncom, dtype=np.int64)
        vmax = {name: max_similarity(mat, mat[at[[seed_pos]]], rows=at) for name, mat in mats.items()}
        v = weights.fuse(vmax.__getitem__)
        m = lam_r - (1.0 - cfg.lam) * v

        def refresh(positions: np.ndarray) -> None:
            """Fold into each candidate the rows committed since its stamp.

            One call per commit segment (from a stale stamp to the next, the
            last to ncom) covers every stale row stamped at or before its start.
            """
            stale = positions[stamp[positions] < ncom]
            stale = stale[np.argsort(stamp[stale], kind="stable")]
            edges = np.append(stamp[stale], ncom)
            ends = np.flatnonzero(edges[1:] != edges[:-1]) + 1
            for name, mat in mats.items():
                sub, running = mat[at[stale]], vmax[name][stale]
                for k in ends:
                    batch = commits[name][edges[k - 1] : edges[k]]
                    update_running_max(sub[:k], batch, running[:k])
                vmax[name][stale] = running
            stamp[stale] = ncom
            v[stale] = weights.fuse(lambda name: vmax[name][stale])
            m[stale] = lam_r[stale] - (1.0 - cfg.lam) * v[stale]

        def stale_head(positions: np.ndarray, k: int) -> np.ndarray:
            """The first k of `positions` by current key (m descending, then pool index), in order.

            A round refreshes in stale order until the top B by current key
            are all fresh, 2B first, then doubling. argpartition finds the
            k-th largest key; every candidate tied with it stays in the head,
            so sorting the head alone orders it as sorting all would.
            """
            if k < positions.size:
                keys = m[positions]
                kth = keys[np.argpartition(-keys, k - 1)[k - 1]]
                positions = positions[keys >= kth]
            return positions[np.lexsort((pool[positions], -m[positions]))][:k]

        rounds = 0
        exhausted = False
        while total < budget:
            remaining = np.flatnonzero(~committed)
            if remaining.size == 0:
                exhausted = True
                break
            rounds += 1
            # CELF: stale keys are upper bounds, so a fresh top B by current
            # key is the top B by exact key.
            size = 2 * cfg.batch_size
            refresh(stale_head(remaining, size))
            while True:
                batch_pos = stale_head(remaining, cfg.batch_size)
                if np.all(stamp[batch_pos] == ncom):
                    break
                refresh(stale_head(remaining[stamp[remaining] < ncom], size))
                size *= 2

            for pos in batch_pos:
                idx = int(pool[pos])
                total += float(d[idx])
                picks.append(
                    Pick(len(picks) + 1, idx, float(r_pool[pos]), float(v[pos]), float(m[pos]), total)
                )
            committed[batch_pos] = True
            for name, mat in mats.items():
                commits[name][ncom : ncom + batch_pos.size] = mat[at[batch_pos]]
            ncom += batch_pos.size

        return SelectionResult(picks, budget, total, pool_size=pool_size, rounds=rounds, exhausted=exhausted)


def random_baseline(durations: np.ndarray, alpha: float, seed: int) -> SelectionResult:
    """Seeded uniform shuffle, taking the prefix that fills the budget.

    This is `duration_baseline`'s fill with one bin, which holds every row.
    """
    d, budget = _budget(durations, alpha)
    return _fill(d, budget, np.zeros(d.shape[0], dtype=np.int64), np.ones(1), seed)


def duration_baseline(
    durations: np.ndarray,
    target_durations: Sequence[float] | np.ndarray,
    alpha: float,
    seed: int,
    bins: int = 20,
) -> SelectionResult:
    """Fill the budget while matching the target duration distribution.

    Buckets durations into `bins` quantile bins of the target durations and
    allocates the budget across bins proportional to the target's duration
    mass in each bin. Within a bin, source utterances are drawn by seeded
    shuffle without replacement; a bin that runs out spills its shortfall
    to the nearest bin with rows left (ties toward the lower bin). With
    bins=1 this reduces to `random_baseline` under the same seed.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    d, budget = _budget(durations, alpha)
    t = np.asarray(target_durations, dtype=np.float64)
    if t.size == 0:
        raise EmptyTargets("duration baseline needs target durations")

    inner = np.quantile(t, np.linspace(0.0, 1.0, bins + 1))[1:-1]
    # left-closed bins: ties in the quantile edges keep items equal to a
    # point-mass target in that bin rather than lumping everything above it
    mass = np.zeros(bins, dtype=np.float64)
    np.add.at(mass, np.searchsorted(inner, t, side="left"), t)
    return _fill(d, budget, np.searchsorted(inner, d, side="left"), mass / mass.sum(), seed)


def _fill(d: np.ndarray, budget: float, source_bin: np.ndarray, mass: np.ndarray, seed: int) -> SelectionResult:
    """Spend `budget * mass[q]` on bin q's rows, drawn by seeded shuffle.

    Bins are filled in order, each until its share is met or it runs out.
    Then each bin's shortfall is drawn from the nearest bins with rows
    left (ties toward the lower bin), and float crumbs of the split from
    the lowest bins with rows left, until the budget is met.
    """
    rng = generator(seed, "baseline")
    queues = [iter(rng.permutation(np.flatnonzero(source_bin == q))) for q in range(mass.size)]
    picks: list[Pick] = []

    def spent() -> float:
        return picks[-1].cumulative_duration_s if picks else 0.0

    def draw(q: int) -> float | None:
        """Pick bin q's next row and return its duration, or None if the bin has run out."""
        idx = next(queues[q], None)
        if idx is None:
            return None
        picks.append(Pick(len(picks) + 1, int(idx), 0.0, 0.0, 0.0, spent() + float(d[idx])))
        return float(d[idx])

    shortfall = []
    for q, share in enumerate(budget * mass):
        got = 0.0
        while got < share and (dur := draw(q)) is not None:
            got += dur
        shortfall.append(max(share - got, 0.0))
    for q, need in enumerate(shortfall):
        for nb in sorted((b for b in range(mass.size) if b != q), key=lambda b: (abs(b - q), b)):
            while need > 1e-12 and (dur := draw(nb)) is not None:
                need -= dur
    for q in range(mass.size):
        while spent() < budget and draw(q) is not None:
            pass
    return SelectionResult(picks, budget, spent(), pool_size=d.shape[0], rounds=0, exhausted=spent() < budget)
