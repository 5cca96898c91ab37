"""Reference implementations that tests hold the library to.

The similarity oracles share no code with `corpus_select.relevance`'s
scorers, so a test that compares the two checks the scorer rather than
the scorer against itself: `brute_max_sim` loops over rows in float64,
and `integer_max_sim` computes the exact grid score in int64, as does
`integer_relevance`, relevance fused and aggregated from it.
`eager_batched_mmr` is the selector's round loop before lazy refresh,
ranking by `integer_relevance` and folding each batch into the running
max with `integer_max_sim`, so it checks the prefilter's screen, the
refresh schedule and the float32 screen of `update_running_max`.
`normalize_rows_gather` is the
row normalization's earlier gather-and-scatter formula.
`clustered_rows_one_draw` is the fixture's clustered rows from one draw
of the whole matrix, as the fixture made them before it drew by blocks.
`plusplus_seeds_elementwise` is k-means++ seeding with the earlier
per-seed `((x - c) ** 2).sum(axis=1)` distances.
`random_baseline_loop` is the random baseline's own prefix loop, from
before it became the one-bin case of the duration baseline's fill.
`fit_loss_history` exposes the probe fit's loss trajectory.
`manifest_by_lines` is the manifest rule stated one line at a time, with
no chunks and no column checks.
"""

import json
import math
import re
import warnings
from typing import Mapping

import numpy as np

from corpus_select.errors import (
    DataError,
    DimensionMismatch,
    DuplicateId,
    EmptyCorpus,
    MalformedLine,
    MissingView,
    NonPositiveDuration,
    SmallPoolWarning,
)
from corpus_select.probe import _fit, _stratified_split
from corpus_select.relevance import AggregationMode, FusionWeights, weighted_views
from corpus_select.rng import generator
from corpus_select.selection import (
    Pick,
    SelectionConfig,
    SelectionResult,
    _ranked,
)
from corpus_select.store import _UNIT_SNAP, TargetSet


class EmptySelection(DataError):
    """Diversity penalty asked for an empty selected set."""


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


def integer_max_sim(cands, targets) -> np.ndarray:
    """Per-candidate max dot product of the rows rounded to a 2^-26 grid.

    Computed in int64 arithmetic, which numpy does without BLAS and which
    is exact: this is the value an exact grid kernel must return.
    """
    a = np.rint(np.asarray(cands, dtype=np.float64) * 2.0**26).astype(np.int64)
    b = np.rint(np.asarray(targets, dtype=np.float64) * 2.0**26).astype(np.int64)
    best = (a @ b.T).max(axis=1)
    return np.clip(best.astype(np.float64) * 2.0**-52, -1.0, 1.0)


def integer_relevance(views, targets: TargetSet, weights: FusionWeights, mode=AggregationMode.MAX) -> np.ndarray:
    """Relevance as README step 1 states it, from `integer_max_sim`.

    Per view, the max similarity to each target dataset. Views are fused
    by a weighted sum in weight order, clipped to [-1, 1]; max mode takes
    each view's best dataset before fusing, and mean mode averages the
    fused per-dataset scores in dataset order.
    """
    per_view = {
        name: np.array([integer_max_sim(views[name], ds.views[name]) for ds in targets.datasets])
        for name in weights.names
    }

    def fuse(scores):
        total = 0.0
        for name, w in weights.weights.items():
            total = total + w * scores[name]
        return np.clip(total, -1.0, 1.0)

    if mode is AggregationMode.MAX:
        return fuse({name: s.max(axis=0) for name, s in per_view.items()})
    fused = fuse(per_view)
    total = fused[0]
    for row in fused[1:]:
        total = total + row
    return total / len(fused)


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


def normalize_rows_gather(rows):
    """Unit-normalize float32 rows through a boolean gather and scatter.

    Same float64 norms, divide and float32 cast as `store._normalize_rows`.
    """
    out = np.array(rows, dtype=np.float32, copy=True)
    norms = np.sqrt(np.einsum("ij,ij->i", out, out, dtype=np.float64))
    zero = norms == 0.0
    zero_count = int(zero.sum())
    fix = ~zero & (np.abs(norms - 1.0) > _UNIT_SNAP)
    if np.any(fix):
        out[fix] = (out[fix].astype(np.float64) / norms[fix, None]).astype(np.float32)
    return out, zero_count


def clustered_rows_one_draw(centers, assignment, spread, rng):
    """Unit float32 rows around `centers[assignment]`, the noise drawn as one N x D matrix."""
    dim = centers.shape[1]
    noise = rng.standard_normal((assignment.size, dim)) * (spread / np.sqrt(dim))
    return normalize_rows_gather((centers[assignment] + noise).astype(np.float32))[0]


def plusplus_seeds_elementwise(x, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds drawn from one elementwise n x D distance pass per seed.

    Same RNG draws as `compaction._plusplus_init`: the first seed uniform,
    each later one with probability proportional to its squared distance
    to the nearest seed so far, uniform again when every distance is 0.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=np.float64)
    idx = int(rng.integers(n))
    centroids[0] = x[idx]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centroids[c] = x[idx]
        np.minimum(d2, ((x - centroids[c]) ** 2).sum(axis=1), out=d2)
    return centroids


def eager_batched_mmr(
    durations: np.ndarray,
    views: Mapping[str, np.ndarray],
    targets: TargetSet,
    cfg: SelectionConfig,
) -> SelectionResult:
    """`selection.batched_mmr` with the eager round loop it replaced.

    Every round folds the committed batch into the running max of the
    whole prefilter pool, committed rows included, with `integer_max_sim`,
    then ranks the pool by exact MMR score. Relevance is
    `integer_relevance` of every row. The lazy, screened selector
    must match it pick for pick and bit for bit.
    """
    d = np.asarray(durations, dtype=np.float64)
    n = d.shape[0]
    if n == 0:
        raise EmptyCorpus("no candidates to select from")
    weights = cfg.weights or FusionWeights.uniform(sorted(views))
    mats = weighted_views(views, weights, n)

    budget = cfg.alpha * float(d.sum())
    r = integer_relevance(mats, targets, weights, cfg.aggregation)

    pool_size = min(n, max(1, math.ceil(cfg.rho * n)))
    pool = _ranked(np.arange(n), r)[:pool_size]
    expected_picks = math.ceil(cfg.alpha * n)
    if pool_size < 2 * expected_picks:
        warnings.warn(
            f"prefilter pool ({pool_size}) is below twice the expected pick "
            f"count ({expected_picks}); selection may exhaust it",
            SmallPoolWarning,
            stacklevel=2,
        )

    pool_rows = {name: mats[name][pool] for name in weights.names}
    r_pool = r[pool]

    seed_pos = 0  # pool is sorted by (-relevance, index)
    seed_idx = int(pool[seed_pos])
    total = float(d[seed_idx])
    picks = [Pick(1, seed_idx, float(r_pool[0]), 0.0, cfg.lam * float(r_pool[0]), total)]
    committed = np.zeros(pool_size, dtype=bool)
    committed[seed_pos] = True

    # per-view running max similarity to the committed set
    vmax = {name: integer_max_sim(rows, rows[[seed_pos]]) for name, rows in pool_rows.items()}

    rounds = 0
    exhausted = False
    while total < budget:
        remaining = np.flatnonzero(~committed)
        if remaining.size == 0:
            exhausted = True
            break
        rounds += 1
        v = weights.fuse(vmax.__getitem__)
        m = cfg.lam * r_pool - (1.0 - cfg.lam) * v

        sub = np.lexsort((pool[remaining], -m[remaining]))[: cfg.batch_size]
        batch_pos = remaining[sub]
        for pos in batch_pos:
            idx = int(pool[pos])
            total += float(d[idx])
            picks.append(
                Pick(len(picks) + 1, idx, float(r_pool[pos]), float(v[pos]), float(m[pos]), total)
            )
        committed[batch_pos] = True
        for name, rows in pool_rows.items():
            batch = integer_max_sim(rows, rows[batch_pos])
            np.maximum(vmax[name], batch, out=vmax[name])

    return SelectionResult(picks, budget, total, pool_size=pool_size, rounds=rounds, exhausted=exhausted)


def random_baseline_loop(durations, alpha: float, seed: int) -> SelectionResult:
    """The shuffle's prefix that fills alpha * total duration, the first pick taken before any budget test."""
    d = np.asarray(durations, dtype=np.float64)
    budget = alpha * float(d.sum())
    picks: list[Pick] = []
    total = 0.0
    for idx in generator(seed, "baseline").permutation(d.shape[0]):
        total += float(d[idx])
        picks.append(Pick(len(picks) + 1, int(idx), 0.0, 0.0, 0.0, total))
        if total >= budget:
            break
    return SelectionResult(picks, budget, total, pool_size=d.shape[0], rounds=0, exhausted=total < budget)


def fit_loss_history(source, labels, cfg) -> list[float]:
    """Training-loss trajectory of the probe fit; non-increasing by construction."""
    x = np.asarray(source, dtype=np.float64)
    y = np.asarray(labels)
    rng = generator(cfg.seed, "probe-split")
    train_idx, _ = _stratified_split(y, rng)
    _, _, history = _fit(x[train_idx], y[train_idx], int(y.max()) + 1)
    return history


def manifest_by_lines(data: bytes):
    """The manifest rule, one line at a time: the columns of a manifest's bytes, or its first error.

    Lines break where text mode breaks them, at CRLF, CR and LF. Each line, in order, must be
    UTF-8 and hold one JSON object (surrounding whitespace aside), whose id is a nonempty string
    not seen before, whose duration_s is a number (not a bool) that is positive and finite as a
    float, whose dataset is a string, and whose duration keeps the running total, summed in line
    order, within float range. Returns (ids, float64 durations, datasets), or the DataError of
    the first line that breaks the rule.
    """
    lines = re.split(rb"\r\n|\r|\n", data)
    if lines[-1] == b"":
        lines.pop()
    ids, durations, datasets, total = [], [], [], 0.0
    for line, raw in enumerate(lines, start=1):
        try:
            text = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            return MalformedLine(line, "not valid UTF-8")
        if not text:
            return MalformedLine(line, "blank line")
        try:
            record = json.loads(text)
        except (ValueError, RecursionError) as exc:
            return MalformedLine(line, f"invalid JSON ({getattr(exc, 'msg', exc)})")
        if not isinstance(record, dict):
            return MalformedLine(line, "record must be a JSON object")
        utt_id, duration, dataset = record.get("id"), record.get("duration_s"), record.get("dataset")
        if not isinstance(utt_id, str) or utt_id == "":
            return MalformedLine(line, "field 'id' must be a nonempty string")
        if type(duration) not in (int, float):
            return MalformedLine(line, "field 'duration_s' must be a number")
        if not isinstance(dataset, str):
            return MalformedLine(line, "field 'dataset' must be a string")
        if isinstance(duration, int) and abs(duration) >= 2**1024 - 2**970:  # rounds to inf
            return MalformedLine(line, "field 'duration_s' is beyond float range")
        seconds = float(duration)
        if not seconds > 0 or seconds == math.inf:
            return NonPositiveDuration(duration, line)
        if utt_id in ids:
            return DuplicateId(utt_id, line)
        total += seconds
        if total == math.inf:
            return MalformedLine(line, "the total duration_s is beyond float range")
        ids.append(utt_id)
        durations.append(seconds)
        datasets.append(dataset)
    return ids, np.array(durations, dtype=np.float64), datasets
