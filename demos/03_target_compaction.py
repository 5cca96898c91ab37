"""Cap target-set size with k-means compaction.

Relevance scoring touches every target row for every candidate, so large
target sets are compacted to k=200 unit-normalized centroids per view.
The typical shape: the target is a narrow-domain dev set (here 3 of 25
clusters), the candidate pool spans everything. Scores against centroids
run ~25x faster and preserve the top of the relevance ranking, which is
what the selection prefilter consumes.
"""

import time

import numpy as np

from corpus_select import FusionWeights, KMeansConfig, compact_targets, relevance_multi_dataset
from corpus_select.store import TargetDataset, TargetSet, _normalize_rows

rng = np.random.default_rng(33)
d = 64
centers = _normalize_rows(rng.standard_normal((25, d)).astype(np.float32))
centers = centers.astype(np.float64)

def rows_from(cluster_ids, n, spread):
    assign = np.asarray(cluster_ids)[rng.integers(0, len(cluster_ids), size=n)]
    rows = centers[assign] + spread * rng.standard_normal((n, d))
    unit = _normalize_rows(rows.astype(np.float32))
    return unit

target_rows = rows_from([2, 7, 11], 5000, 0.12)          # narrow-domain dev set
candidates = rows_from(list(range(25)), 20_000, 0.25)    # broad in-the-wild pool
targets = TargetSet([TargetDataset("dev-set", {"v": target_rows})])

report = []
t0 = time.perf_counter()
compacted = compact_targets(targets, KMeansConfig(k=200, seed=11), report=report)
t1 = time.perf_counter()
row = report[0]
print(f"compacted {row['rows_before']} -> {row['rows_after']} rows "
      f"in {row['iterations']} Lloyd iterations ({t1 - t0:.1f}s), "
      f"inertia {row['inertia']:.1f}")
cent = compacted.datasets[0].views["v"]
print(f"centroids are unit vectors: mean norm {np.linalg.norm(cent, axis=1).mean():.6f}\n")

one_view = FusionWeights({"v": 1.0})
t0 = time.perf_counter()
full_scores = relevance_multi_dataset({"v": candidates}, targets, one_view)
t_full = time.perf_counter() - t0
t0 = time.perf_counter()
compact_scores = relevance_multi_dataset({"v": candidates}, compacted, one_view)
t_compact = time.perf_counter() - t0

diff = np.abs(full_scores - compact_scores)
rank_corr = np.corrcoef(np.argsort(np.argsort(full_scores)),
                        np.argsort(np.argsort(compact_scores)))[0, 1]
print(f"relevance vs {len(target_rows)} full targets: {t_full * 1000:.0f} ms")
print(f"relevance vs {len(cent)} centroids:    {t_compact * 1000:.0f} ms")
print(f"score drift: mean {diff.mean():.4f} (centroid max lower-bounds the true max)")
print(f"candidate ranking correlation: {rank_corr:.4f}")
for frac in (0.05, 0.15):
    k = int(frac * len(candidates))
    overlap = len(
        set(np.argsort(-full_scores)[:k]) & set(np.argsort(-compact_scores)[:k])
    ) / k
    print(f"top-{frac:.0%} candidate overlap (prefilter band): {overlap:.1%}")

# small datasets pass through untouched
small = TargetSet([TargetDataset("tiny", {"v": rows_from([1], 150, 0.1)})])
out = compact_targets(small, KMeansConfig(k=200, seed=11))
print(f"\n150-row dataset with k=200 passes through: "
      f"{out.datasets[0].views['v'].shape[0]} rows")
