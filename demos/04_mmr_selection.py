"""Batched greedy MMR selection and the relevance-diversity trade-off.

Source: 5000 utterances over 10 clusters, two embedding views sharing the
cluster structure. Target: one cluster. The selector keeps the top rho*N
candidates by relevance, seeds with the most relevant one, then commits
batches of B by the score lam*relevance - (1-lam)*redundancy until the
duration budget fills. Sweeping lam shows the trade-off: lam=1 chases the
target cluster only; lower lam spends part of the budget on coverage.
"""

import numpy as np

from corpus_select import FusionWeights, SelectionConfig, batched_mmr, greedy_mmr_exact, random_baseline
from corpus_select.relevance import relevance_multi_dataset
from corpus_select.store import TargetDataset, TargetSet, _normalize_rows

rng = np.random.default_rng(44)
n, d, n_clusters, home = 5000, 48, 10, 4

centers = {}
views = {}
assign = rng.integers(0, n_clusters, size=n)
for name in ("speaker", "wavlm"):
    c = _normalize_rows(rng.standard_normal((n_clusters, d)).astype(np.float32))
    centers[name] = c.astype(np.float64)
    rows = centers[name][assign] + 0.25 * rng.standard_normal((n, d))
    views[name] = _normalize_rows(rows.astype(np.float32))
durations = rng.uniform(2.0, 12.0, size=n)

target_views = {}
for name in ("speaker", "wavlm"):
    rows = centers[name][np.full(80, home)] + 0.2 * rng.standard_normal((80, d))
    target_views[name] = _normalize_rows(rows.astype(np.float32))
targets = TargetSet([TargetDataset("dev", target_views)])
weights = FusionWeights.uniform(["speaker", "wavlm"])

print(f"{n} utterances, {n_clusters} clusters, target drawn from cluster {home}")
print(f"budget: 5% of {durations.sum() / 3600:.1f} h\n")

print("lam    picks  from-target-cluster  distinct-clusters")
for lam in (1.0, 0.7, 0.3, 0.0):
    cfg = SelectionConfig(alpha=0.05, lam=lam, rho=0.15, batch_size=64, weights=weights)
    result = batched_mmr(durations, views, targets, cfg)
    picks = result.indices
    frac = (assign[picks] == home).mean()
    print(f"{lam:.1f}    {len(picks):5d}  {frac:19.1%}  {len(set(assign[picks])):17d}")

random_picks = random_baseline(durations, 0.05, seed=3).indices
print(f"random {len(random_picks):4d}  {(assign[random_picks] == home).mean():19.1%}  "
      f"{len(set(assign[random_picks])):17d}")

# with B=1 and rho=1 the batched procedure IS exact greedy MMR
small = rng.permutation(n)[:300]
small_views = {k: v[small] for k, v in views.items()}
cfg = SelectionConfig(alpha=0.1, lam=0.7, rho=1.0, batch_size=1, weights=weights)
r = relevance_multi_dataset(small_views, targets, weights)
exact = greedy_mmr_exact(r, small_views, durations[small], cfg)
batched = batched_mmr(durations[small], small_views, targets, cfg)
same = [p.index for p in exact.picks] == [p.index for p in batched.picks]
print(f"\nB=1, rho=1 reduces to exact greedy: identical pick sequence = {same}")

result = batched_mmr(durations, views, targets,
                     SelectionConfig(alpha=0.05, lam=0.7, rho=0.15, batch_size=64, weights=weights))
first, last = result.picks[0], result.picks[-1]
print(f"\npick #1:  relevance {first.relevance:.3f}, redundancy {first.diversity:.3f}")
print(f"pick #{last.rank}: relevance {last.relevance:.3f}, redundancy {last.diversity:.3f}")
print(f"budget {result.budget_s / 3600:.2f} h, selected {result.total_selected_s / 3600:.2f} h "
      f"in {result.rounds} rounds over a pool of {result.pool_size}")
