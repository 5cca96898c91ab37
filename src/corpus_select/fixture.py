"""Synthetic corpus fixtures.

Generates a clustered multi-view corpus plus matching target datasets so
demos, docs and tests never need real speech data. Every view shares one
cluster assignment per utterance: rows are unit vectors scattered around
per-cluster unit centers, so target-guided selection has real structure
to find. Target datasets are drawn around single clusters (dataset m uses
cluster m mod clusters), which makes domain-recovery behavior visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from corpus_select.rng import generator
from corpus_select.store import (
    EmbeddingView,
    Manifest,
    TargetDataset,
    TargetSet,
    _normalize_rows,
    save_manifest,
    save_targets,
    save_view,
)

_SOURCE_TAGS = ("web-a", "web-b", "podcast-c")


@dataclass(frozen=True)
class FixtureSpec:
    utterances: int = 2000
    view_dims: dict[str, int] = field(
        default_factory=lambda: {"speaker": 64, "wavlm": 64, "sbert": 48}
    )
    clusters: int = 10
    cluster_spread: float = 0.5  # expected per-vector noise norm around the unit center
    target_datasets: int = 2
    target_rows: int = 120
    seed: int = 0

    def __post_init__(self):
        if self.utterances < 1 or self.clusters < 1 or self.target_rows < 1:
            raise ValueError("fixture sizes must be positive")
        if self.target_datasets < 1:
            raise ValueError("need at least one target dataset")
        if not self.view_dims:
            raise ValueError("need at least one view")


def _clustered_rows(
    centers: np.ndarray, assignment: np.ndarray, spread: float, rng: np.random.Generator
) -> np.ndarray:
    # spread is the expected noise norm per vector (centers are unit), so
    # cluster tightness does not depend on the view's dimensionality
    dim = centers.shape[1]
    noise = rng.standard_normal((assignment.size, dim)) * (spread / np.sqrt(dim))
    rows = centers[assignment] + noise
    return _normalize_rows(rows.astype(np.float32))


def make_fixture(corpus_dir: str | Path, targets_dir: str | Path, spec: FixtureSpec) -> dict:
    """Write a corpus directory and a targets directory; returns a summary."""
    corpus_dir = Path(corpus_dir)
    targets_dir = Path(targets_dir)
    rng = generator(spec.seed, "fixture")
    n = spec.utterances

    cluster_of = rng.integers(0, spec.clusters, size=n)
    durations = np.clip(rng.lognormal(mean=1.6, sigma=0.45, size=n), 0.5, 30.0)
    tags = rng.integers(0, len(_SOURCE_TAGS), size=n)

    ids = [f"utt-{i:06d}" for i in range(n)]
    save_manifest(Manifest(ids, durations, [_SOURCE_TAGS[t] for t in tags]), corpus_dir / "manifest.jsonl")

    centers: dict[str, np.ndarray] = {}
    for view_name, dim in spec.view_dims.items():
        c = _normalize_rows(rng.standard_normal((spec.clusters, dim)).astype(np.float32))
        centers[view_name] = c.astype(np.float64)
        rows = _clustered_rows(centers[view_name], cluster_of, spec.cluster_spread, rng)
        save_view(
            EmbeddingView(view_name, dim, rows, normalized=True),
            corpus_dir / f"{view_name}.emb",
        )

    datasets = []
    target_manifests: dict[str, Manifest] = {}
    for m in range(spec.target_datasets):
        name = f"target-{m}"
        home_cluster = m % spec.clusters
        assignment = np.full(spec.target_rows, home_cluster)
        views = {
            view_name: _clustered_rows(
                centers[view_name], assignment, spec.cluster_spread * 0.8, rng
            )
            for view_name in spec.view_dims
        }
        datasets.append(TargetDataset(name, views))
        tdur = np.clip(rng.lognormal(mean=1.6, sigma=0.45, size=spec.target_rows), 0.5, 30.0)
        tids = [f"{name}-utt-{i:04d}" for i in range(spec.target_rows)]
        target_manifests[name] = Manifest(tids, tdur, [name] * spec.target_rows)

    save_targets(TargetSet(datasets), targets_dir)
    for name, manifest in target_manifests.items():
        save_manifest(manifest, targets_dir / name / "manifest.jsonl")

    return {
        "utterances": n,
        "total_duration_s": float(durations.sum()),
        "views": dict(spec.view_dims),
        "clusters": spec.clusters,
        "target_datasets": [ds.name for ds in datasets],
        "target_rows": spec.target_rows,
        "seed": spec.seed,
    }
