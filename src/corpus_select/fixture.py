"""Synthetic corpus fixtures.

Generates a clustered multi-view corpus plus matching target datasets so
demos, docs and tests never need real speech data. Every view shares one
cluster assignment per utterance: rows are unit vectors scattered around
per-cluster unit centers, so target-guided selection has real structure
to find. Target datasets are drawn around single clusters (dataset m uses
cluster m mod clusters), which makes domain-recovery behavior visible.
Every view, corpus and target alike, is drawn and written a block of about
2^20 entries at a time (`_clustered_blocks` into `store._write_view`), so
memory does not grow with the corpus or the target sets; Philox is a
counter-based stream, so the bytes are those of one draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from corpus_select.rng import generator
from corpus_select.store import Manifest, _normalize_in_place, _normalize_rows, _write_view, save_manifest

_SOURCE_TAGS = ("web-a", "web-b", "podcast-c")
_BLOCK_ENTRIES = 1 << 20  # float64 entries drawn per block of a view


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


def _clustered_blocks(centers: np.ndarray, assignment: np.ndarray, spread: float, rng: np.random.Generator):
    """Unit or zero float32 rows around `centers[assignment]`, yielded `_BLOCK_ENTRIES // D` rows at a time.

    A non-finite draw (from a spread of inf or NaN) is left for `_write_view`
    to refuse, naming the file, the row and the column."""
    # spread is the expected noise norm around each unit center, so tightness does not depend on D
    dim = centers.shape[1]
    step = max(1, _BLOCK_ENTRIES // dim)
    for lo in range(0, assignment.size, step):
        rows = rng.standard_normal((min(step, assignment.size - lo), dim))
        rows *= spread / np.sqrt(dim)
        rows += centers[assignment[lo : lo + step]]
        block = rows.astype(np.float32)
        _normalize_in_place(block)
        yield block


def make_fixture(corpus_dir: str | Path, targets_dir: str | Path, spec: FixtureSpec) -> dict:
    """Write a corpus directory and a targets directory; returns a summary."""
    corpus_dir, targets_dir = Path(corpus_dir), Path(targets_dir)
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
        blocks = _clustered_blocks(centers[view_name], cluster_of, spec.cluster_spread, rng)
        _write_view(corpus_dir / f"{view_name}.emb", True, n, dim, blocks)

    names = [f"target-{m}" for m in range(spec.target_datasets)]
    for m, name in enumerate(names):
        assignment = np.full(spec.target_rows, m % spec.clusters)
        for view_name, c in centers.items():
            blocks = _clustered_blocks(c, assignment, spec.cluster_spread * 0.8, rng)
            _write_view(targets_dir / name / f"{view_name}.emb", True, spec.target_rows, c.shape[1], blocks)
        tdur = np.clip(rng.lognormal(mean=1.6, sigma=0.45, size=spec.target_rows), 0.5, 30.0)
        tids = [f"{name}-utt-{i:04d}" for i in range(spec.target_rows)]
        save_manifest(Manifest(tids, tdur, [name] * spec.target_rows), targets_dir / name / "manifest.jsonl")

    return {
        "utterances": n,
        "total_duration_s": float(durations.sum()),
        "views": dict(spec.view_dims),
        "clusters": spec.clusters,
        "target_datasets": names,
        "target_rows": spec.target_rows,
        "seed": spec.seed,
    }
