"""Build a synthetic corpus and walk through the data model.

A corpus directory holds a JSON-lines manifest (one utterance per line:
id, duration_s, dataset) plus one binary `.emb` file per embedding view.
Alignment is positional: manifest line i owns row i of every view. Target
directories hold one subdirectory per target dataset.
"""

import tempfile
from pathlib import Path

import numpy as np

from corpus_select import load_corpus, load_targets, load_view
from corpus_select.fixture import FixtureSpec, make_fixture

# removed at the end of the script (or at exit, if it fails before)
fixture_dir = tempfile.TemporaryDirectory(prefix="corpus-demo-")
root = Path(fixture_dir.name)
corpus_dir, targets_dir = root / "corpus", root / "targets"

spec = FixtureSpec(
    utterances=1200,
    view_dims={"speaker": 64, "wavlm": 64, "sbert": 48},
    clusters=10,
    target_datasets=2,
    target_rows=150,
    seed=7,
)
summary = make_fixture(corpus_dir, targets_dir, spec)
print(f"wrote fixture under {root}")
print(f"  {summary['utterances']} utterances, {summary['total_duration_s'] / 3600:.2f} h total")
print(f"  views: {summary['views']}")
print(f"  target datasets: {summary['target_datasets']} ({summary['target_rows']} rows each)\n")

# in memory the manifest is columns, and each view one float32 matrix
corpus = load_corpus(corpus_dir)
manifest = corpus.manifest
print(f"loaded corpus: {len(manifest)} utterances, views {sorted(corpus.views)}")
print(f"  first ids: {manifest.ids[:3]}, datasets: {sorted(set(manifest.datasets))}")
durations = manifest.durations
print(f"  durations: min {durations.min():.1f}s, median {np.median(durations):.1f}s, "
      f"max {durations.max():.1f}s")
for name, rows in corpus.views.items():
    print(f"  view {name!r}: {rows.shape[0]} x {rows.shape[1]} {rows.dtype}")

# rows are unit length, so cosine similarity is a plain dot product
speaker = corpus.views["speaker"]
print(f"\nrow norms (speaker view): {np.linalg.norm(speaker, axis=1).mean():.6f} on average")

targets = load_targets(targets_dir)
for ds in targets.datasets:
    shapes = {name: mat.shape for name, mat in ds.views.items()}
    print(f"target dataset {ds.name!r}: {shapes}")

# the loader enforces the file format end to end; peek at one header
raw = (corpus_dir / "speaker.emb").read_bytes()[:21]
print(f"\nspeaker.emb header bytes: magic={raw[:4]!r} (then version, flag, N, D)")
view = load_view(corpus_dir / "speaker.emb")
print(f"reloading just that view: {view.rows.shape}, header flag normalized={view.normalized}")

fixture_dir.cleanup()
