"""Do two embedding views carry the same information?

The probe clusters one view into pseudo-labels, then trains a softmax
regression on another view to predict them. High held-out accuracy means
the views encode similar factors; accuracy near chance means they are
complementary. Three synthetic views make the point: "speaker" and
"channel" share their cluster structure, "content" is independent.
"""

import numpy as np

from corpus_select import ProbeConfig, probe_matrix
from corpus_select.store import _normalize_rows

rng = np.random.default_rng(66)
n, clusters = 3000, 60

def clustered_view(d, assign, spread):
    """n unit rows of dimension d around per-cluster unit centers: a plain float32 matrix."""
    centers = _normalize_rows(rng.standard_normal((clusters, d)).astype(np.float32))
    rows = centers.astype(np.float64)[assign] + spread * rng.standard_normal((n, d))
    return _normalize_rows(rows.astype(np.float32))

shared = rng.integers(0, clusters, size=n)
independent = rng.integers(0, clusters, size=n)
views = {
    "speaker": clustered_view(48, shared, 0.10),
    "channel": clustered_view(32, shared, 0.15),   # same structure, new space
    "content": clustered_view(40, independent, 0.10),
}

cfg = ProbeConfig(clusters=clusters, seed=8)
reports = probe_matrix(views, cfg)
by_pair = {(r.source, r.target): r for r in reports}

names = list(views)
width = 10
print(f"held-out accuracy (%) predicting <target>'s {clusters} clusters from <source>")
print("source\\target" + "".join(f"{t:>{width}}" for t in names))
for s in names:
    print(f"{s:<13}" + "".join(f"{by_pair[(s, t)].accuracy * 100:>{width}.1f}" for t in names))
print(f"chance level: {max(r.chance for r in reports) * 100:.1f}%")

print(
    "\nspeaker <-> channel predict each other (shared structure);"
    "\ncontent rows stay near chance off-diagonal (complementary information)."
)
