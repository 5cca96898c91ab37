"""Duration-budgeted corpus subset selection over multi-view embeddings.

The package selects a subset of a large source corpus that is both relevant
to a small target set and internally diverse, using batched greedy Maximal
Marginal Relevance on cosine similarities. Relevance can fuse several
embedding views per utterance (weighted late fusion) and aggregate over
several target datasets (max or mean). Supporting stages: Gaussian random
projection with a cosine-preservation audit, k-means compaction of target
embeddings, duration/random selection baselines, and a cross-view
predictability probe.
"""

from corpus_select.store import (
    CorpusManifest,
    EmbeddingView,
    Manifest,
    TargetDataset,
    TargetSet,
    load_corpus,
    load_manifest,
    load_targets,
    load_view,
    save_manifest,
    save_targets,
    save_view,
)
from corpus_select.projection import (
    ProjectionSpec,
    audit_cosine_preservation,
    make_projection,
    project_view,
)
from corpus_select.compaction import Clustering, KMeansConfig, compact_targets, kmeans
from corpus_select.relevance import (
    AggregationMode,
    FusionWeights,
    relevance_multi_dataset,
)
from corpus_select.selection import (
    Pick,
    SelectionConfig,
    SelectionResult,
    batched_mmr,
    duration_baseline,
    greedy_mmr_exact,
    random_baseline,
)
from corpus_select.probe import (
    ProbeConfig,
    ProbeReport,
    probe_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationMode",
    "Clustering",
    "CorpusManifest",
    "EmbeddingView",
    "FusionWeights",
    "KMeansConfig",
    "Manifest",
    "Pick",
    "ProbeConfig",
    "ProbeReport",
    "ProjectionSpec",
    "SelectionConfig",
    "SelectionResult",
    "TargetDataset",
    "TargetSet",
    "audit_cosine_preservation",
    "batched_mmr",
    "compact_targets",
    "duration_baseline",
    "greedy_mmr_exact",
    "kmeans",
    "load_corpus",
    "load_manifest",
    "load_targets",
    "load_view",
    "make_projection",
    "probe_matrix",
    "project_view",
    "random_baseline",
    "relevance_multi_dataset",
    "save_manifest",
    "save_targets",
    "save_view",
    "__version__",
]
