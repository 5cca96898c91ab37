"""Workload definitions shared by run.py and its job processes.

All three workloads are MMR jobs, scaled so that one job takes a few
seconds on a 2-core host while keeping the shape of the full-size
reference jobs: the same rho, alpha, lambda, view dimensions, target
layout and threads. mmr-random keeps B = 1024 (the library call's
setting, 8 rounds here); the CLI workloads scale B with the corpus so
that they run the 10 rounds of their full-size jobs (1M and 200k rows):
B = 100 for 100k rows at alpha .01, B = 200 for 40k rows at alpha .05.

- mmr-random: the library call `batched_mmr` in memory on random unit
  rows. No file I/O, and random data is where lazy refresh saves least.
  The Python thread pool runs on top of the BLAS threads.
- select-ingest: CLI `select` on a clustered one-view corpus stored
  un-normalized, against two uncompacted target datasets, with one
  Python thread. Manifest parse, normalize, relevance and input digests
  dominate; there are few MMR rounds.
- pipeline-multiview: the README walkthrough (project, compact-targets,
  select) on a three-view clustered corpus with mean aggregation. The
  only workload that writes large outputs and runs projection and
  k-means; clustered data is where lazy refresh saves most. The corpus
  directory keeps the unused 512-dim view, which the input digest hashes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class SelectSpec:
    """The selector settings of a workload; the checker reads the same ones."""

    alpha: float
    threads: int
    weights: dict[str, float]
    aggregate: str = "max"
    lam: float = 0.7
    rho: float = 0.15
    batch: int = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    select: SelectSpec
    # files the job writes, relative to the work directory; removed before each job
    outputs: tuple[str, ...]


SELECTION = "selection.jsonl"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mmr-random",
            "batched_mmr in memory on random unit rows: MMR rounds dominate, no file I/O, "
            "least lazy-refresh gain, Python pool over BLAS threads",
            {"rows": 150_000, "dim": 256, "targets": 200},
            SelectSpec(alpha=0.05, threads=nproc(), weights={"emb": 1.0}),
            (SELECTION,),
        ),
        Workload(
            "select-ingest",
            "CLI select on an un-normalized clustered view with uncompacted targets: "
            "manifest parse, normalize, relevance and digests dominate, one thread",
            {"rows": 100_000, "dim": 256, "clusters": 16, "target_datasets": 2, "target_rows": 500},
            SelectSpec(alpha=0.01, threads=1, weights={"emb": 1.0}, batch=100),
            (SELECTION, SELECTION + ".run.json"),
        ),
        Workload(
            "pipeline-multiview",
            "project, compact-targets and a three-view mean-aggregated select on clustered "
            "data: large outputs, projection, k-means, most lazy-refresh gain",
            {
                "rows": 40_000,
                "views": {"speaker": 512, "wavlm": 256, "sbert": 384},
                "clusters": 16,
                "target_datasets": 2,
                "target_rows": 1000,
                "k": 100,
            },
            SelectSpec(
                alpha=0.05,
                threads=nproc(),
                weights={"speaker256": 1.0, "wavlm": 1.0, "sbert": 1.0},
                aggregate="mean",
                batch=200,
            ),
            (
                SELECTION,
                SELECTION + ".run.json",
                "corpus/speaker256.emb",
                "corpus/speaker256.emb.run.json",
                "targets/target-0/speaker256.emb",
                "targets/target-0/speaker256.emb.run.json",
                "targets/target-1/speaker256.emb",
                "targets/target-1/speaker256.emb.run.json",
                "compact",
            ),
        ),
    )
}

# Sizes for the benchmark's self-test: same code paths, a fraction of a second each.
TINY_PARAMS = {
    "mmr-random": {"rows": 3000, "dim": 32, "targets": 20},
    "select-ingest": {"rows": 3000, "dim": 32, "clusters": 6, "target_datasets": 2, "target_rows": 40},
    "pipeline-multiview": {
        "rows": 3000,
        "views": {"speaker": 512, "wavlm": 256, "sbert": 384},
        "clusters": 6,
        "target_datasets": 2,
        "target_rows": 60,
        "k": 20,
    },
}
TINY_BATCH = 8
