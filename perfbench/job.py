"""One benchmark child process: generate a workload's inputs, or run its job.

    python3 perfbench/job.py setup WORK_DIR [--trace SPANS_JSON]
    python3 perfbench/job.py run WORK_DIR [--trace SPANS_JSON]

WORK_DIR/job.json names the workload, seed, sizes and selector settings.
The job reaches the library the way a user would: `batched_mmr` for
mmr-random, the CLI's `run()` for the others. With --trace, layer
boundaries are wrapped (see spans.py) and the spans are written to
SPANS_JSON when the job ends.
"""

import time

_T0 = time.monotonic()

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import corpus_select.cli
import corpus_select.fixture
import corpus_select.selection
import corpus_select.store
from corpus_select.fixture import FixtureSpec
from corpus_select.relevance import AggregationMode, FusionWeights
from corpus_select.selection import SelectionConfig
from corpus_select.store import EmbeddingView, TargetDataset, TargetSet

import spans as tracing
from workloads import SELECTION, SelectSpec

_T_IMPORTED = time.monotonic()


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


def _setup_mmr_random(work: Path, seed: int, p: dict) -> None:
    rng = np.random.default_rng([seed, 1])
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    np.save(inputs / "rows.npy", _unit_rows(rng.standard_normal((p["rows"], p["dim"]), dtype=np.float32)))
    np.save(inputs / "targets.npy", _unit_rows(rng.standard_normal((p["targets"], p["dim"]), dtype=np.float32)))
    np.save(inputs / "durations.npy", np.clip(rng.lognormal(1.6, 0.45, p["rows"]), 0.5, 30.0))


def _make_fixture(work: Path, seed: int, p: dict, view_dims: dict) -> None:
    spec = FixtureSpec(
        utterances=p["rows"],
        view_dims=view_dims,
        clusters=p["clusters"],
        target_datasets=p["target_datasets"],
        target_rows=p["target_rows"],
        seed=seed,
    )
    corpus_select.fixture.make_fixture(work / "corpus", work / "targets", spec)


def _setup_select_ingest(work: Path, seed: int, p: dict) -> None:
    _make_fixture(work, seed, p, {"emb": p["dim"]})
    # real embeddings arrive un-normalized: rescale each row and clear the header flag
    path = work / "corpus" / "emb.emb"
    view = corpus_select.store.load_view(path)
    scale = np.random.default_rng([seed, 2]).lognormal(2.0, 0.5, p["rows"]).astype(np.float32)
    corpus_select.store.save_view(
        EmbeddingView("emb", p["dim"], view.rows * scale[:, None], normalized=False), path
    )


def _setup_pipeline(work: Path, seed: int, p: dict) -> None:
    _make_fixture(work, seed, p, p["views"])


def _write_selection(result, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pick in result.picks:
            row = {
                "rank": pick.rank,
                "id": f"row-{pick.index}",
                "relevance": pick.relevance,
                "diversity": pick.diversity,
                "mmr": pick.mmr,
                "cumulative_duration_s": pick.cumulative_duration_s,
            }
            fh.write(json.dumps(row) + "\n")
        footer = {
            "budget_s": result.budget_s,
            "total_selected_s": result.total_selected_s,
            "pool_size": result.pool_size,
            "rounds": result.rounds,
            "exhausted": result.exhausted,
        }
        fh.write(json.dumps(footer) + "\n")


def _run_mmr_random(work: Path, p: dict, spec: SelectSpec, span) -> None:
    with span("job.load_inputs"):
        rows = np.load(work / "inputs" / "rows.npy")
        targets = np.load(work / "inputs" / "targets.npy")
        durations = np.load(work / "inputs" / "durations.npy")
    cfg = SelectionConfig(
        alpha=spec.alpha,
        lam=spec.lam,
        rho=spec.rho,
        batch_size=spec.batch,
        weights=FusionWeights(spec.weights),
        aggregation=AggregationMode.from_name(spec.aggregate),
    )
    target_set = TargetSet([TargetDataset("target", {"emb": targets})])
    result = corpus_select.selection.batched_mmr(
        durations, {"emb": rows}, target_set, cfg, threads=spec.threads
    )
    with span("job.write_output"):
        _write_selection(result, work / SELECTION)


def _cli(argv: list[str]) -> None:
    code = corpus_select.cli.run([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"corpus-select {argv[0]} exited with {code}")


def _select_argv(work: Path, targets: Path, spec: SelectSpec) -> list:
    weights = ",".join(f"{name}={w}" for name, w in spec.weights.items())
    return [
        "select", "--corpus", work / "corpus", "--targets", targets,
        "--alpha", spec.alpha, "--lambda", spec.lam, "--rho", spec.rho, "--batch", spec.batch,
        "--weights", weights, "--aggregate", spec.aggregate, "--threads", spec.threads,
        "--out", work / SELECTION,
    ]  # fmt: skip


def _run_select_ingest(work: Path, p: dict, spec: SelectSpec, span) -> None:
    _cli(_select_argv(work, work / "targets", spec))


def _run_pipeline(work: Path, p: dict, spec: SelectSpec, span) -> None:
    dirs = [work / "corpus"] + [work / "targets" / f"target-{m}" for m in range(p["target_datasets"])]
    for d in dirs:
        _cli(["project", "--in", d / "speaker.emb", "--out", d / "speaker256.emb", "--dim", 256])
    _cli(["compact-targets", "--targets", work / "targets", "--k", p["k"], "--out", work / "compact"])
    _cli(_select_argv(work, work / "compact", spec))


SETUP = {
    "mmr-random": _setup_mmr_random,
    "select-ingest": _setup_select_ingest,
    "pipeline-multiview": _setup_pipeline,
}
RUN = {
    "mmr-random": _run_mmr_random,
    "select-ingest": _run_select_ingest,
    "pipeline-multiview": _run_pipeline,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("work", type=Path)
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args()

    job = json.loads((args.work / "job.json").read_text(encoding="utf-8"))
    tracer = None
    span = lambda name: nullcontext({})  # noqa: E731
    if args.trace is not None:
        tracer = tracing.Tracer()
        tracer.spans.append(
            {"name": "job.import", "parent": None, "start": _T0, "end": _T_IMPORTED, "cpu_s": time.process_time()}
        )
        tracing.install(tracer)
        span = tracer.span
    try:
        if args.mode == "setup":
            SETUP[job["workload"]](args.work, job["seed"], job["params"])
        else:
            RUN[job["workload"]](args.work, job["params"], SelectSpec(**job["select"]), span)
    finally:
        if tracer is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    main()
