"""Outside-in span recorder for the benchmark's traced runs.

The library is not instrumented. Instead, a traced job process replaces
module-level names such as `corpus_select.selection.update_running_max`
with wrappers that record a span around each call: name, start and end on
the system-wide monotonic clock (so the parent process can compare them
with its own wall time for the child), process CPU seconds, the enclosing
span, and counts derived from the call's arguments and result. Spans stay
in memory and are written out once, when the job ends.

A name that no longer exists is reported as missing rather than failing
the run, so the benchmark keeps working while the library is refactored.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.count_errors: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict takes extra counts."""
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.monotonic(),
            "cpu_start": time.process_time(),
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.monotonic()
            record["cpu_s"] = time.process_time() - record.pop("cpu_start")

    def wrap(self, target: str, span_name: str, count=None, before=None) -> None:
        """Replace `package.module.attr` with a wrapper recording `span_name`.

        `count(args, kwargs, result)` returns a dict of counts for the span;
        `before(args, kwargs)` runs ahead of the call.
        """
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(target)
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(target)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            with self.span(span_name) as record:
                result = original(*args, **kwargs)
                if count is not None:
                    try:
                        record.update(count(args, kwargs, result))
                    except Exception as exc:  # a changed signature must not stop the job
                        self.count_errors.append(f"{target}: {type(exc).__name__}: {exc}")
                return result

        setattr(module, attr, wrapper)

    def dump(self, path: Path) -> None:
        payload = {"spans": self.spans, "missing": self.missing, "count_errors": self.count_errors}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _rows(matrix):
    return getattr(matrix, "rows", matrix)


def _gemm_gflop(n: int, d: int, m: int) -> float:
    return 2.0 * n * d * m / 1e9


def _relevance_count(args, kwargs, result) -> dict:
    views, targets, weights = args[:3]
    gflop = 0.0
    for name, w in weights.weights.items():
        if w == 0.0:
            continue
        n, d = _rows(views[name]).shape
        gflop += sum(_gemm_gflop(n, d, ds.views[name].shape[0]) for ds in targets.datasets)
    return {"rows": int(result.shape[0]), "gflop": gflop}


def _selection_count(args, kwargs, result) -> dict:
    return {"rounds": result.rounds, "picks": len(result.picks), "pool_rows": result.pool_size}


class _RunningMax:
    """Counts for `update_running_max`, which is called once per view per round.

    A refreshed row is useful when it is still uncommitted after the
    batch being folded in: committed rows never compete again.
    """

    def __init__(self) -> None:
        self.committed: dict[int, int] = {}

    def reset(self, args, kwargs) -> None:
        self.committed.clear()

    def count(self, args, kwargs, result) -> dict:
        rows, batch, running = args[:3]
        committed = self.committed.get(id(running), 1) + batch.shape[0]
        self.committed[id(running)] = committed
        n, d = rows.shape
        return {
            "rows": n,
            "useful_rows": max(n - committed, 0),
            "gflop": _gemm_gflop(n, d, batch.shape[0]),
        }


def install(tracer: Tracer) -> None:
    """Wrap the library's layer boundaries.

    Each name is wrapped where its caller looks it up: `cli` imported
    `load_view` into its own namespace, so both `cli.load_view` and
    `store.load_view` are wrapped, each around the original function.
    """
    running_max = _RunningMax()
    cs = "corpus_select."
    wraps = [
        ("cli.load_corpus", "store.load_corpus", None, None),
        ("cli.load_targets", "store.load_targets", None, None),
        ("store.load_manifest", "store.load_manifest", lambda a, k, r: {"rows": len(r)}, None),
        ("store.load_view", "store.load_view", lambda a, k, r: {"bytes": r.rows.nbytes}, None),
        ("cli.load_view", "store.load_view", lambda a, k, r: {"bytes": r.rows.nbytes}, None),
        ("store.l2_normalize", "store.l2_normalize", None, None),
        ("store.save_view", "store.save_view", lambda a, k, r: {"bytes": a[0].rows.nbytes}, None),
        ("cli.save_view", "store.save_view", lambda a, k, r: {"bytes": a[0].rows.nbytes}, None),
        (
            "cli.project_view",
            "projection.project_view",
            lambda a, k, r: {"gflop": _gemm_gflop(a[0].row_count, a[0].dims, r.dims)},
            None,
        ),
        ("cli.compact_targets", "compaction.compact_targets", None, None),
        ("compaction.kmeans", "compaction.kmeans", lambda a, k, r: {"iterations": r.iterations}, None),
        ("selection.batched_mmr", "selection.batched_mmr", _selection_count, running_max.reset),
        ("cli.batched_mmr", "selection.batched_mmr", _selection_count, running_max.reset),
        ("selection.relevance_multi_dataset", "relevance", _relevance_count, None),
        ("selection._ranked", "selection.prefilter", None, None),
        ("selection.update_running_max", "selection.running_max", running_max.count, None),
        ("cli._write_selection", "cli.write_selection", None, None),
        (
            "cli._input_files",
            "cli.input_digest",
            lambda a, k, r: {"bytes": sum(e["bytes"] for e in r.values())},
            None,
        ),
        ("cli._file_entry", "cli.file_digest", lambda a, k, r: {"bytes": r["bytes"]}, None),
        ("cli.emit_run_manifest", "cli.run_manifest", None, None),
        ("fixture.make_fixture", "fixture.make_fixture", None, None),
    ]
    for target, span_name, count, before in wraps:
        tracer.wrap(cs + target, span_name, count, before)


# ---------- per-layer metrics, computed in the parent from dumped spans ----------

PER_LAYER_UNITS = {
    "store.load_manifest.s": "s",
    "store.load_manifest.rows_per_s": "1/s",
    "store.load_view.s": "s",
    "store.load_view.mb": "MB",
    "store.l2_normalize.s": "s",
    "store.save_view.s": "s",
    "store.save_view.mb": "MB",
    "projection.project_view.s": "s",
    "projection.project_view.gflop": "GFLOP",
    "compaction.compact_targets.s": "s",
    "compaction.iterations": "count",
    "relevance.s": "s",
    "relevance.gflop": "GFLOP",
    "relevance.gflop_per_s": "GFLOP/s",
    "selection.running_max.s": "s",
    "selection.running_max.cpu_s": "s",
    "selection.running_max.calls": "count",
    "selection.running_max.gflop": "GFLOP",
    "selection.running_max.useful_share": "ratio",
    "selection.prefilter.s": "s",
    "selection.rank.s": "s",
    "selection.rounds": "count",
    "selection.picks": "count",
    "selection.pool_rows": "count",
    "cli.input_digest.s": "s",
    "cli.input_digest.mb": "MB",
    "cli.output_digest.s": "s",
    "cli.write_selection.s": "s",
    "fixture.make_fixture.s": "s",
    "job.import.s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _self_time(spans: list[dict], index: int) -> float:
    children = sum(_dur(s) for s in spans if s["parent"] == index)
    return _dur(spans[index]) - children


def coverage(spans: list[dict], wall_start: float, wall_end: float) -> float:
    """Share of the child's wall time inside outermost spans."""
    covered = sum(_dur(s) for s in spans if s["parent"] is None)
    return covered / (wall_end - wall_start)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced job; layers the job never entered are left out.

    Times are inclusive of nested spans, except `selection.rank.s`, the
    self time of `batched_mmr`: its own per-round ranking and bookkeeping.
    """
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(i)

    def total(name: str, key: str | None = None) -> float:
        return sum((spans[i].get(key, 0) if key else _dur(spans[i])) for i in by_name[name])

    out: dict[str, float] = {}
    if "store.load_manifest" in by_name:
        secs = total("store.load_manifest")
        out["store.load_manifest.s"] = secs
        out["store.load_manifest.rows_per_s"] = total("store.load_manifest", "rows") / secs
    for name in ("store.load_view", "store.save_view"):
        if name in by_name:
            out[f"{name}.s"] = total(name)
            out[f"{name}.mb"] = total(name, "bytes") / 1e6
    for name in (
        "store.l2_normalize",
        "compaction.compact_targets",
        "selection.prefilter",
        "cli.write_selection",
        "fixture.make_fixture",
        "job.import",
    ):
        if name in by_name:
            out[f"{name}.s"] = total(name)
    if "projection.project_view" in by_name:
        out["projection.project_view.s"] = total("projection.project_view")
        out["projection.project_view.gflop"] = total("projection.project_view", "gflop")
    if "compaction.kmeans" in by_name:
        out["compaction.iterations"] = total("compaction.kmeans", "iterations")
    if "relevance" in by_name:
        secs = total("relevance")
        out["relevance.s"] = secs
        out["relevance.gflop"] = total("relevance", "gflop")
        out["relevance.gflop_per_s"] = out["relevance.gflop"] / secs
    if "selection.running_max" in by_name:
        out["selection.running_max.s"] = total("selection.running_max")
        out["selection.running_max.cpu_s"] = total("selection.running_max", "cpu_s")
        out["selection.running_max.calls"] = len(by_name["selection.running_max"])
        out["selection.running_max.gflop"] = total("selection.running_max", "gflop")
        refreshed = total("selection.running_max", "rows")
        if refreshed:
            out["selection.running_max.useful_share"] = (
                total("selection.running_max", "useful_rows") / refreshed
            )
    if "selection.batched_mmr" in by_name:
        out["selection.rank.s"] = sum(_self_time(spans, i) for i in by_name["selection.batched_mmr"])
        for key in ("rounds", "picks", "pool_rows"):
            out[f"selection.{key}"] = total("selection.batched_mmr", key)
    if "cli.input_digest" in by_name:
        out["cli.input_digest.s"] = total("cli.input_digest")
        out["cli.input_digest.mb"] = total("cli.input_digest", "bytes") / 1e6
    inside_input = set(by_name.get("cli.input_digest", ()))
    outputs = [i for i in by_name.get("cli.file_digest", ()) if spans[i]["parent"] not in inside_input]
    if outputs:
        out["cli.output_digest.s"] = sum(_dur(spans[i]) for i in outputs)
    return out
