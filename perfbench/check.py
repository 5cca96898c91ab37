"""Output checker: a brute-force numpy recomputation that shares no code with the library.

A selection file passes when every check below holds:

- pick ids are unique and name rows of the corpus;
- the budget invariants of batched MMR hold: the budget is alpha times the
  total duration, cumulative durations are the running sums of the picks'
  durations, the selection reaches the budget, and it was still short of
  it before the last round started (rounds commit B picks at a time);
- the footer's pool size and round count follow from rho, N and B;
- after the seed pick, MMR scores never rise along the pick list: the
  diversity penalty only grows, so each round's picks score at most the
  previous round's;
- every pick's relevance, and the diversity and MMR score of a seeded
  sample of picks, agree with a recomputation from the input files
  within TOLERANCE. Pick p (0-based) was committed in round
  (p - 1) // B + 1; its diversity is measured against the seed pick and
  every earlier round's picks.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import SelectSpec

TOLERANCE = 1e-6  # float32 rows, float64 dot products: errors stay near 1e-7
DIVERSITY_SAMPLE = 2048

_EMB_HEADER = struct.Struct("<4sIBQI")


def read_emb(path: Path) -> tuple[np.ndarray, bool]:
    """Memory-map an EMB1 view file; returns rows and the normalized flag."""
    with open(path, "rb") as fh:
        magic, _version, flag, n, d = _EMB_HEADER.unpack(fh.read(_EMB_HEADER.size))
    if magic != b"EMB1":
        raise ValueError(f"{path}: not an EMB1 file")
    rows = np.memmap(path, dtype="<f4", mode="r", offset=_EMB_HEADER.size, shape=(n, d))
    return rows, bool(flag)


def read_manifest(path: Path) -> tuple[list[str], np.ndarray]:
    ids, durations = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            ids.append(rec["id"])
            durations.append(rec["duration_s"])
    return ids, np.array(durations, dtype=np.float64)


class View:
    """Rows of one embedding view, unit-normalized in float64 on access."""

    def __init__(self, rows: np.ndarray, normalized: bool) -> None:
        self.rows = rows
        self.normalized = normalized

    def unit(self, index=slice(None)) -> np.ndarray:
        rows = np.asarray(self.rows[index], dtype=np.float64)
        if not self.normalized:
            norms = np.linalg.norm(rows, axis=1, keepdims=True)
            rows = np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 0)
        return rows


@dataclass
class SelectionInputs:
    ids: list[str]
    durations: np.ndarray
    views: dict[str, View]
    targets: list[dict[str, np.ndarray]]  # per dataset: view name -> unit rows


def load_inputs(workload: str, work: Path, spec: SelectSpec) -> SelectionInputs:
    """Read the inputs of a workload's select step from its work directory."""
    names = list(spec.weights)
    if workload == "mmr-random":
        rows = np.load(work / "inputs" / "rows.npy", mmap_mode="r")
        durations = np.load(work / "inputs" / "durations.npy")
        targets = np.load(work / "inputs" / "targets.npy").astype(np.float64)
        ids = [f"row-{i}" for i in range(rows.shape[0])]
        return SelectionInputs(ids, durations, {"emb": View(rows, True)}, [{"emb": targets}])
    ids, durations = read_manifest(work / "corpus" / "manifest.jsonl")
    views = {name: View(*read_emb(work / "corpus" / f"{name}.emb")) for name in names}
    target_root = work / ("compact" if workload == "pipeline-multiview" else "targets")
    targets = [
        {name: View(*read_emb(ds / f"{name}.emb")).unit() for name in names}
        for ds in sorted(p for p in target_root.iterdir() if p.is_dir())
    ]
    return SelectionInputs(ids, durations, views, targets)


def read_selection(path: Path) -> tuple[list[dict], dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines[:-1]], json.loads(lines[-1])


def pick_digest(path: Path) -> str:
    """SHA-256 of the pick ids in order, one per line."""
    picks, _ = read_selection(path)
    return hashlib.sha256("\n".join(p["id"] for p in picks).encode("utf-8")).hexdigest()


def _weights(spec: SelectSpec) -> dict[str, float]:
    total = sum(spec.weights.values())
    return {name: w / total for name, w in spec.weights.items()}


def _relevance(inputs: SelectionInputs, rows: np.ndarray, spec: SelectSpec) -> np.ndarray:
    weights = _weights(spec)
    unit = {name: inputs.views[name].unit(rows) for name in weights}
    per_ds = [
        {name: np.clip((unit[name] @ ds[name].T).max(axis=1), -1.0, 1.0) for name in weights}
        for ds in inputs.targets
    ]
    if spec.aggregate == "max":
        best = {name: np.max([sims[name] for sims in per_ds], axis=0) for name in weights}
        return np.clip(sum(w * best[name] for name, w in weights.items()), -1.0, 1.0)
    fused = [np.clip(sum(w * sims[name] for name, w in weights.items()), -1.0, 1.0) for sims in per_ds]
    return np.mean(fused, axis=0)


def _diversity(inputs: SelectionInputs, rows: np.ndarray, committed: np.ndarray, spec: SelectSpec) -> np.ndarray:
    total = np.zeros(len(rows))
    for name, w in _weights(spec).items():
        view = inputs.views[name]
        sims = view.unit(rows) @ view.unit(committed).T
        total += w * np.clip(sims.max(axis=1), -1.0, 1.0)
    return np.clip(total, -1.0, 1.0)


def _mismatch(field: str, positions, got, want) -> list[str]:
    bad = np.flatnonzero(np.abs(np.asarray(got) - want) > TOLERANCE)
    if not bad.size:
        return []
    i = bad[0]
    return [
        f"{field} of pick {positions[i] + 1} is {float(got[i])!r}, recomputed {float(want[i])!r} "
        f"({bad.size} picks differ by more than {TOLERANCE})"
    ]


def check_selection(path: Path, inputs: SelectionInputs, spec: SelectSpec, seed: int) -> list[str]:
    """Return the problems found in a selection file; empty when it passes."""
    picks, footer = read_selection(path)
    if not picks:
        return ["selection is empty"]
    index_of = {utt: i for i, utt in enumerate(inputs.ids)}
    ids = [p["id"] for p in picks]
    if len(set(ids)) != len(ids):
        return ["a pick id is duplicated"]
    unknown = [utt for utt in ids if utt not in index_of]
    if unknown:
        return [f"pick id {unknown[0]!r} is not in the corpus"]
    rows = np.array([index_of[utt] for utt in ids])
    n, count, batch = len(inputs.ids), len(picks), spec.batch
    problems: list[str] = []

    budget = spec.alpha * float(inputs.durations.sum())
    if not math.isclose(footer["budget_s"], budget, rel_tol=1e-12):
        problems.append(f"budget_s {footer['budget_s']} != alpha * total duration {budget}")
    cum = np.cumsum(inputs.durations[rows])
    reported = np.array([p["cumulative_duration_s"] for p in picks])
    if not np.allclose(reported, cum, rtol=1e-9, atol=0.0):
        first = int(np.flatnonzero(~np.isclose(reported, cum, rtol=1e-9, atol=0.0))[0])
        problems.append(f"cumulative duration of pick {first + 1} is not the running sum of durations")
    if not math.isclose(footer["total_selected_s"], cum[-1], rel_tol=1e-9):
        problems.append("total_selected_s is not the last cumulative duration")
    pool = min(n, max(1, math.ceil(spec.rho * n)))
    if footer["pool_size"] != pool:
        problems.append(f"pool_size {footer['pool_size']} != ceil(rho * N) = {pool}")
    rounds = math.ceil((count - 1) / batch)
    if footer["rounds"] != rounds:
        problems.append(f"rounds {footer['rounds']} != ceil((picks - 1) / B) = {rounds}")
    if footer["exhausted"]:
        if count != pool:
            problems.append("marked exhausted with prefilter pool rows left")
    else:
        if cum[-1] < budget:
            problems.append("selection stops short of the budget")
        before_last = 1 + (rounds - 1) * batch
        if rounds and cum[before_last - 1] >= budget:
            problems.append("a round started after the budget was already reached")

    # the seed pick is left out: its penalty is 0 by definition, while a
    # later pick's penalty (its best cosine to the committed set) can be negative
    mmr = np.array([p["mmr"] for p in picks])
    rising = np.flatnonzero(mmr[2:] > mmr[1:-1] + TOLERANCE)
    if rising.size:
        problems.append(f"mmr rises from pick {rising[0] + 2} to pick {rising[0] + 3}")

    positions = np.arange(count)
    relevance = np.array([p["relevance"] for p in picks])
    problems += _mismatch("relevance", positions, relevance, _relevance(inputs, rows, spec))

    rng = np.random.default_rng([seed, 3])
    sample = np.sort(rng.choice(np.arange(1, count), size=min(count - 1, DIVERSITY_SAMPLE), replace=False))
    diversity = np.array([p["diversity"] for p in picks])
    want_v = np.zeros(count)
    if picks[0]["diversity"] != 0.0:
        problems.append("the seed pick has a nonzero diversity penalty")
    rounds_of = (sample - 1) // batch + 1
    for k in np.unique(rounds_of):
        members = sample[rounds_of == k]
        want_v[members] = _diversity(inputs, rows[members], rows[: 1 + (k - 1) * batch], spec)
    problems += _mismatch("diversity", sample, diversity[sample], want_v[sample])
    want_m = spec.lam * relevance - (1.0 - spec.lam) * want_v
    checked = np.concatenate(([0], sample))
    problems += _mismatch("mmr", checked, mmr[checked], want_m[checked])
    return problems


def check_unit_view(path: Path, rows: int, dims: int) -> list[str]:
    """An output view has the expected shape, the normalized flag and unit rows."""
    mat, normalized = read_emb(path)
    if mat.shape != (rows, dims):
        return [f"{path.name}: shape {mat.shape}, expected {(rows, dims)}"]
    if not normalized:
        return [f"{path.name}: normalized flag is not set"]
    norms = np.linalg.norm(np.asarray(mat, dtype=np.float64), axis=1)
    if np.any((norms != 0.0) & (np.abs(norms - 1.0) > 1e-4)):
        return [f"{path.name}: rows are not unit length"]
    return []


def check_pipeline_outputs(work: Path, params: dict) -> list[str]:
    """Projected views and compacted targets of pipeline-multiview."""
    problems = check_unit_view(work / "corpus" / "speaker256.emb", params["rows"], 256)
    for m in range(params["target_datasets"]):
        ds = work / "compact" / f"target-{m}"
        expected = min(params["k"], params["target_rows"])
        for name, dims in {**params["views"], "speaker256": 256}.items():
            problems += check_unit_view(ds / f"{name}.emb", expected, dims)
    return problems
