"""Compare a base commit with the working tree, job by job, in alternating pairs.

    python3 tools/ab.py --base HEAD --pairs 20 --jobs criterion-10 manifest-load-1m --out BENCH_x.json
    python3 tools/ab.py --base HEAD --pairs 10 --jobs perfbench:mmr-random --seconds 20 --out BENCH_x.json

Run from the root of a checkout. The base commit is exported with `git
archive` (a `git worktree` would register itself in the repository). A
job is an argv run by a fresh `python3` child in each side's checkout,
with its `src` and `tests` on PYTHONPATH, started from `_LAUNCHER`: a
`python3 -S` process of a few MB that reads the child's `ru_maxrss` from
`os.wait4` (`peak_mb`; Linux carries the starter's RSS high-water mark
into a child). The child's last stdout line is JSON: the seconds and CPU
seconds of its timed region and a digest of what it computed or wrote.

Each job runs `--pairs` pairs; the side that goes first alternates. Per
job and metric the BENCH file gives each side's median and quartiles,
the pairs the change won (lower is better, but higher for
`pick_relevance_mean`), the ties, an exact two-sided sign-test p over the
other pairs, the quartiles of the paired ratio change / base, and every
run. The jobs:

- `criterion-10`: `test_criterion_10_throughput_smoke`'s `batched_mmr` on
  1M x 256 random unit rows (seed 1010); the digest covers every pick.
- `manifest-load-{100k,1m}[-null-id]`: `store.load_manifest` of a manifest
  in `save_manifest`'s form, written once (seed 29, five tags);
  `-null-id`'s middle id is `annulled-take-2`. `manifest-save-{100k,1m}`:
  `save_manifest(Manifest(...))` as `fixture.make_fixture` calls it.
- `select-1m`: CLI `select` with default flags on the README's 1M x 256
  fixture, made once by the base's code; the digest covers the selection.
- `perfbench:<workload>`: `perfbench/run.py --workload W --seed P
  --seconds S --trace 0` for pair P (from 1), read from its results file:
  `end_to_end`, `failed_share`, and the pick and output digests. Then one
  traced run per side at seed 1 gives `traced_layers`, and one
  `perfbench/job.py run` per side from `_LAUNCHER` gives `own_peak_mb`
  (the harness floors its jobs' `peak_rss_mb` at its own RSS).

The BENCH file is written after each job, keeping the jobs an existing
`--out` file holds. It exits 1 when the sides' digests differ in a pair.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

# Starts `python3 ARGS...` and prints the child's peak RSS (KiB) and exit code.
_LAUNCHER = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(usage.ru_maxrss, os.waitstatus_to_exitcode(status))\n"
)

_CRITERION_10 = """
import hashlib, json, os, time
import numpy as np
from corpus_select.relevance import FusionWeights
from corpus_select.selection import SelectionConfig, batched_mmr
from corpus_select.store import TargetDataset, TargetSet, _normalize_rows
from conftest import unit_rows

rng = np.random.default_rng(1010)
n, d = 1_000_000, 256
rows = rng.standard_normal((n, d), dtype=np.float32)
view = _normalize_rows(rows)
del rows
durations = rng.uniform(2.0, 15.0, size=n)
targets = TargetSet([TargetDataset("t", {"v": unit_rows(rng, 200, d)})])
cfg = SelectionConfig(alpha=0.05, lam=0.7, rho=0.15, batch_size=1024, weights=FusionWeights({"v": 1.0}))
start, cpu = time.perf_counter(), time.process_time()
result = batched_mmr(durations, {"v": view}, targets, cfg, threads=os.cpu_count() or 1)
seconds, cpu_seconds = time.perf_counter() - start, time.process_time() - cpu
picks = np.array([(p.index, p.relevance, p.diversity, p.mmr) for p in result.picks], dtype=np.float64)
digest = hashlib.sha256(picks.tobytes()).hexdigest()
print(json.dumps({"seconds": seconds, "cpu_seconds": cpu_seconds, "digest": digest}))
"""

_TAGS = ("podcast", "audiobook", "broadcast", "meeting", "read-speech")

_MANIFEST = """
import hashlib, json, sys, time
import numpy as np
from corpus_select.store import Manifest, load_manifest, save_manifest

if sys.argv[1] == "load":
    start, cpu = time.perf_counter(), time.process_time()
    manifest = load_manifest(sys.argv[2])
    seconds, cpu_seconds = time.perf_counter() - start, time.process_time() - cpu
    digest = hashlib.sha256("\\0".join(manifest.ids).encode())
    digest.update(manifest.durations.tobytes())
    digest.update("\\0".join(manifest.datasets).encode())
else:
    lines = int(sys.argv[3])
    ids = [f"utt-{i:07d}" for i in range(lines)]
    durations = np.random.default_rng(29).uniform(2.0, 15.0, size=lines)
    tags = [TAGS[i % len(TAGS)] for i in range(lines)]
    start, cpu = time.perf_counter(), time.process_time()
    save_manifest(Manifest(ids, durations, tags), sys.argv[2])
    seconds, cpu_seconds = time.perf_counter() - start, time.process_time() - cpu
    with open(sys.argv[2], "rb") as fh:
        digest = hashlib.sha256(fh.read())
print(json.dumps({"seconds": seconds, "cpu_seconds": cpu_seconds, "digest": digest.hexdigest()}))
""".replace("TAGS", repr(_TAGS))

_SELECT = """
import hashlib, json, sys, time
from corpus_select.cli import run

start, cpu = time.perf_counter(), time.process_time()
code = run(["select", *sys.argv[1:]])
seconds, cpu_seconds = time.perf_counter() - start, time.process_time() - cpu
with open(sys.argv[-1], "rb") as fh:
    digest = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps({"seconds": seconds, "cpu_seconds": cpu_seconds, "digest": digest}))
sys.exit(code)
"""
_FIXTURE_1M = ["stats", "--make-fixture", "--utterances", "1000000", "--views", "v:256", "--clusters", "10", "--target-rows", "2000", "--seed", "7"]

HIGHER = {"pick_relevance_mean"}  # every other metric is better lower
LAYERS = (  # not relevance.gflop: the traced count takes every row as scored exactly
    "selection.running_max.s", "selection.running_max.gflop", "selection.running_max.calls", "selection.rank.s",
    "relevance.s", "store.load_manifest.s", "store.load_view.s", "store.save_view.s", "compaction.compact_targets.s",
    "compaction.iterations", "projection.project_view.s", "fixture.make_fixture.s",
)  # fmt: skip


@dataclasses.dataclass
class Job:
    """`argv(checkout, work, pair)` gives the child's python arguments, run with `cwd=checkout`;
    `read(checkout, pair, report, peak_mb)` turns the child's last stdout line and peak
    into the run's record: numeric metrics and a `digest`. `extra(sides, work)` adds keys."""

    name: str
    argv: Callable[[Path, Path, int], list[str]]
    read: Callable[[Path, int, str, float], dict] = lambda checkout, pair, report, peak_mb: {**json.loads(report), "peak_mb": peak_mb}
    extra: Callable[[dict[str, Path], Path], dict] | None = None


def launch(checkout: Path, args: list[str]) -> tuple[str, float]:
    """Run `python3 ARGS` in `checkout` from `_LAUNCHER`; the child's last stdout line and peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(checkout / "tests")]))
    cmd = [sys.executable, "-S", "-c", _LAUNCHER, *args]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    maxrss_kib, code = map(int, lines[-1].split()) if done.returncode == 0 and lines else (0, done.returncode)
    if code != 0:
        raise RuntimeError(f"{checkout}: {' '.join(args)[:200]} exited with {code}\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return (lines[-2] if len(lines) > 1 else ""), maxrss_kib / 1024.0


def write_manifest(path: Path, lines: int, odd_id: str | None) -> None:
    """`lines` manifest lines in `save_manifest`'s form; `odd_id` replaces the middle line's id."""
    rng = random.Random(29)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(lines):
            utt_id = odd_id if odd_id is not None and i == lines // 2 else f"utt-{i:07d}"
            fh.write(json.dumps({"id": utt_id, "duration_s": rng.uniform(2.0, 15.0), "dataset": _TAGS[i % len(_TAGS)]}) + "\n")


def manifest_job(name: str, lines: int, odd_id: str | None = None, save: bool = False) -> Job:
    def argv(checkout: Path, work: Path, pair: int) -> list[str]:
        path = work / f"{name}.jsonl"
        if save:
            return ["-c", _MANIFEST, "save", str(path), str(lines)]
        if not path.exists():
            write_manifest(path, lines, odd_id)
        return ["-c", _MANIFEST, "load", str(path)]

    return Job(name, argv)


def select_argv(checkout: Path, work: Path, pair: int) -> list[str]:
    corpus, targets = work / "select-1m" / "corpus", work / "select-1m" / "targets"
    if not corpus.exists():
        launch(checkout, ["-m", "corpus_select.cli", *_FIXTURE_1M, "--out", str(corpus), "--targets-out", str(targets)])
    return ["-c", _SELECT, "--corpus", str(corpus), "--targets", str(targets), "--out", str(work / "selection.jsonl")]


def perfbench_job(workload: str, seconds: float) -> Job:
    def argv(checkout: Path, work: Path, pair: int, trace: int = 0) -> list[str]:
        return ["perfbench/run.py", "--workload", workload, "--seed", str(pair + 1), "--seconds", str(seconds), "--trace", str(trace)]

    def results(checkout: Path, pair: int, trace: int = 0) -> dict:
        path = checkout / ".perfbench" / "results" / f"{workload}-seed{pair + 1}-trace{trace}.json"
        return json.loads(path.read_text(encoding="utf-8"))

    def read(checkout: Path, pair: int, report: str, peak_mb: float) -> dict:
        result = results(checkout, pair)
        digest = f"{result['pick_digest']}/{result['output_digest']}"
        return {**result["end_to_end"], "failed_share": result["failed_share"], "digest": digest}

    def extra(sides: dict[str, Path], work: Path) -> dict:
        """Traced layers and the job's own peak, one run per side at seed 1."""
        layers, peaks = {}, {}
        for side, checkout in sides.items():
            launch(checkout, argv(checkout, work, 0, trace=1))
            layers[side] = results(checkout, 0, trace=1)["per_layer"]
            job_dir = work / f"{workload}-{side}"
            job_dir.mkdir()
            spec = WORKLOADS[workload]
            job = {"workload": workload, "seed": 1, "params": spec.params, "select": dataclasses.asdict(spec.select)}
            (job_dir / "job.json").write_text(json.dumps(job), encoding="utf-8")
            subprocess.run([sys.executable, "perfbench/job.py", "setup", str(job_dir)], cwd=checkout, check=True, capture_output=True)
            peaks[side] = launch(checkout, ["perfbench/job.py", "run", str(job_dir)])[1]
            shutil.rmtree(job_dir)
        return {
            "traced_layers": {key: {side: layers[side].get(key) for side in sides} for key in LAYERS},
            "own_peak_mb": {"seed": 1, **peaks},
        }

    return Job(f"perfbench:{workload}", argv, read, extra)


def jobs(seconds: float) -> dict[str, Job]:
    """Every job by name; `seconds` is each perfbench run's --seconds."""
    defined = [Job("criterion-10", lambda checkout, work, pair: ["-c", _CRITERION_10])]
    for size, lines in (("100k", 100_000), ("1m", 1_000_000)):
        defined += [
            manifest_job(f"manifest-load-{size}", lines),
            manifest_job(f"manifest-load-{size}-null-id", lines, odd_id="annulled-take-2"),
            manifest_job(f"manifest-save-{size}", lines, save=True),
        ]
    defined += [Job("select-1m", select_argv), *(perfbench_job(workload, seconds) for workload in WORKLOADS)]
    return {job.name: job for job in defined}


def pair_order(pair: int) -> tuple[str, str]:
    """The sides in the order they run in pair `pair`: base first in even pairs."""
    return ("base", "change") if pair % 2 == 0 else ("change", "base")


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign test p of `wins` against `losses` (ties left out)."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]} if values else None
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per metric: each side's quartiles, the change's wins and ties, the sign-test p and the paired ratio."""
    metrics = {}
    for key in (k for k, v in runs["base"][0].items() if k != "digest" and isinstance(v, (int, float))):
        pairs = [(b[key], c[key]) for b, c in zip(runs["base"], runs["change"])]
        wins = sum((c > b) if key in HIGHER else (c < b) for b, c in pairs)
        ties = sum(c == b for b, c in pairs)
        metrics[key] = {
            "base": _quartiles([b for b, _ in pairs]),
            "change": _quartiles([c for _, c in pairs]),
            "change_wins": wins,
            "ties": ties,
            "sign_p": sign_test_p(wins, len(pairs) - wins - ties),
            "change_over_base": _quartiles([c / b for b, c in pairs if b]),
        }
    return metrics


def compare(job: Job, sides: dict[str, Path], pairs: int, work: Path) -> dict:
    """Run `job` for `pairs` alternating pairs; its BENCH entry."""
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for pair in range(pairs):
        for side in pair_order(pair):
            print(f"[{job.name}] pair {pair + 1}/{pairs}, {side}", file=sys.stderr, flush=True)
            report, peak_mb = launch(sides[side], job.argv(sides[side], work, pair))
            runs[side].append(job.read(sides[side], pair, report, peak_mb))
    entry = {
        "pairs": pairs,
        "metrics": summarize(runs),
        "same_digests": all(b["digest"] == c["digest"] for b, c in zip(runs["base"], runs["change"])),
        **(job.extra(sides, work) if job.extra else {}),
        "runs": runs,
    }
    for key, m in entry["metrics"].items():
        ratio = m["change_over_base"] or {"median": math.nan, "q1": math.nan, "q3": math.nan}
        print(
            f"{job.name} {key}: {m['base']['median']:.4g} -> {m['change']['median']:.4g} "
            f"(x{ratio['median']:.3f}, IQR x{ratio['q1']:.3f}-x{ratio['q3']:.3f}), "
            f"change wins {m['change_wins']}/{pairs}, ties {m['ties']}, sign p {m['sign_p']:.3g}",
            flush=True,
        )
    print(f"{job.name}: same digests {entry['same_digests']}", flush=True)
    return entry


def run(selected: list[Job], sides: dict[str, Path], pairs: int, out: Path, header: dict, command: str = "") -> int:
    """Compare each job, adding it to the BENCH file `out` (with `header`) as it ends; 1 if any digests differ."""
    bench = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    bench.update(header)
    with tempfile.TemporaryDirectory(prefix="ab-work-", dir=sides["base"].parent) as work:
        for job in selected:
            bench.setdefault("jobs", {})[job.name] = {"command": command, **compare(job, sides, pairs, Path(work))}
            out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    return 0 if all(bench["jobs"][job.name]["same_digests"] for job in selected) else 1


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_commit(rev: str, dest: Path) -> str:
    """Extract the tree of `rev` into `dest`; returns the full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def source_lines(checkout: Path) -> dict[str, int]:
    """Newline count of each `src/corpus_select/*.py` file, as `wc -l` gives it, and the total."""
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted((checkout / "src" / "corpus_select").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--jobs", nargs="+", choices=list(jobs(0)), default=list(jobs(0)))
    parser.add_argument("--seconds", type=float, default=20.0, help="each perfbench run's --seconds")
    parser.add_argument("--scratch", type=Path, help="directory for the base checkout and the job files (default: a temporary one)")
    parser.add_argument("--out", type=Path, required=True, help="BENCH file to write, or to add the jobs to")
    args = parser.parse_args(argv)

    from run import numeric_environment  # perfbench's, as its results files record it

    defined = jobs(args.seconds)
    with tempfile.TemporaryDirectory(prefix="ab-", dir=args.scratch) as scratch:
        sides = {"base": Path(scratch) / "base", "change": ROOT}
        header = {
            "base_commit": export_commit(args.base, sides["base"]),
            "change": f"working tree on {_git('rev-parse', 'HEAD').decode().strip()}",
            "environment": numeric_environment(),
            "src_lines": {side: source_lines(checkout) for side, checkout in sides.items()},
        }
        command = ["python3", "tools/ab.py", "--base", args.base, "--pairs", str(args.pairs), "--jobs", *args.jobs]
        command += ["--seconds", str(args.seconds), "--out", args.out.name]
        return run([defined[name] for name in args.jobs], sides, args.pairs, args.out, header, " ".join(command))


if __name__ == "__main__":
    sys.exit(main())
