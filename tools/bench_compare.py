"""Benchmark a base commit against the working tree and write a BENCH file.

    python3 tools/bench_compare.py --base HEAD --seeds 1 2 3 4 5 6 7 8 9 10 \
        --trace-seeds 1 --seconds 20 --out BENCH_options_once.json

Run from the root of a checkout. The base commit is exported with
`git archive` into a scratch directory (a `git worktree` would register
itself in the repository). For each seed, `perfbench/run.py --workload
NAME --trace 0` runs once per workload on each side, one at a time, with
the side that goes first alternating from seed to seed; each
`--trace-seeds` seed adds one traced run (`--trace 1`) per side for the
per-layer numbers. Each workload runs in its own harness process, as the
benchmark runs them: a harness that has run and checked another workload
holds more memory, and every job's `peak_rss_mb` includes it. The
BENCH file gives, per workload, every end-to-end metric as each side's
median and quartiles over seeds, the change's wins out of the pairs, the
traced running-max, ranking, relevance, load, projection, compaction
and fixture layers (with the k-means iteration count; `null` where a
traced run has no such layer), the pick digests of both sides, whether the pick and
output digests agree on every seed, each side's `wc -l
src/corpus_select/*.py` and the numeric environment of the host.

The harness reads a job's `peak_rss_mb` from `os.wait4`, and Linux carries
the starting process's RSS high-water mark into a child across fork and
exec, so that value is at least the harness's own RSS. So per workload the
BENCH file also gives `own_peak_mb`: the job's own peak, from one set-up and
one job per side on the first seed, the job started from a small launcher
(`_LAUNCHER`, a few MB) that reads the child's `ru_maxrss`.

Per workload it prints the `wall_s`, `cpu_s`, `peak_rss_mb` and `setup_s`
medians of both sides, the change's median over the base's, its wins,
and the own peaks. It exits 1, after writing the BENCH file, when the
picks or outputs of the two sides differ on any workload.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

LAYERS = (
    "selection.running_max.s",
    "selection.running_max.gflop",
    "selection.running_max.calls",
    "selection.rank.s",
    "relevance.s",  # not relevance.gflop: the traced count takes every row as scored exactly
    "store.load_manifest.s",
    "store.load_view.s",
    "store.save_view.s",
    "compaction.compact_targets.s",
    "compaction.iterations",
    "projection.project_view.s",
    "fixture.make_fixture.s",
)
END_TO_END = {
    "wall_s": "lower",
    "cpu_s": "lower",
    "peak_rss_mb": "lower",
    "setup_s": "lower",
    "pick_relevance_mean": "higher",
    "pick_diversity_mean": "lower",
}


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
    counts = {
        path.name: path.read_bytes().count(b"\n")
        for path in sorted((checkout / "src" / "corpus_select").glob("*.py"))
    }
    return {**counts, "total": sum(counts.values())}


def run_bench(checkout: Path, seed: int, seconds: float, trace: int) -> dict[str, dict]:
    """One `perfbench/run.py --workload NAME` run per workload; the result of each workload by name."""
    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, "perfbench/run.py", "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ]  # fmt: skip
        print(f"[{checkout}] {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{checkout}: exit {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
        path = checkout / ".perfbench" / "results" / f"{name}-seed{seed}-trace{trace}.json"
        results[name] = json.loads(path.read_text())
    return results


# Starts `python3 ARGS...` and prints the child's peak RSS (KiB) and exit code.
_LAUNCHER = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(usage.ru_maxrss, os.waitstatus_to_exitcode(status))\n"
)


def own_peaks(checkout: Path, seed: int, work_root: Path) -> dict[str, float]:
    """Each workload's job peak RSS in MB as the job's own process has it: one
    `job.py setup` and one `job.py run`, started from `_LAUNCHER`, per workload."""
    peaks = {}
    for name, workload in WORKLOADS.items():
        work = work_root / name
        work.mkdir(parents=True)
        job = {"workload": name, "seed": seed, "params": workload.params, "select": dataclasses.asdict(workload.select)}
        (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
        subprocess.run([sys.executable, "perfbench/job.py", "setup", str(work)], cwd=checkout, check=True, capture_output=True)
        launch = [sys.executable, "-S", "-c", _LAUNCHER, "perfbench/job.py", "run", str(work)]
        done = subprocess.run(launch, cwd=checkout, check=True, capture_output=True, text=True)
        maxrss_kib, code = map(int, done.stdout.split()[-2:])
        if code != 0:
            raise RuntimeError(f"{checkout}: the {name} job exited with {code}\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
        peaks[name] = maxrss_kib / 1024.0
        shutil.rmtree(work)
    return peaks


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def _layer_median(traced: list[dict], workload: str, key: str) -> float | None:
    """Median of a layer over traced runs; None if any run lacks it."""
    values = [t[workload]["per_layer"].get(key) for t in traced]
    return None if not values or None in values else statistics.median(values)


def summarize(runs: dict[str, list[dict]], traced: dict[str, list[dict]]) -> dict:
    """Per workload: end-to-end medians, quartiles and wins, traced layers, digests."""
    out = {}
    for name in runs["base"][0]:
        pairs = [(b[name], c[name]) for b, c in zip(runs["base"], runs["change"])]
        end_to_end = {}
        for key, better in END_TO_END.items():
            base = [b["end_to_end"][key] for b, _ in pairs]
            change = [c["end_to_end"][key] for _, c in pairs]
            wins = sum((c < b) if better == "lower" else (c > b) for b, c in zip(base, change))
            stats = {"base": _quartiles(base), "change": _quartiles(change)}
            end_to_end[key] = {
                **stats,
                "change_over_base": stats["change"]["median"] / stats["base"]["median"],
                "base_iqr_over_median": (stats["base"]["q3"] - stats["base"]["q1"]) / stats["base"]["median"],
                "change_wins": f"{wins}/{len(pairs)}",
            }
        layers = {key: {side: _layer_median(traced[side], name, key) for side in traced} for key in LAYERS}
        out[name] = {
            "end_to_end": end_to_end,
            "traced_layers": layers,
            "failed": {side: sum(r[name]["failed"] for r in runs[side]) for side in runs},
            "attempted": {side: sum(r[name]["attempted"] for r in runs[side]) for side in runs},
            "pick_digests": {side: [r[name]["pick_digest"] for r in runs[side]] for side in runs},
            "same_picks": all(b["pick_digest"] == c["pick_digest"] for b, c in pairs),
            "same_outputs": all(b["output_digest"] == c["output_digest"] for b, c in pairs),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare the working tree against")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--trace-seeds", type=int, nargs="*", default=[1])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--scratch", type=Path, help="directory for the base checkout (default: a temporary one)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {"base": [], "change": []}
    traced: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-base-", dir=args.scratch) as scratch:
        base_commit = export_commit(args.base, Path(scratch))
        sides = {"base": Path(scratch), "change": ROOT}
        src_lines = {side: source_lines(checkout) for side, checkout in sides.items()}
        for i, seed in enumerate(args.seeds):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                runs[side].append(run_bench(sides[side], seed, args.seconds, 0))
        for seed in args.trace_seeds:
            for side in ("base", "change"):
                traced[side].append(run_bench(sides[side], seed, args.seconds, 1))
        with tempfile.TemporaryDirectory(prefix="bench-peak-", dir=args.scratch) as work_root:
            own = {side: own_peaks(checkout, args.seeds[0], Path(work_root) / side) for side, checkout in sides.items()}

    environment = next(iter(runs["change"][0].values()))["environment"]
    command = ["python3", "tools/bench_compare.py", "--base", args.base, "--seeds", *map(str, args.seeds)]
    command += ["--trace-seeds", *map(str, args.trace_seeds), "--seconds", str(args.seconds), "--out", args.out.name]
    bench = {
        "command": " ".join(command),
        "base_commit": base_commit,
        "change": f"working tree on {_git('rev-parse', 'HEAD').decode().strip()}",
        "seeds": args.seeds,
        "trace_seeds": args.trace_seeds,
        "seconds": args.seconds,
        "pairs": "one untraced `perfbench/run.py --workload NAME` run per workload per side per seed, "
        "alternating which side runs first; quartiles are over seeds",
        "environment": environment,
        "src_lines": src_lines,
        "workloads": summarize(runs, traced),
    }
    for name, w in bench["workloads"].items():
        w["own_peak_mb"] = {"seed": args.seeds[0], **{side: own[side][name] for side in own}}
    args.out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    for name, w in bench["workloads"].items():
        parts = []
        for key in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s"):
            m = w["end_to_end"][key]
            parts.append(
                f"{key} {m['base']['median']:.3f} -> {m['change']['median']:.3f} "
                f"(x{m['change_over_base']:.3f}, wins {m['change_wins']})"
            )
        peak = w["own_peak_mb"]
        parts.append(f"own peak {peak['base']:.1f} -> {peak['change']:.1f} MB")
        print(f"{name}: {', '.join(parts)}, same picks {w['same_picks']}, same outputs {w['same_outputs']}")
    same = all(w["same_picks"] and w["same_outputs"] for w in bench["workloads"].values())
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
