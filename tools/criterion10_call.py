"""Time the criterion-10 call alone in a base commit and the working tree, and add it to a BENCH file.

    python3 tools/criterion10_call.py --base HEAD --repeats 2 --bench BENCH_float32_running_max.json

The call is `test_criterion_10_throughput_smoke`'s `batched_mmr`: 1M x 256
random unit rows, 200 targets, rho .15, alpha .05, B 1024, BLAS on every
CPU. Each run is a fresh child process that builds the inputs the test
builds (seed 1010) with its own checkout's code and times only the
call. Runs alternate between the sides, base first. The BENCH file gains
a `criterion_10_call` object: per side, each run's seconds, rounds,
picks, peak RSS and pick digest (SHA-256 of every pick's index and
score bits), and the median seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_compare import ROOT, export_commit  # noqa: E402

_CHILD = """
import hashlib, json, os, resource, time
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
start = time.perf_counter()
result = batched_mmr(durations, {"v": view}, targets, cfg, threads=os.cpu_count() or 1)
seconds = time.perf_counter() - start
picks = np.array([(p.index, p.relevance, p.diversity, p.mmr) for p in result.picks], dtype=np.float64)
print(json.dumps({
    "seconds": seconds,
    "rounds": result.rounds,
    "picks": len(result.picks),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "pick_digest": hashlib.sha256(picks.tobytes()).hexdigest(),
}))
"""


def run_call(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(checkout / "src"), str(checkout / "tests")]))
    print(f"[{checkout}] criterion-10 call", file=sys.stderr, flush=True)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD], cwd=checkout, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare the working tree against")
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--scratch", type=Path, help="directory for the base checkout (default: a temporary one)")
    parser.add_argument("--bench", type=Path, required=True, help="BENCH file to add the timings to")
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-base-", dir=args.scratch) as scratch:
        base_commit = export_commit(args.base, Path(scratch))
        sides = {"base": Path(scratch), "change": ROOT}
        for _ in range(args.repeats):
            for side, checkout in sides.items():
                runs[side].append(run_call(checkout))

    bench = json.loads(args.bench.read_text(encoding="utf-8"))
    command = ["python3", "tools/criterion10_call.py", "--base", args.base]
    bench["criterion_10_call"] = {
        "command": " ".join([*command, "--repeats", str(args.repeats), "--bench", args.bench.name]),
        "base_commit": base_commit,
        **{
            side: {"median_seconds": statistics.median(r["seconds"] for r in side_runs), "runs": side_runs}
            for side, side_runs in runs.items()
        },
        "same_picks": len({r["pick_digest"] for side_runs in runs.values() for r in side_runs}) == 1,
    }
    args.bench.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    call = bench["criterion_10_call"]
    print(
        f"criterion-10 call: {call['base']['median_seconds']:.1f} -> {call['change']['median_seconds']:.1f} s, "
        f"same picks {call['same_picks']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
