"""Time `store.load_manifest` and the fixture's manifest write in a base commit and the working tree.

    python3 tools/manifest_load.py --base HEAD --repeats 5 --bench BENCH_one_manifest_pass.json

The manifests are generated once, in a temporary directory, in the form
`save_manifest` writes: `--lines` lines each (default 100,000 and
1,000,000), ids `utt-NNNNNNN`, durations drawn uniform in [2, 15) s (seed
29) and five dataset tags. Each size is timed plain and with the id of
its middle line replaced by `annulled-take-2`, an id that holds the text
`null`. Each size is also written the way `fixture.make_fixture` writes
a manifest, `save_manifest(Manifest(ids, durations, tags))` with the
durations a float64 array (seed 29); the timed call includes the column
check, wherever the checkout makes it. Each run is a fresh child process that imports its
own checkout's code and times only the call; runs alternate between the
sides, and the side that runs first alternates from pair to pair. A
child reports its own peak memory, `VmHWM` from `/proc/self/status` read
as the call returns (a new process image starts its own high-water mark,
unlike `ru_maxrss`), and a SHA-256 of the columns it loaded or of the
file it wrote.

It prints one line per manifest: each side's median wall and CPU seconds
and median `VmHWM`, in how many pairs the working tree took less wall
time, then every run (wall/CPU/VmHWM), and whether every run loaded the
same columns (or wrote the same bytes). With
`--bench`, the BENCH file gains a `manifest_load` object with every run.
It exits 1 when the two sides load different columns or write different bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_compare import ROOT, export_commit  # noqa: E402

_TAGS = ("podcast", "audiobook", "broadcast", "meeting", "read-speech")

_CHILD = """
import hashlib, json, re, sys, time
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
with open("/proc/self/status") as fh:
    hwm_kb = int(re.search(r"^VmHWM:\\s+(\\d+) kB", fh.read(), re.M).group(1))
print(json.dumps({"seconds": seconds, "cpu_seconds": cpu_seconds, "vmhwm_mb": hwm_kb / 1024, "columns": digest.hexdigest()}))
""".replace("TAGS", repr(_TAGS))


def write_manifest(path: Path, lines: int, odd_id: str | None) -> None:
    """`lines` manifest lines in `save_manifest`'s form; `odd_id` replaces the middle line's id."""
    rng = random.Random(29)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(lines):
            utt_id = odd_id if odd_id is not None and i == lines // 2 else f"utt-{i:07d}"
            record = {"id": utt_id, "duration_s": rng.uniform(2.0, 15.0), "dataset": _TAGS[i % len(_TAGS)]}
            fh.write(json.dumps(record) + "\n")


def run_child(checkout: Path, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, *args], cwd=checkout, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare the working tree against")
    parser.add_argument("--repeats", type=int, default=5, help="runs per side and manifest")
    parser.add_argument("--lines", type=int, nargs="+", default=[100_000, 1_000_000])
    parser.add_argument("--scratch", type=Path, help="directory for the base checkout and the manifests")
    parser.add_argument("--bench", type=Path, help="BENCH file to add the timings to")
    args = parser.parse_args(argv)

    results = {}
    with tempfile.TemporaryDirectory(prefix="manifest-load-", dir=args.scratch) as scratch:
        base_commit = export_commit(args.base, Path(scratch) / "base")
        sides = {"base": Path(scratch) / "base", "change": ROOT}
        for lines in args.lines:
            for suffix, odd_id in (("", None), ("-null-id", "annulled-take-2"), ("-save", None)):
                name = f"{lines}-lines{suffix}"
                path = Path(scratch) / f"{name}.jsonl"
                if suffix == "-save":  # each child writes the file
                    child = ("save", str(path), str(lines))
                else:
                    write_manifest(path, lines, odd_id)
                    child = ("load", str(path))
                runs: dict[str, list[dict]] = {"base": [], "change": []}
                for repeat in range(args.repeats):
                    for side, checkout in sorted(sides.items(), reverse=repeat % 2 == 1):
                        runs[side].append(run_child(checkout, *child))
                size = path.stat().st_size
                path.unlink()
                results[name] = {
                    "bytes": size,
                    **{
                        side: {
                            "median_seconds": statistics.median(r["seconds"] for r in side_runs),
                            "median_cpu_seconds": statistics.median(r["cpu_seconds"] for r in side_runs),
                            "median_vmhwm_mb": statistics.median(r["vmhwm_mb"] for r in side_runs),
                            "runs": side_runs,
                        }
                        for side, side_runs in runs.items()
                    },
                    "change_faster_pairs": sum(c["seconds"] < b["seconds"] for b, c in zip(runs["base"], runs["change"])),
                    "same_columns": len({r["columns"] for side_runs in runs.values() for r in side_runs}) == 1,
                }
                result = results[name]
                base, change = result["base"], result["change"]
                print(
                    f"{name}: {base['median_seconds']:.3f} -> {change['median_seconds']:.3f} s, "
                    f"CPU {base['median_cpu_seconds']:.3f} -> {change['median_cpu_seconds']:.3f} s, "
                    f"VmHWM {base['median_vmhwm_mb']:.0f} -> {change['median_vmhwm_mb']:.0f} MB, "
                    f"change faster in {result['change_faster_pairs']} of {args.repeats} pairs, "
                    f"same columns {result['same_columns']}",
                    flush=True,
                )
                for side in sides:
                    runs_text = ", ".join(
                        f"{r['seconds']:.3f} s/{r['cpu_seconds']:.3f} s/{r['vmhwm_mb']:.0f} MB" for r in result[side]["runs"]
                    )
                    print(f"  {side}: {runs_text}", flush=True)

    if args.bench is not None:
        bench = json.loads(args.bench.read_text(encoding="utf-8"))
        command = ["python3", "tools/manifest_load.py", "--base", args.base, "--repeats", str(args.repeats)]
        bench["manifest_load"] = {
            "command": " ".join([*command, "--lines", *map(str, args.lines), "--bench", args.bench.name]),
            "base_commit": base_commit,
            **results,
        }
        args.bench.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    return 0 if all(result["same_columns"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
