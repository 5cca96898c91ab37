"""corpus-select benchmark: one command that sets up, runs and checks a workload.

    python3 perfbench/run.py --workload mmr-random --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. For each workload it

1. generates the inputs from --seed in a child process, SETUP_REPS times
   (setup_s is the median), never overlapping a timed job;
2. runs the job in a fresh child process, one at a time, until --seconds
   have passed, taking wall time, user+sys CPU and peak RSS of each child
   from os.wait4;
3. checks the first job's outputs with check.py and every later job's
   output bytes and pick list against the first;
4. prints every metric by name and unit, writes a results file with the
   numeric environment under .perfbench/results/, and prints one JSON
   object as the last line of standard output.

With --trace 1, half of the time goes to untraced jobs and half to
traced ones (see spans.py); the per-layer metrics are medians over the
traced jobs. Exits 1 when any output check fails, 2 when the library
source is not in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import check
import spans
from spans import PER_LAYER_UNITS
from workloads import SELECTION, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
STATE = ROOT / ".perfbench"
SETUP_REPS = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pick_relevance_mean": "cosine",
    "pick_diversity_mean": "cosine",
}


@dataclasses.dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    start: float
    end: float


def run_child(args: list[str], log: Path) -> Child:
    """Run job.py in a fresh interpreter and wait for it; kill it after CHILD_TIMEOUT_S."""
    lock = threading.Lock()
    reaped = False

    def kill() -> None:
        with lock:
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)

    start = time.monotonic()
    with open(log, "ab") as out:
        proc = subprocess.Popen([sys.executable, str(JOB), *args], stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, kill)
    timer.start()
    try:
        # wait without reaping, so the pid cannot be reused before the timer is disarmed
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        end = time.monotonic()
    except BaseException:
        kill()
        raise
    finally:
        with lock:
            reaped = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        start=start,
        end=end,
    )


def _openblas_info() -> tuple[str | None, int | None]:
    """Core name and thread count of the OpenBLAS bundled with numpy, if any."""
    libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")))
    if not libs:
        return None, None
    lib = ctypes.CDLL(libs[0])
    corename = threads = None
    if hasattr(lib, "scipy_openblas_get_corename64_"):
        fn = lib.scipy_openblas_get_corename64_
        fn.argtypes, fn.restype = [], ctypes.c_char_p
        corename = fn().decode("ascii", "replace")
    if hasattr(lib, "scipy_openblas_get_num_threads64_"):
        fn = lib.scipy_openblas_get_num_threads64_
        fn.argtypes, fn.restype = [], ctypes.c_int
        threads = fn()
    return corename, threads


def numeric_environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    corename, threads = _openblas_info()
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_corename": corename,
        "openblas_threads": threads,
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def output_digest(work: Path, outputs: tuple[str, ...]) -> str:
    """SHA-256 over the job's output files, leaving out run.json sidecars (they hold timings)."""
    digest = hashlib.sha256()
    for rel in outputs:
        path = work / rel
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            if f.name.endswith("run.json"):
                continue
            digest.update(str(f.relative_to(work)).encode("utf-8") + b"\0")
            digest.update(f.read_bytes())
    return digest.hexdigest()


def remove_path(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def _tail(log: Path, lines: int = 20) -> str:
    return "\n".join(log.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])


class _OutputCheck:
    """Checks each job: the first that exits 0 in full, later ones against its bytes."""

    def __init__(self, workload, work: Path, spec, params: dict, seed: int) -> None:
        self.name, self.outputs = workload.name, workload.outputs
        self.work, self.spec, self.params, self.seed = work, spec, params, seed
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.output_digest = self.pick_digest = None
        self.quality: dict[str, float] = {}

    def check(self, child: Child, log: Path) -> None:
        self.attempted += 1
        problems = []
        selection = self.work / SELECTION
        if child.exit_code != 0:
            problems.append(f"job exited with {child.exit_code}:\n{_tail(log)}")
        elif self.pick_digest is None:
            self.output_digest = output_digest(self.work, self.outputs)
            self.pick_digest = check.pick_digest(selection)
            inputs = check.load_inputs(self.name, self.work, self.spec)
            problems += check.check_selection(selection, inputs, self.spec, self.seed)
            if self.name == "pipeline-multiview":
                problems += check.check_pipeline_outputs(self.work, self.params)
            picks, _ = check.read_selection(selection)
            self.quality = {
                "pick_relevance_mean": statistics.fmean(p["relevance"] for p in picks),
                "pick_diversity_mean": statistics.fmean(p["diversity"] for p in picks),
            }
        elif check.pick_digest(selection) != self.pick_digest:
            problems.append("pick list differs from the first job of this run")
        elif output_digest(self.work, self.outputs) != self.output_digest:
            problems.append("output bytes differ from the first job of this run")
        if problems:
            self.failed += 1
            self.problems += problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, params: dict | None = None, batch: int | None = None) -> dict:
    """Set up, run and check one workload; returns its result record.

    `params` and `batch` override the workload's sizes (the self-test uses
    tiny ones). The work directory is left in place; the caller removes it.
    """
    workload = WORKLOADS[name]
    params = params or workload.params
    spec = dataclasses.replace(workload.select, batch=batch) if batch else workload.select
    work = STATE / "work" / f"{name}-{seed}"
    remove_path(work)
    work.mkdir(parents=True)
    job = {"workload": name, "seed": seed, "params": params, "select": dataclasses.asdict(spec)}
    (work / "job.json").write_text(json.dumps(job, indent=2), encoding="utf-8")
    log = work / "job.log"
    trace_file = work / "spans.json"
    trace_args = ["--trace", str(trace_file)] if trace else []

    setup_s, setup_layers = [], []
    for _ in range(SETUP_REPS):
        for entry in work.iterdir():
            if entry.name not in ("job.json", "job.log"):
                remove_path(entry)
        child = run_child(["setup", str(work), *trace_args], log)
        if child.exit_code != 0:
            raise RuntimeError(f"setup of {name} exited with {child.exit_code}:\n{_tail(log)}")
        setup_s.append(child.wall_s)
        if trace:
            setup_layers.append(spans.layer_metrics(json.loads(trace_file.read_text())["spans"]))

    outputs = _OutputCheck(workload, work, spec, params, seed)
    missing: set[str] = set()

    def job(with_trace: bool) -> Child:
        for rel in (*workload.outputs, "spans.json"):
            remove_path(work / rel)
        child = run_child(["run", str(work), *(trace_args if with_trace else [])], log)
        outputs.check(child, log)
        return child

    job(False)  # warm-up, checked and counted but not timed: caches fill as for a user's second run
    untraced: list[Child] = []
    traced: list[tuple[Child, dict]] = []
    began = time.monotonic()
    untraced_until = seconds / 2 if trace else seconds
    while True:
        elapsed = time.monotonic() - began
        if untraced and elapsed >= untraced_until and (not trace or (traced and elapsed >= seconds)):
            break
        if trace and untraced and elapsed >= untraced_until:
            child = job(True)
            layers = {}  # a failed job is counted as failed; its spans may be incomplete
            if child.exit_code == 0:
                dumped = json.loads(trace_file.read_text())
                missing.update(dumped["missing"], dumped["count_errors"])
                layers = spans.layer_metrics(dumped["spans"])
                layers["trace.coverage"] = spans.coverage(dumped["spans"], child.start, child.end)
            traced.append((child, layers))
        else:
            untraced.append(job(False))

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
        "select": dataclasses.asdict(spec),
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "problems": outputs.problems,
        "output_digest": outputs.output_digest,
        "pick_digest": outputs.pick_digest,
        "setup_s": setup_s,
        "jobs": [dataclasses.asdict(c) for c in untraced],
    }
    if trace:
        result["traced_jobs"] = [dict(dataclasses.asdict(c), layers=layers) for c, layers in traced]
        result["per_layer"], result["absent"] = _per_layer(untraced, traced, setup_layers)
        result["missing"] = sorted(missing)
    else:
        result["end_to_end"] = {
            "wall_s": statistics.median([c.wall_s for c in untraced]),
            "cpu_s": statistics.median([c.cpu_s for c in untraced]),
            "peak_rss_mb": statistics.median([c.peak_rss_mb for c in untraced]),
            "setup_s": statistics.median(setup_s),
            **outputs.quality,
        }
        result["failed_share"] = outputs.failed / outputs.attempted
    return result


def _per_layer(untraced: list[Child], traced: list[tuple[Child, dict]], setup_layers: list[dict]) -> tuple[dict, list]:
    """Median of each per-layer metric over traced jobs; layers never entered are absent (0)."""
    values: dict[str, float] = {}
    for key in PER_LAYER_UNITS:
        if key == "trace.overhead_s":
            values[key] = statistics.median([c.wall_s for c, _ in traced]) - statistics.median([c.wall_s for c in untraced])
        elif key == "fixture.make_fixture.s":
            seen = [layers[key] for layers in setup_layers if key in layers]
            if seen:
                values[key] = statistics.median(seen)
        else:
            seen = [layers[key] for _, layers in traced if key in layers]
            if seen:
                values[key] = statistics.median(seen)
    absent = [key for key in PER_LAYER_UNITS if key not in values]
    return values, absent


def metric_lines(result: dict) -> list[str]:
    """Human-readable lines naming every metric of a result with its unit."""
    lines = [f"== {result['workload']} (seed {result['seed']}, {'traced' if result['trace'] else 'untraced'})"]
    if result["trace"]:
        for key, unit in PER_LAYER_UNITS.items():
            shown = "absent" if key in result["absent"] else f"{result['per_layer'][key]:.6g} {unit}"
            lines.append(f"  {key:<40} {shown}")
        if result["missing"]:
            lines.append(f"  not measured (name gone or count failed): {'; '.join(result['missing'])}")
    else:
        jobs = f"  (median of {len(result['jobs'])} jobs)"
        notes = {"wall_s": jobs, "cpu_s": jobs, "peak_rss_mb": jobs, "setup_s": f"  (median of {len(result['setup_s'])} set-ups)"}
        for key, unit in END_TO_END_UNITS.items():
            value = result["end_to_end"].get(key)
            shown = "absent" if value is None else f"{value:.6g} {unit}"
            lines.append(f"  {key:<40} {shown}{notes.get(key, '')}")
        lines.append(f"  {'failed_share':<40} {result['failed_share']:.6g} ratio  ({result['failed']} of {result['attempted']})")
    lines.append(f"  pick digest {result['pick_digest']}")
    for problem in result["problems"]:
        lines.append(f"  FAILED CHECK: {problem}")
    return lines


def result_metrics(result: dict) -> dict:
    if result["trace"]:
        return {k: {"value": result["per_layer"].get(k, 0.0), "unit": u} for k, u in PER_LAYER_UNITS.items()}
    # a run whose every job failed has no pick metrics; they are reported as null
    return {k: {"value": result["end_to_end"].get(k), "unit": u} for k, u in END_TO_END_UNITS.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="corpus-select benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "corpus_select" / "__init__.py").is_file():
        print(f"error: the library source is not in this checkout ({ROOT / 'src'})", file=sys.stderr)
        return 2

    env = numeric_environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            result["environment"] = env
            results.append(result)
            print("\n".join(metric_lines(result)), flush=True)
            out = STATE / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_path(STATE / "work")

    print(f"environment {json.dumps(env)}")
    if len(results) == 1:
        metrics = result_metrics(results[0])
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in result_metrics(r).items()}
    correct = all(not r["problems"] for r in results)
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
