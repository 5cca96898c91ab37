"""Self-test of the benchmark at a tiny size; takes well under a minute.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on tiny inputs, then checks that

- the output checker passes the real selection files and rejects a file
  with two picks from different rounds swapped, and one with a single
  `relevance` field perturbed;
- the metric printer and the result JSON name every metric that
  BENCHMARK.json lists, with the same units.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import check
import run
from spans import PER_LAYER_UNITS
from workloads import SELECTION, TINY_BATCH, TINY_PARAMS, WORKLOADS


def _rewrite(path, picks: list[dict], footer: dict) -> None:
    lines = [json.dumps(p) for p in picks] + [json.dumps(footer)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _tampering_is_caught(name: str, seed: int) -> list[str]:
    """Failures of the checker on this workload's tiny selection file."""
    workload = WORKLOADS[name]
    spec = dataclasses.replace(workload.select, batch=TINY_BATCH)
    work = run.STATE / "work" / f"{name}-{seed}"
    path = work / SELECTION
    inputs = check.load_inputs(name, work, spec)
    picks, footer = check.read_selection(path)
    failures = []
    if footer["rounds"] < 2:
        failures.append(f"{name}: tiny job ran {footer['rounds']} rounds; the swap test needs two")
    if check.check_selection(path, inputs, spec, seed):
        failures.append(f"{name}: the checker rejects the untouched selection")

    swapped = list(picks)
    swapped[1], swapped[-1] = swapped[-1], swapped[1]
    _rewrite(path, swapped, footer)
    if not check.check_selection(path, inputs, spec, seed):
        failures.append(f"{name}: the checker accepts a selection with two picks swapped")

    perturbed = [dict(p) for p in picks]
    perturbed[len(picks) // 2]["relevance"] += 1e-3
    _rewrite(path, perturbed, footer)
    if not check.check_selection(path, inputs, spec, seed):
        failures.append(f"{name}: the checker accepts a selection with a perturbed relevance")
    return failures


def _names_match(result: dict, listed: list[dict]) -> list[str]:
    """Every metric BENCHMARK.json lists appears in the printed lines and the result JSON."""
    failures = []
    printed = "\n".join(run.metric_lines(result))
    emitted = run.result_metrics(result)
    if set(emitted) != {m["name"] for m in listed}:
        failures.append(f"{result['workload']}: emitted metrics differ from BENCHMARK.json")
    for metric in listed:
        if f"  {metric['name']} " not in printed:
            failures.append(f"{result['workload']}: {metric['name']} is not printed")
        elif emitted.get(metric["name"], {}).get("unit") != metric["unit"]:
            failures.append(f"{result['workload']}: {metric['name']} has another unit than listed")
    if not result["trace"] and "  failed_share " not in printed:
        failures.append(f"{result['workload']}: failed_share is not printed")
    return failures


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seed = 7
    failures = []
    if list(PER_LAYER_UNITS) != [m["name"] for m in bench["per_layer"]]:
        failures.append("BENCHMARK.json per_layer does not list the metrics spans.py computes")
    try:
        for name in WORKLOADS:
            for trace in (False, True):
                result = run.run_workload(name, seed, 0, trace, params=TINY_PARAMS[name], batch=TINY_BATCH)
                if result["problems"]:
                    failures += [f"{name}: {p}" for p in result["problems"]]
                failures += _names_match(result, bench["per_layer" if trace else "end_to_end"])
                if trace and result["missing"]:
                    failures.append(f"{name}: wrapped names missing: {result['missing']}")
                if not trace:
                    failures += _tampering_is_caught(name, seed)
    finally:
        run.remove_path(run.STATE / "work")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
