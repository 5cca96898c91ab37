"""Time the prefilter with the screen's argmax certificate on and off, across target sizes.

    python3 tools/certify_crossover.py --rows 60000 --dims 64 128 256 512 --threads 1 2 --out CROSSOVER_certify.json

For each view dimension D and each size exponent k it scores two target
sets of T = 2^k / D clustered rows each (T >= 16) and times
`selection._prefilter` on clustered unit rows, once with every set
certified (`relevance._CERTIFY_SIZE` patched to 0) and once with none
(patched to inf), alternating, and keeps each side's fastest of
`--repeats` runs. Both sides must give the same pool and score bits.
Prints one JSON object per setting and writes them all to `--out`. The
rule `_CERTIFY_SIZE` is read off these ratios.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from corpus_select import relevance, selection  # noqa: E402
from corpus_select.fixture import _clustered_rows  # noqa: E402
from corpus_select.relevance import AggregationMode, FusionWeights, blas_threads  # noqa: E402
from corpus_select.store import TargetDataset, TargetSet, _normalize_rows  # noqa: E402


def time_setting(rows: int, d: int, t: int, threads: int, args) -> dict:
    rng = np.random.default_rng(args.seed)
    centers = _normalize_rows(rng.standard_normal((16, d)).astype(np.float32))
    mats = {"v": _clustered_rows(centers, rng.integers(0, 16, rows), 0.6, rng)}
    targets = TargetSet(
        [TargetDataset(f"t{m}", {"v": _clustered_rows(centers, rng.integers(0, 16, t), 0.6, rng)}) for m in range(2)]
    )
    weights, pool = FusionWeights({"v": 1.0}), math.ceil(args.rho * rows)
    best, results = {}, {}
    for _ in range(args.repeats):
        for side, size in (("kernel", math.inf), ("certified", 0)):
            with mock.patch.object(relevance, "_CERTIFY_SIZE", size):
                start = time.perf_counter()
                top, r = selection._prefilter(mats, targets, weights, AggregationMode.MAX, pool)
                seconds = time.perf_counter() - start
            best[side] = min(best.get(side, math.inf), seconds)
            results[side] = top.tobytes() + r.tobytes()
    if results["kernel"] != results["certified"]:
        raise AssertionError(f"D {d}, T {t}: the two sides disagree")
    return {
        "rows": rows, "dim": d, "targets": t, "size": t * d, "rho": args.rho, "threads": threads,
        "kernel_s": round(best["kernel"], 4), "certified_s": round(best["certified"], 4),
        "ratio": round(best["certified"] / best["kernel"], 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, default=60_000)
    parser.add_argument("--dims", type=int, nargs="+", default=[64, 128, 256, 512])
    parser.add_argument("--sizes", type=int, nargs="+", default=[13, 14, 15, 16, 17, 18], help="log2 of T x D")
    parser.add_argument("--rho", type=float, default=0.15)
    parser.add_argument("--threads", type=int, nargs="+", default=[1, 2], help="BLAS thread counts")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    table = []
    for threads in args.threads:
        with blas_threads(threads):
            for d in args.dims:
                for k in args.sizes:
                    if 2**k // d >= 16:
                        table.append(time_setting(args.rows, d, 2**k // d, threads, args))
                        print(json.dumps(table[-1]), flush=True)
    args.out.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
