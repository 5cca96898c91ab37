"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 4 is expected to fail; its docstring and the printed line carry
the measured value and the reason (isotropic inputs cannot reach the
required correlation; structured inputs do, see test_projection.py).
"""

import contextlib
import hashlib
import json
import os
import time
import warnings

import numpy as np
import pytest

from corpus_select.cli import run
from corpus_select.compaction import KMeansConfig, kmeans
from corpus_select.probe import (
    ProbeConfig,
    fit_predict,
    pseudo_label,
    softmax_loss_and_grad,
)
from corpus_select.projection import (
    ProjectionSpec,
    audit_cosine_preservation,
    make_projection,
)
from corpus_select.relevance import (
    AggregationMode,
    FusionWeights,
    relevance_multi_dataset,
)
from corpus_select.selection import (
    SelectionConfig,
    batched_mmr,
    greedy_mmr_exact,
    random_baseline,
)
from corpus_select.store import TargetDataset, TargetSet, _normalize_rows
from conftest import unit_rows


@contextlib.contextmanager
def criterion(num: int, title: str, limit_s: float):
    state = {"detail": ""}
    start = time.perf_counter()
    try:
        yield state
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\n[criterion {num:02d}] FAIL {title}: {state['detail']} ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > limit_s:
        print(f"\n[criterion {num:02d}] FAIL {title}: exceeded {limit_s:.0f}s time limit ({elapsed:.1f}s)")
        raise AssertionError(f"criterion {num} exceeded its {limit_s}s budget: {elapsed:.1f}s")
    print(f"\n[criterion {num:02d}] PASS {title}: {state['detail']} ({elapsed:.1f}s)")


# ---------- brute-force scoring oracle (plain double loops) ----------

def brute_relevance(views, targets: TargetSet, weights: FusionWeights, mode):
    n = next(iter(views.values())).shape[0]
    out = np.zeros(n)
    for i in range(n):
        if mode is AggregationMode.MAX:
            total = 0.0
            for name, w in weights.weights.items():
                best = -np.inf
                for ds in targets.datasets:
                    for y in ds.views[name].astype(np.float64):
                        best = max(best, float(views[name][i].astype(np.float64) @ y))
                total += w * best
            out[i] = total
        else:
            per_ds = []
            for ds in targets.datasets:
                total = 0.0
                for name, w in weights.weights.items():
                    best = max(
                        float(views[name][i].astype(np.float64) @ y)
                        for y in ds.views[name].astype(np.float64)
                    )
                    total += w * best
                per_ds.append(total)
            out[i] = float(np.mean(per_ds))
    return out


def random_instance(rng, n, k_views, m_datasets, d=12, targets_per=6):
    views = {f"v{k}": unit_rows(rng, n, d) for k in range(k_views)}
    durations = rng.uniform(1.0, 10.0, size=n)
    targets = TargetSet(
        [
            TargetDataset(f"ds{m}", {name: unit_rows(rng, targets_per, d) for name in views})
            for m in range(m_datasets)
        ]
    )
    return views, durations, targets


def test_criterion_01_oracle_equivalence():
    """Batched selection with B=1, rho=1 equals exact greedy, pick for pick."""
    rng = np.random.default_rng(101)
    with criterion(1, "oracle equivalence (B=1, rho=1)", limit_s=30.0) as c:
        checked = 0
        for lam in (0.0, 0.3, 0.7, 1.0):
            for _ in range(13 if lam == 0.7 else 12):
                n = int(rng.integers(30, 301))
                views, durations, targets = random_instance(
                    rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 3))
                )
                mode = AggregationMode.MAX if rng.integers(2) else AggregationMode.MEAN
                weights = FusionWeights.uniform(views)
                cfg = SelectionConfig(
                    alpha=float(rng.uniform(0.05, 0.25)), lam=lam, rho=1.0,
                    batch_size=1, weights=weights, aggregation=mode,
                )
                r = brute_relevance(views, targets, weights, mode)
                exact = greedy_mmr_exact(r, views, durations, cfg)
                batched = batched_mmr(durations, views, targets, cfg)
                assert [p.index for p in batched.picks] == [p.index for p in exact.picks]
                checked += 1
        assert checked == 49
        # one more at the top of the size range
        views, durations, targets = random_instance(rng, 500, 2, 2)
        weights = FusionWeights.uniform(views)
        cfg = SelectionConfig(alpha=0.1, lam=0.7, rho=1.0, batch_size=1, weights=weights)
        r = brute_relevance(views, targets, weights, AggregationMode.MAX)
        exact = greedy_mmr_exact(r, views, durations, cfg)
        batched = batched_mmr(durations, views, targets, cfg)
        assert [p.index for p in batched.picks] == [p.index for p in exact.picks]
        c["detail"] = "50/50 randomized instances matched exactly"


def test_criterion_02_lambda_limit_laws():
    """lam=1 is relevance-sorted truncation; lam=0's second pick is least similar."""
    rng = np.random.default_rng(202)
    with criterion(2, "lambda limit laws", limit_s=5.0) as c:
        views, durations, targets = random_instance(rng, 150, 2, 1)
        weights = FusionWeights.uniform(views)
        r = relevance_multi_dataset(views, targets, weights)

        cfg1 = SelectionConfig(alpha=0.3, lam=1.0, rho=1.0, batch_size=5, weights=weights)
        picks1 = [p.index for p in batched_mmr(durations, views, targets, cfg1).picks]
        by_relevance = sorted(range(150), key=lambda i: (-r[i], i))
        assert picks1 == by_relevance[: len(picks1)]

        cfg0 = SelectionConfig(alpha=0.3, lam=0.0, rho=1.0, batch_size=1, weights=weights)
        picks0 = [p.index for p in batched_mmr(durations, views, targets, cfg0).picks]
        first = picks0[0]
        fused_sim = np.zeros(150)
        for name, w in weights.weights.items():
            mat = views[name].astype(np.float64)
            fused_sim += w * (mat @ mat[first])
        fused_sim[first] = np.inf
        assert picks0[1] == int(np.argmin(fused_sim))
        c["detail"] = "both limits hold exactly"


def test_criterion_03_max_aggregation_equals_union():
    """Max aggregation over M datasets == relevance over their union, <= 1e-6."""
    rng = np.random.default_rng(303)
    with criterion(3, "max aggregation == union", limit_s=5.0) as c:
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(20, 120))
            k_views = int(rng.integers(1, 4))
            m = int(rng.integers(2, 5))
            views, _, targets = random_instance(rng, n, k_views, m, targets_per=int(rng.integers(3, 9)))
            weights = FusionWeights(
                {name: float(rng.uniform(0.1, 2.0)) for name in views}
            )
            agg = relevance_multi_dataset(views, targets, weights, AggregationMode.MAX)
            union = {
                name: np.vstack([ds.views[name] for ds in targets.datasets])
                for name in views
            }
            fused = relevance_multi_dataset(views, TargetSet([TargetDataset("union", union)]), weights)
            worst = max(worst, float(np.abs(agg - fused).max()))
        assert worst <= 1e-6
        c["detail"] = f"20/20 instances agree (max deviation {worst:.2e})"


def test_criterion_04_cosine_preservation_on_isotropic_noise():
    """Audit on 10k x 3072 standard-normal rows projected to 256 dims.

    EXPECTED TO FAIL. The required correlation (>= 0.90) is not reachable
    on isotropic inputs: their pairwise cosines spread only ~1/sqrt(3072)
    ~= 0.018 while the projection adds ~1/sqrt(256) ~= 0.0625 of noise per
    pair, capping the correlation near
    0.018 / sqrt(0.018^2 + 0.0625^2) ~= 0.28 regardless of implementation.
    The 0.96-0.98 range quoted for real embeddings comes from structured
    data with a wide cosine spread; test_projection.py demonstrates the
    same audit reaching ~0.97 on clustered synthetic data. The assertion
    is kept verbatim rather than weakened.
    """
    rng = np.random.default_rng(404)
    with criterion(4, "cosine preservation on isotropic noise", limit_s=60.0) as c:
        hi = rng.standard_normal((10_000, 3072), dtype=np.float32)
        matrix = make_projection(ProjectionSpec(3072, 256, seed=11))
        lo = hi @ matrix
        # the audit takes unit rows, as a view file gives them
        corr = audit_cosine_preservation(_normalize_rows(hi), _normalize_rows(lo), pair_count=100_000, seed=12)
        c["detail"] = f"pearson correlation {corr:.4f} (required >= 0.90)"
        assert corr >= 0.90


def test_criterion_05_budget_bounds():
    """T <= total < T + B * d_max on every run whose pool is not exhausted."""
    rng = np.random.default_rng(505)
    with criterion(5, "budget bounds over 100 runs", limit_s=10.0) as c:
        exhausted_runs = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(100):
                n = int(rng.integers(50, 400))
                views, durations, targets = random_instance(rng, n, int(rng.integers(1, 3)), 1)
                cfg = SelectionConfig(
                    alpha=float(rng.uniform(0.05, 0.5)),
                    lam=0.7,
                    rho=float(rng.uniform(0.1, 1.0)),
                    batch_size=int(rng.integers(1, 64)),
                    weights=FusionWeights.uniform(views),
                )
                result = batched_mmr(durations, views, targets, cfg)
                if result.exhausted:
                    exhausted_runs += 1
                    assert result.total_selected_s < result.budget_s
                    continue
                d_max = float(durations.max())
                assert result.budget_s <= result.total_selected_s
                assert result.total_selected_s < result.budget_s + cfg.batch_size * d_max
        c["detail"] = f"100/100 runs in bounds ({exhausted_runs} flagged exhausted)"


def test_criterion_06_domain_recovery():
    """Selection recovers the target's cluster at >= 3x the random rate."""
    rng = np.random.default_rng(606)
    with criterion(6, "domain recovery", limit_s=30.0) as c:
        n, d, clusters = 5000, 32, 10
        centers = unit_rows(rng, clusters, d).astype(np.float64)
        assignment = rng.integers(0, clusters, size=n)
        rows = centers[assignment] + 0.25 * rng.standard_normal((n, d))
        source = _normalize_rows(rows.astype(np.float32))
        durations = rng.uniform(2.0, 12.0, size=n)

        home = 3
        target_rows = _normalize_rows(
            (centers[np.full(60, home)] + 0.2 * rng.standard_normal((60, d))).astype(np.float32)
        )
        targets = TargetSet([TargetDataset("t", {"v": target_rows})])
        views = {"v": source}

        cfg = SelectionConfig(alpha=0.05, lam=0.7, rho=0.15, batch_size=64,
                              weights=FusionWeights({"v": 1.0}))
        mmr_picks = batched_mmr(durations, views, targets, cfg).indices
        mmr_fraction = float((assignment[mmr_picks] == home).mean())

        random_picks = random_baseline(durations, 0.05, seed=7).indices
        random_fraction = float((assignment[random_picks] == home).mean())

        assert random_fraction > 0  # ~10%, sanity of the comparison base
        assert mmr_fraction >= 3.0 * random_fraction
        c["detail"] = (
            f"target-cluster fraction {mmr_fraction:.1%} vs random {random_fraction:.1%} "
            f"({mmr_fraction / random_fraction:.1f}x)"
        )


def test_criterion_07_probe_sanity():
    """Noise predicts near chance; self-view >= 70%; gradient check <= 1e-4."""
    rng = np.random.default_rng(707)
    with criterion(7, "probe sanity", limit_s=60.0) as c:
        # (a) independent noise source lands within 3 points of chance
        n, d, clusters = 2500, 32, 100
        centers = unit_rows(rng, clusters, d).astype(np.float64)
        assignment = rng.integers(0, clusters, size=n)
        structured = _normalize_rows(
            (centers[assignment] + 0.05 * rng.standard_normal((n, d))).astype(np.float32)
        )
        cfg = ProbeConfig(clusters=clusters, seed=17)
        labels = pseudo_label(structured, cfg)
        noise = unit_rows(rng, n, d)
        noise_report = fit_predict(noise, labels, cfg)
        assert abs(noise_report.accuracy - noise_report.chance) <= 0.03

        # (b) self-view prediction on well-separated data
        self_report = fit_predict(structured, labels, cfg)
        assert self_report.accuracy >= 0.70

        # (c) analytic gradient vs central finite differences, 1e-4 relative
        x = rng.standard_normal((10, 5))
        y = rng.integers(0, 3, size=10)
        w = 0.1 * rng.standard_normal((5, 3))
        b = 0.1 * rng.standard_normal(3)
        _, grad_w, grad_b = softmax_loss_and_grad(w, b, x, y, 1e-3)
        eps = 1e-6
        worst = 0.0
        for arr, grad in ((w, grad_w), (b, grad_b)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                up = softmax_loss_and_grad(w, b, x, y, 1e-3)[0]
                arr[idx] = orig - eps
                down = softmax_loss_and_grad(w, b, x, y, 1e-3)[0]
                arr[idx] = orig
                numeric = (up - down) / (2 * eps)
                rel = abs(grad[idx] - numeric) / max(abs(numeric), abs(grad[idx]), 1e-8)
                worst = max(worst, rel)
        assert worst <= 1e-4
        c["detail"] = (
            f"noise {noise_report.accuracy:.1%} vs chance {noise_report.chance:.1%}; "
            f"self {self_report.accuracy:.1%}; gradient rel err {worst:.1e}"
        )


def test_criterion_08_determinism_and_replay(tmp_path):
    """Byte-identical outputs across worker counts; replay reproduces digests."""
    with criterion(8, "determinism and replay", limit_s=30.0) as c:
        corpus, targets = tmp_path / "corpus", tmp_path / "targets"
        assert run(
            [
                "stats", "--make-fixture", "--out", str(corpus),
                "--targets-out", str(targets), "--utterances", "800",
                "--views", "speaker:32,wavlm:32", "--clusters", "8",
                "--target-rows", "80", "--seed", "55",
            ]
        ) == 0
        digests = []
        for threads in ("1", "4", str(os.cpu_count() or 1)):
            out = tmp_path / f"sel-{threads}.jsonl"
            assert run(
                [
                    "select", "--corpus", str(corpus), "--targets", str(targets),
                    "--alpha", "0.05", "--rho", "0.25", "--batch", "16",
                    "--seed", "1", "--threads", threads, "--out", str(out),
                ]
            ) == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert len(set(digests)) == 1

        sidecar = tmp_path / "sel-1.jsonl.run.json"
        recorded = json.loads(sidecar.read_text())["outputs"]
        assert run(["select", "--replay", str(sidecar)]) == 0
        replayed = hashlib.sha256((tmp_path / "sel-1.jsonl").read_bytes()).hexdigest()
        assert replayed == digests[0]
        assert recorded[str(tmp_path / "sel-1.jsonl")]["sha256"] == replayed
        c["detail"] = f"threads 1/4/max byte-identical; replay digest {digests[0][:12]}.. verified"


def test_criterion_09_kmeans_contracts():
    """Inertia monotone per iteration; k=1 mean; two-blob recovery within 0.05."""
    rng = np.random.default_rng(909)
    with criterion(9, "k-means contracts", limit_s=10.0) as c:
        rows = rng.standard_normal((600, 16))
        clustering = kmeans(rows, KMeansConfig(k=12, seed=4))
        assert np.all(np.diff(np.array(clustering.inertia_history)) <= 1e-9)

        single = kmeans(rows, KMeansConfig(k=1, seed=4))
        np.testing.assert_allclose(single.centroids[0], rows.mean(axis=0), atol=1e-6)

        a = rng.normal(0.0, 0.1, size=(100, 8))
        a[:, 0] += 5.0
        b = rng.normal(0.0, 0.1, size=(100, 8))
        b[:, 0] -= 5.0
        blobs = np.vstack([a, b])
        two = kmeans(blobs, KMeansConfig(k=2, seed=4))
        order = np.argsort(-two.centroids[:, 0])
        np.testing.assert_allclose(
            two.centroids[order], np.stack([a.mean(axis=0), b.mean(axis=0)]), atol=0.05
        )
        c["detail"] = "history monotone; k=1 mean exact; blob centroids within 0.05"


def test_criterion_10_throughput_smoke():
    """Select 5% of a 1M x 256 single-view corpus with rho=.15, B=1024."""
    rng = np.random.default_rng(1010)
    with criterion(10, "throughput smoke (1M x 256)", limit_s=600.0) as c:
        n, d = 1_000_000, 256
        rows = rng.standard_normal((n, d), dtype=np.float32)
        view = _normalize_rows(rows)
        del rows
        durations = rng.uniform(2.0, 15.0, size=n)
        target_rows = unit_rows(rng, 200, d)
        targets = TargetSet([TargetDataset("t", {"v": target_rows})])

        cfg = SelectionConfig(alpha=0.05, lam=0.7, rho=0.15, batch_size=1024,
                              weights=FusionWeights({"v": 1.0}))
        start = time.perf_counter()
        result = batched_mmr(durations, {"v": view}, targets, cfg, threads=os.cpu_count() or 1)
        elapsed = time.perf_counter() - start
        assert result.budget_s <= result.total_selected_s
        assert result.pool_size == 150_000
        c["detail"] = (
            f"{len(result.picks)} picks over {result.rounds} rounds in {elapsed:.0f}s"
        )
