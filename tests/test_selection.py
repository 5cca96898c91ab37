import contextlib
import itertools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus_select import relevance, selection, store
from corpus_select.errors import DimensionMismatch, EmptyCorpus, MissingView, NonPositiveDuration, SmallPoolWarning
from corpus_select.relevance import (
    AggregationMode,
    FusionWeights,
    _openblas,
    available_cpus,
    blas_thread_cap,
    blas_threads,
    relevance_bounds,
    relevance_multi_dataset,
    update_running_max,
)
from corpus_select.selection import (
    SelectionConfig,
    _prefilter,
    _ranked,
    batched_mmr,
    duration_baseline,
    greedy_mmr_exact,
    random_baseline,
)
from corpus_select.store import EmbeddingView, TargetDataset, TargetSet, _normalize_rows, load_view, save_view
from conftest import unit_rows
import oracles
from oracles import clustered_rows_one_draw, eager_batched_mmr


# ---------- independent reference: a straightforward, stateless rendering
# of the batched procedure (recomputes diversity against the committed set
# every round; no prefilter bookkeeping, no incremental maxima) ----------

def reference_batched(durations, views, target_rows, weights, lam, alpha, rho, batch):
    d = np.asarray(durations, dtype=np.float64)
    n = d.size
    names = list(weights.weights)

    def fused_max(indices, against):
        total = np.zeros(len(indices))
        for name in names:
            mat = np.asarray(views[name], dtype=np.float64)
            sims = mat[indices] @ np.asarray(against[name], dtype=np.float64).T
            total += weights.weights[name] * sims.max(axis=1)
        return total

    budget = alpha * d.sum()
    r = fused_max(np.arange(n), target_rows)
    order = sorted(range(n), key=lambda i: (-r[i], i))
    pool = order[: max(1, math.ceil(rho * n))]

    selected = [pool[0]]
    total = d[pool[0]]
    while total < budget:
        remaining = [i for i in pool if i not in selected]
        if not remaining:
            break
        v = fused_max(
            np.array(remaining), {name: np.asarray(views[name])[selected] for name in names}
        )
        m = lam * r[remaining] - (1 - lam) * v
        ranked = sorted(range(len(remaining)), key=lambda p: (-m[p], remaining[p]))
        for p in ranked[:batch]:
            selected.append(remaining[p])
            total += d[remaining[p]]
    return selected, budget, total


def random_instance(rng, n=60, k_views=2, m_datasets=1, d=8, targets_per=5):
    views = {f"v{k}": unit_rows(rng, n, d) for k in range(k_views)}
    durations = rng.uniform(1.0, 10.0, size=n)
    datasets = [
        TargetDataset(f"ds{m}", {name: unit_rows(rng, targets_per, d) for name in views})
        for m in range(m_datasets)
    ]
    return views, durations, TargetSet(datasets)


def _relevance(views, targets, cfg):
    relevance_multi_dataset(views, targets, cfg.weights)


def _batched(views, targets, cfg):
    batched_mmr(np.ones(3), views, targets, cfg)


def _greedy(views, targets, cfg):
    greedy_mmr_exact(np.zeros(3), views, np.ones(3), cfg)


class TestViewCheck:
    """Relevance and both selectors check their views in one place, before any kernel runs.

    Each call weights views a and b equally against targets that hold
    both, with 3 candidates (durations, relevance); `rows` gives the row
    count of each view it passes.
    """

    @pytest.mark.parametrize(
        "call, rows, error",
        [
            pytest.param(_relevance, {"a": 3}, MissingView, id="relevance-missing-view"),
            pytest.param(_batched, {"a": 3}, MissingView, id="batched-missing-view"),
            pytest.param(_greedy, {"a": 3}, MissingView, id="greedy-missing-view"),
            pytest.param(_relevance, {"a": 3, "b": 4}, DimensionMismatch, id="relevance-rows-differ"),
            pytest.param(_batched, {"a": 3, "b": 4}, DimensionMismatch, id="batched-rows-not-durations"),
            pytest.param(_greedy, {"a": 3, "b": 2}, DimensionMismatch, id="greedy-fewer-rows"),
            pytest.param(_greedy, {"a": 3, "b": 4}, DimensionMismatch, id="greedy-more-rows"),
        ],
    )
    def test_bad_view_is_named(self, rng, call, rows, error):
        views = {name: unit_rows(rng, n, 4) for name, n in rows.items()}
        targets = TargetSet([TargetDataset("t", {"a": unit_rows(rng, 2, 4), "b": unit_rows(rng, 2, 4)})])
        cfg = SelectionConfig(alpha=0.5, rho=1.0, batch_size=1, weights=FusionWeights({"a": 1.0, "b": 1.0}))
        with pytest.raises(error, match="'b'"):
            call(views, targets, cfg)


class TestGreedyExact:
    def test_hand_worked_example(self):
        """Three candidates, target (1,0), lam=0.7, budget 2: picks [0, 2]."""
        cands = np.array([[1.0, 0.0], [0.0, 1.0], [0.7071, 0.7071]], dtype=np.float32)
        views = {"v": cands}
        r = np.array([1.0, 0.0, 0.70710678])
        cfg = SelectionConfig(alpha=2.0 / 3.0, lam=0.7, weights=FusionWeights({"v": 1.0}))
        result = greedy_mmr_exact(r, views, np.ones(3), cfg)
        assert [p.index for p in result.picks] == [0, 2]
        assert result.picks[0].relevance == pytest.approx(1.0)
        # second step: index 1 scores 0.7*0 - 0.3*0 = 0; index 2 scores ~0.2828
        assert result.picks[1].mmr == pytest.approx(0.4 * 0.70710678, abs=1e-4)
        assert result.picks[1].diversity == pytest.approx(0.70710678, abs=1e-4)

    def test_lambda_one_pure_relevance(self, rng):
        views, durations, targets = random_instance(rng, n=40)
        weights = FusionWeights.uniform(views)
        r = relevance_multi_dataset(views, targets, weights)
        cfg = SelectionConfig(alpha=0.4, lam=1.0, weights=weights)
        result = greedy_mmr_exact(r, views, durations, cfg)
        by_relevance = sorted(range(40), key=lambda i: (-r[i], i))
        assert [p.index for p in result.picks] == by_relevance[: len(result.picks)]

    def test_lambda_zero_pure_diversity(self, rng):
        """Second pick minimizes max similarity to the first."""
        views, durations, targets = random_instance(rng, n=30, k_views=1)
        weights = FusionWeights.uniform(views)
        r = relevance_multi_dataset(views, targets, weights)
        cfg = SelectionConfig(alpha=0.2, lam=0.0, weights=weights)
        result = greedy_mmr_exact(r, views, durations, cfg)
        first = result.picks[0].index
        mat = views["v0"].astype(np.float64)
        sims = mat @ mat[first]
        sims[first] = np.inf
        assert result.picks[1].index == int(np.argmin(sims))

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            greedy_mmr_exact(np.array([]), {"v": np.zeros((0, 2))}, np.array([]), SelectionConfig(alpha=0.5))


class TestBatchedMMR:
    def test_b1_rho1_equals_exact(self, rng):
        for _ in range(5):
            views, durations, targets = random_instance(
                rng, n=50, k_views=int(rng.integers(1, 4)), m_datasets=int(rng.integers(1, 3))
            )
            weights = FusionWeights.uniform(views)
            lam = float(rng.choice([0.0, 0.3, 0.7, 1.0]))
            cfg = SelectionConfig(alpha=0.3, lam=lam, rho=1.0, batch_size=1, weights=weights)
            r = relevance_multi_dataset(views, targets, weights)
            exact = greedy_mmr_exact(r, views, durations, cfg)
            batched = batched_mmr(durations, views, targets, cfg)
            assert [p.index for p in batched.picks] == [p.index for p in exact.picks]

    def test_matches_reference_implementation(self, rng):
        """N=500, 2 views, 20 targets, alpha=.1 rho=.5 B=8: same pick sequence."""
        views, durations, targets = random_instance(
            rng, n=500, k_views=2, m_datasets=1, targets_per=20
        )
        weights = FusionWeights.uniform(views)
        cfg = SelectionConfig(alpha=0.1, lam=0.7, rho=0.5, batch_size=8, weights=weights)
        result = batched_mmr(durations, views, targets, cfg)

        ref_picks, ref_budget, ref_total = reference_batched(
            durations, views, targets.datasets[0].views, weights, 0.7, 0.1, 0.5, 8
        )
        assert [p.index for p in result.picks] == ref_picks
        assert result.budget_s == pytest.approx(ref_budget)
        assert result.total_selected_s == pytest.approx(ref_total)

    def test_budget_bounds_and_prefilter_containment(self, rng):
        views, durations, targets = random_instance(rng, n=400, k_views=2, targets_per=20)
        weights = FusionWeights.uniform(views)
        cfg = SelectionConfig(alpha=0.1, lam=0.7, rho=0.5, batch_size=8, weights=weights)
        result = batched_mmr(durations, views, targets, cfg)
        d_max = durations.max()
        assert result.budget_s <= result.total_selected_s < result.budget_s + cfg.batch_size * d_max
        r = relevance_multi_dataset(views, targets, weights)
        pool_threshold = np.sort(r)[::-1][result.pool_size - 1]
        for pick in result.picks:
            assert pick.relevance >= pool_threshold - 1e-12

    def test_budget_smaller_than_any_duration_yields_seed_only(self, rng):
        """The seed commits before the loop test, so a tiny budget still picks one."""
        views, durations, targets = random_instance(rng, n=20)
        durations = np.full(20, 10.0)
        cfg = SelectionConfig(alpha=0.001, rho=1.0, weights=FusionWeights.uniform(views))
        result = batched_mmr(durations, views, targets, cfg)
        assert len(result.picks) == 1
        assert result.total_selected_s == 10.0

    def test_lambda_one_any_batch_is_relevance_order(self, rng):
        views, durations, targets = random_instance(rng, n=120)
        weights = FusionWeights.uniform(views)
        r = relevance_multi_dataset(views, targets, weights)
        cfg = SelectionConfig(alpha=0.3, lam=1.0, rho=1.0, batch_size=7, weights=weights)
        result = batched_mmr(durations, views, targets, cfg)
        by_relevance = sorted(range(120), key=lambda i: (-r[i], i))
        assert [p.index for p in result.picks] == by_relevance[: len(result.picks)]

    def test_deterministic_across_threads(self, rng):
        views, durations, targets = random_instance(rng, n=300, k_views=2, targets_per=15)
        cfg = SelectionConfig(alpha=0.1, rho=0.5, batch_size=16, weights=FusionWeights.uniform(views))
        results = [
            batched_mmr(durations, views, targets, cfg, threads=t) for t in (1, 4, 8)
        ]
        base = [(p.index, p.relevance, p.diversity, p.mmr) for p in results[0].picks]
        for other in results[1:]:
            assert [(p.index, p.relevance, p.diversity, p.mmr) for p in other.picks] == base

    def test_permutation_covariance(self, rng):
        """Permuting candidates permutes the pick sequence identically."""
        views, durations, targets = random_instance(rng, n=80)
        weights = FusionWeights.uniform(views)
        cfg = SelectionConfig(alpha=0.2, rho=0.6, batch_size=4, weights=weights)
        base = batched_mmr(durations, views, targets, cfg)

        perm = rng.permutation(80)
        p_views = {name: mat[perm] for name, mat in views.items()}
        permuted = batched_mmr(durations[perm], p_views, targets, cfg)
        inverse = np.empty(80, dtype=np.int64)
        inverse[perm] = np.arange(80)
        assert [p.index for p in base.picks] == [int(perm[p.index]) for p in permuted.picks]
        del inverse

    def test_small_pool_warns(self, rng):
        views, durations, targets = random_instance(rng, n=100)
        cfg = SelectionConfig(alpha=0.5, rho=0.05, weights=FusionWeights.uniform(views))
        with pytest.warns(SmallPoolWarning):
            batched_mmr(durations, views, targets, cfg)

    def test_cumulative_duration_strictly_increasing(self, rng):
        views, durations, targets = random_instance(rng, n=100)
        cfg = SelectionConfig(alpha=0.3, rho=1.0, batch_size=8, weights=FusionWeights.uniform(views))
        result = batched_mmr(durations, views, targets, cfg)
        cums = [p.cumulative_duration_s for p in result.picks]
        assert all(b > a for a, b in zip(cums, cums[1:]))
        indices = [p.index for p in result.picks]
        assert len(set(indices)) == len(indices)


# ---------- property tests on drawn instances: tiny pools, zero rows ----------

@st.composite
def instances(draw, max_n=12, min_zero_rows=0):
    """Views, durations, targets and weights, with some all-zero candidate rows.

    Rows come from a drawn seed, so instances are continuous random data
    and exact score ties arise only from the zero rows.
    """
    n = draw(st.integers(max(1, min_zero_rows), max_n))
    zero_rows = draw(st.integers(min_zero_rows, n))
    k_views = draw(st.integers(1, 2))
    d = draw(st.integers(2, 4))
    raw = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=k_views, max_size=k_views))
    if not any(raw):
        raw[0] = 1.0
    datasets = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    views = {f"v{k}": unit_rows(rng, n, d) for k in range(k_views)}
    zero = rng.choice(n, size=zero_rows, replace=False)
    for mat in views.values():
        mat[zero] = 0.0
    durations = rng.uniform(1.0, 10.0, size=n)
    targets = TargetSet(
        [
            TargetDataset(f"ds{m}", {name: unit_rows(rng, rows, d) for name in views})
            for m, rows in enumerate(datasets)
        ]
    )
    weights = FusionWeights({name: w for name, w in zip(views, raw)})
    return views, durations, targets, weights, set(zero.tolist())


@st.composite
def tied_instances(draw):
    """Up to 300 candidates, many sharing their rows in every view.

    Candidates drawn onto the same base row tie exactly in relevance,
    diversity and MMR score, so equal keys straddle the refresh head.
    """
    n = draw(st.integers(1, 300))
    distinct = draw(st.integers(1, n))
    k_views = draw(st.integers(1, 3))
    d = draw(st.integers(2, 6))
    raw = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=k_views, max_size=k_views))
    if not any(raw):
        raw[0] = 1.0
    datasets = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(0, distinct, size=n)
    views = {f"v{k}": unit_rows(rng, distinct, d)[base] for k in range(k_views)}
    durations = rng.uniform(1.0, 10.0, size=n)
    targets = TargetSet(
        [
            TargetDataset(f"ds{m}", {name: unit_rows(rng, rows, d) for name in views})
            for m, rows in enumerate(datasets)
        ]
    )
    weights = FusionWeights({name: w for name, w in zip(views, raw)})
    return views, durations, targets, weights


@st.composite
def near_tie_instances(draw):
    """Candidates that tie or nearly tie, so that float32 scores misorder them.

    Every candidate row copies one of a few base rows: exactly, with one
    component moved by one float32 ulp, scaled off unit by up to 1e-4
    (still a valid view flagged normalized), or zeroed. A target set may
    hold an off-unit copy of a base row, which puts scores at the clip.
    """
    n = draw(st.integers(1, 200))
    k_views = draw(st.integers(1, 3))
    d = draw(st.integers(2, 8))
    raw = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=k_views, max_size=k_views))
    datasets = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = draw(st.integers(1, 4))
    base = rng.integers(0, bases, size=n)
    kind = rng.integers(0, 4, size=n)
    nudged, col = np.flatnonzero(kind == 1), rng.integers(0, d, size=n)
    off = np.flatnonzero(kind == 2)

    def off_unit(rows):
        return rows * (1.0 + rng.uniform(-0.99e-4, 0.99e-4, size=(rows.shape[0], 1))).astype(np.float32)

    views, base_rows = {}, {}
    for k in range(k_views):
        name = f"v{k}"
        base_rows[name] = unit_rows(rng, bases, d)
        rows = base_rows[name][base]
        away = np.where(rng.random(nudged.size) < 0.5, np.inf, -np.inf).astype(np.float32)
        rows[nudged, col[nudged]] = np.nextafter(rows[nudged, col[nudged]], away)
        rows[off] = off_unit(rows[off])
        rows[kind == 3] = 0.0
        assert store._check_block(rows, 0, Path(f"{name}.emb"), True)[1] is None  # writable flagged normalized
        views[name] = rows
    sets = []
    for m, size in enumerate(datasets):
        mats = {name: unit_rows(rng, size, d) for name in views}
        if rng.random() < 0.5:
            for name, mat in mats.items():
                mat[0] = off_unit(base_rows[name][[m % bases]])[0]
        sets.append(TargetDataset(f"ds{m}", mats))
    weights = FusionWeights({name: w for name, w in zip(views, raw)})
    return views, TargetSet(sets), weights


def selection_bits(result):
    """Everything a selection reports, with scores as raw float64 bytes."""
    scores = np.array(
        [(p.relevance, p.diversity, p.mmr, p.cumulative_duration_s) for p in result.picks],
        dtype=np.float64,
    )
    return (
        [p.index for p in result.picks],
        scores.tobytes(),
        result.rounds,
        result.pool_size,
        result.exhausted,
    )


def quiet_batched_mmr(durations, views, targets, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallPoolWarning)
        return batched_mmr(durations, views, targets, cfg)


def ranked(r):
    return sorted(range(len(r)), key=lambda i: (-r[i], i))


alphas = st.floats(min_value=0.05, max_value=1.0)
rhos = st.floats(min_value=0.05, max_value=1.0)
lams = st.sampled_from([0.0, 0.3, 0.7, 1.0])


def blas_thread_count():
    """numpy's OpenBLAS thread-count getter; skips the test where it is not found."""
    lib = _openblas()
    if lib is None:
        pytest.skip("numpy's OpenBLAS has no scipy_openblas thread calls")
    return lib.scipy_openblas_get_num_threads64_


class TestBlasThreadScope:
    """`batched_mmr(threads=)` sets the BLAS threads for the call, then restores them."""

    def instance(self, rng):
        views, durations, targets = random_instance(rng, n=300, k_views=2, targets_per=15)
        cfg = SelectionConfig(alpha=0.1, rho=0.5, batch_size=16, weights=FusionWeights.uniform(views))
        return durations, views, targets, cfg

    def test_threads_one_runs_blas_on_one_thread(self, rng, monkeypatch):
        count = blas_thread_count()
        before = count()
        seen = []

        def counting(rows, batch, running, **kwargs):
            seen.append(count())
            update_running_max(rows, batch, running, **kwargs)

        monkeypatch.setattr(selection, "update_running_max", counting)
        batched_mmr(*self.instance(rng), threads=1)
        assert seen and set(seen) == {1}
        assert count() == before

    def test_count_restored_after_an_exception(self, rng, monkeypatch):
        count = blas_thread_count()
        before = count()
        seen = []

        def failing(rows, batch, running, **kwargs):
            seen.append(count())
            raise RuntimeError("fold failed")

        monkeypatch.setattr(selection, "update_running_max", failing)
        with pytest.raises(RuntimeError, match="fold failed"):
            batched_mmr(*self.instance(rng), threads=1)
        assert seen == [1]
        assert count() == before

    def test_never_more_threads_than_cpus(self):
        count = blas_thread_count()
        cpus = available_cpus()
        assert blas_thread_cap(cpus + 1) == cpus
        with blas_threads(cpus + 1):
            assert count() <= cpus


class TestSelectorProperties:
    @settings(max_examples=80, deadline=None)
    @given(inst=instances(), alpha=alphas, rho=rhos, lam=lams, batch=st.integers(1, 4))
    def test_exhausts_the_pool_or_fills_the_budget(self, inst, alpha, rho, lam, batch):
        views, durations, targets, weights, _ = inst
        n = durations.size
        cfg = SelectionConfig(alpha=alpha, lam=lam, rho=rho, batch_size=batch, weights=weights)
        result = quiet_batched_mmr(durations, views, targets, cfg)
        assert result.pool_size == min(n, max(1, math.ceil(rho * n)))
        pool = ranked(relevance_multi_dataset(views, targets, weights))[: result.pool_size]
        indices = [p.index for p in result.picks]
        assert len(set(indices)) == len(indices)
        assert set(indices) <= set(pool)
        if result.exhausted:
            assert sorted(indices) == sorted(pool)
            assert result.total_selected_s < result.budget_s
        else:
            assert result.total_selected_s >= result.budget_s

    @settings(max_examples=60, deadline=None)
    @given(inst=instances(min_zero_rows=1), lam=lams, batch=st.integers(1, 4))
    def test_zero_rows_score_exactly_zero(self, inst, lam, batch):
        """A candidate whose rows are all zero has relevance and diversity 0."""
        views, durations, targets, weights, zero = inst
        cfg = SelectionConfig(alpha=1.0, lam=lam, rho=1.0, batch_size=batch, weights=weights)
        r = relevance_multi_dataset(views, targets, weights)
        for result in (
            quiet_batched_mmr(durations, views, targets, cfg),
            greedy_mmr_exact(r, views, durations, cfg),
        ):
            assert {p.index for p in result.picks} == set(range(durations.size))
            for pick in result.picks:
                if pick.index in zero:
                    assert pick.relevance == 0.0
                    assert pick.diversity == 0.0

    @settings(max_examples=60, deadline=None)
    @given(inst=instances(max_n=2), alpha=alphas, rho=rhos, lam=lams, batch=st.integers(1, 4))
    def test_tiny_pools(self, inst, alpha, rho, lam, batch):
        """N = 1 and N = 2: the seed first, then the one row left if the budget needs it."""
        views, durations, targets, weights, _ = inst
        n = durations.size
        cfg = SelectionConfig(alpha=alpha, lam=lam, rho=rho, batch_size=batch, weights=weights)
        result = quiet_batched_mmr(durations, views, targets, cfg)
        order = ranked(relevance_multi_dataset(views, targets, weights))
        seed = order[0]
        expected = order if result.pool_size == 2 and durations[seed] < result.budget_s else [seed]
        assert [p.index for p in result.picks] == expected
        assert result.rounds == len(expected) - 1
        assert result.picks[0].diversity == 0.0
        assert result.exhausted == (result.total_selected_s < result.budget_s)
        if n == 1:
            assert not result.exhausted

    @settings(max_examples=80, deadline=None)
    @given(
        inst=instances(),
        alpha=alphas,
        lam=lams,
        aggregation=st.sampled_from(list(AggregationMode)),
    )
    def test_b1_rho1_matches_exact_greedy(self, inst, alpha, lam, aggregation):
        views, durations, targets, weights, _ = inst
        cfg = SelectionConfig(
            alpha=alpha, lam=lam, rho=1.0, batch_size=1, weights=weights, aggregation=aggregation
        )
        r = relevance_multi_dataset(views, targets, weights, aggregation)
        exact = greedy_mmr_exact(r, views, durations, cfg)
        batched = quiet_batched_mmr(durations, views, targets, cfg)
        assert [p.index for p in batched.picks] == [p.index for p in exact.picks]
        assert batched.exhausted == exact.exhausted
        assert batched.total_selected_s == exact.total_selected_s

    @settings(max_examples=120, deadline=None)
    @given(
        inst=tied_instances(),
        alpha=alphas,
        rho=rhos,
        lam=lams,
        batch=st.integers(1, 64),
        aggregation=st.sampled_from(list(AggregationMode)),
    )
    def test_lazy_refresh_equals_eager_rounds(self, inst, alpha, rho, lam, batch, aggregation):
        """Same picks, score bits, rounds, pool and exhaustion as refreshing every round."""
        views, durations, targets, weights = inst
        cfg = SelectionConfig(
            alpha=alpha,
            lam=lam,
            rho=rho,
            batch_size=batch,
            weights=weights,
            aggregation=aggregation,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallPoolWarning)
            eager = eager_batched_mmr(durations, views, targets, cfg)
        assert selection_bits(quiet_batched_mmr(durations, views, targets, cfg)) == selection_bits(
            eager
        )

    @settings(max_examples=150, deadline=None)
    @given(
        inst=near_tie_instances(),
        rho=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        aggregation=st.sampled_from(list(AggregationMode)),
    )
    def test_screened_prefilter_equals_exact_relevance(self, inst, rho, aggregation):
        """The certified bounds hold bit for bit, and the screened pool and its
        relevance bits are those of scoring every row exactly."""
        views, targets, weights = inst
        n = next(iter(views.values())).shape[0]
        pool_size = min(n, max(1, math.ceil(rho * n)))
        r = oracles.integer_relevance(views, targets, weights, aggregation)
        lo, hi = relevance_bounds(views, targets, weights, aggregation)
        assert np.all(lo <= r) and np.all(r <= hi)
        pool, r_pool, _, _ = _prefilter(views, targets, weights, aggregation, pool_size)
        expected = _ranked(np.arange(n), r)[:pool_size]
        np.testing.assert_array_equal(pool, expected)
        assert r_pool.tobytes() == r[expected].tobytes()

    def test_screen_leaves_few_rows_to_score_exactly(self, monkeypatch):
        """On clustered data, at most the pool plus 1% of it is scored exactly."""
        rng = np.random.default_rng(31)
        n, d, clusters = 20000, 64, 16
        centers = _normalize_rows(rng.standard_normal((clusters, d)).astype(np.float32))
        views = {"v": clustered_rows_one_draw(centers, rng.integers(0, clusters, size=n), 0.5, rng)}
        targets = TargetSet(
            [
                TargetDataset(f"t{m}", {"v": clustered_rows_one_draw(centers, np.full(300, m), 0.4, rng)})
                for m in range(2)
            ]
        )
        durations = rng.uniform(1.0, 10.0, size=n)
        scored = []
        fold = relevance.update_running_max

        def counting(cands, tgts, running, *, rows=None):
            if tgts.shape[0] == 300:  # a target set's fold, not the seed's
                scored.append(rows.size)
            return fold(cands, tgts, running, rows=rows)

        monkeypatch.setattr(relevance, "update_running_max", counting)
        cfg = SelectionConfig(alpha=0.01, rho=0.15, batch_size=100, weights=FusionWeights({"v": 1.0}))
        lazy = batched_mmr(durations, views, targets, cfg)
        assert len(scored) == 2 and scored[0] == scored[1]  # one fold per target set
        assert lazy.pool_size <= scored[0] <= 1.01 * lazy.pool_size
        assert selection_bits(lazy) == selection_bits(eager_batched_mmr(durations, views, targets, cfg))

    @pytest.mark.parametrize("widen", [0, math.inf])
    def test_reads_the_pool_and_survivors_in_place(self, monkeypatch, widen):
        """The traced peak stays below two pools of rows, with the screen's
        bounds and with bounds widened to -1 and 1, where every row survives
        and is folded by index. The commit buffer is one, so neither the
        pool nor the rows left to score are copied whole."""
        bounds_of = selection.relevance_bounds

        def widened(*args):
            lo, hi = bounds_of(*args)
            lo[:], hi[:] = -1.0, 1.0
            return lo, hi

        if widen:
            monkeypatch.setattr(selection, "relevance_bounds", widened)
        rng = np.random.default_rng(32)
        n, d, clusters = 40000, 128, 16
        centers = _normalize_rows(rng.standard_normal((clusters, d)).astype(np.float32))
        views = {"v": clustered_rows_one_draw(centers, rng.integers(0, clusters, size=n), 0.5, rng)}
        targets = TargetSet(
            [
                TargetDataset(f"t{m}", {"v": clustered_rows_one_draw(centers, np.full(200, m), 0.4, rng)})
                for m in range(2)
            ]
        )
        durations = rng.uniform(1.0, 10.0, size=n)
        cfg = SelectionConfig(alpha=0.01, rho=0.5, batch_size=50, weights=FusionWeights({"v": 1.0}))
        tracemalloc.start()
        try:
            result = batched_mmr(durations, views, targets, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * result.pool_size * d * 4

    @pytest.mark.parametrize("kinds", ["files", "file-and-array"])
    def test_view_files_select_as_the_loaded_views(self, tmp_path, monkeypatch, kinds):
        """Views given as `store.ViewFile`s of un-normalized rows, screened in
        blocks of 64 rows and gathered after the cut, give the bits of the same
        views loaded whole; so does a file next to an in-memory view."""
        rng = np.random.default_rng(33)
        n, dims = 3000, {"a": 16, "b": 24}
        for name, d in dims.items():
            rows = clustered_rows_one_draw(unit_rows(rng, 8, d), rng.integers(0, 8, size=n), 0.5, rng)
            rows *= rng.uniform(0.5, 3.0, size=(n, 1)).astype(np.float32)
            save_view(EmbeddingView(name, d, rows), tmp_path / f"{name}.emb")
        loaded = {name: load_view(tmp_path / f"{name}.emb").rows for name in dims}
        targets = TargetSet(
            [TargetDataset(f"t{m}", {name: unit_rows(rng, 40, d) for name, d in dims.items()}) for m in range(2)]
        )
        durations = rng.uniform(1.0, 10.0, size=n)
        weights = FusionWeights({"a": 1.0, "b": 2.0})
        cfg = SelectionConfig(alpha=0.05, rho=0.2, batch_size=16, weights=weights, aggregation=AggregationMode.MEAN)
        monkeypatch.setattr(store, "_BLOCK_BYTES", 64 * 16 * 4)
        with store.ViewFile(tmp_path / "a.emb") as a, store.ViewFile(tmp_path / "b.emb") as b:
            views = {"a": a, "b": b} if kinds == "files" else {"a": a, "b": loaded["b"]}
            streamed = batched_mmr(durations, views, targets, cfg)
        assert selection_bits(streamed) == selection_bits(batched_mmr(durations, loaded, targets, cfg))

    @staticmethod
    def clustered_instance():
        """4,000 distinct rows around 8 centers, B 32: most rounds refresh past 2B."""
        rng = np.random.default_rng(4242)
        n, d = 4000, 16
        centers = unit_rows(rng, 8, d)
        noisy = centers[rng.integers(0, 8, size=n)] + 0.6 * rng.standard_normal((n, d))
        views = {"v": _normalize_rows(noisy.astype(np.float32))}
        durations = rng.uniform(1.0, 10.0, size=n)
        targets = TargetSet([TargetDataset("t", {"v": unit_rows(rng, 20, d)})])
        cfg = SelectionConfig(alpha=0.1, rho=0.5, batch_size=32, weights=FusionWeights({"v": 1.0}))
        return durations, views, targets, cfg

    def test_lazy_refresh_skips_committed_rows_and_most_work(self, monkeypatch):
        """On clustered data the running max folds in under 0.7x the eager loop's row pairs."""
        durations, views, targets, cfg = self.clustered_instance()

        calls = {"lazy": [], "eager": []}

        def counting(log, kernel):
            def wrapped(rows, batch, *args, **kwargs):
                log.append((rows.copy(), batch.shape[0], batch[-1].copy()))
                return kernel(rows, batch, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(
            selection, "update_running_max", counting(calls["lazy"], selection.update_running_max)
        )
        monkeypatch.setattr(oracles, "integer_max_sim", counting(calls["eager"], oracles.integer_max_sim))
        lazy = batched_mmr(durations, views, targets, cfg)
        eager = eager_batched_mmr(durations, views, targets, cfg)
        assert selection_bits(lazy) == selection_bits(eager)
        assert lazy.rounds > 5
        # the eager loop's first call scores relevance against the one target set, and its
        # second the seed, as the lazy one does outside the running max
        del calls["eager"][:2]

        # the pool's committed rows in commit order; rows are distinct, so bytes identify them
        committed = [row.tobytes() for row in views["v"][lazy.indices]]
        position = {row: i for i, row in enumerate(committed)}
        for rows, _, last in calls["lazy"]:
            before = set(committed[: position[last.tobytes()] + 1])
            assert not any(row.tobytes() in before for row in rows)
        work = {
            side: sum(rows.shape[0] * batch_rows for rows, batch_rows, _ in log)
            for side, log in calls.items()
        }
        assert work["lazy"] < 0.7 * work["eager"]

    def test_refresh_work_is_pinned(self, monkeypatch):
        """The running max makes the calls and folds the (row, commit) pairs it made
        before the round loop was stated as CELF's stopping rule, and some round
        refreshes more than once, so its head grows past 2B."""
        durations, views, targets, cfg = self.clustered_instance()
        calls = []
        kernel = selection.update_running_max

        def counting(rows, batch, running, **kwargs):
            calls.append((rows.shape[0], batch.shape[0], batch[-1].tobytes()))
            return kernel(rows, batch, running, **kwargs)

        monkeypatch.setattr(selection, "update_running_max", counting)
        result = batched_mmr(durations, views, targets, cfg)
        # measured at commit 3b98ff1, the parent of the CELF-rule round loop
        assert len(calls) == 153
        assert sum(rows * batch for rows, batch, _ in calls) == 284_288
        # A refresh folds its commit segments oldest first, so a call whose last
        # commit is not later than the previous call's starts a new refresh.
        # Every round after the first refreshes at least once.
        position = {row.tobytes(): i for i, row in enumerate(views["v"][result.indices])}
        last = [position[row] for _, _, row in calls]
        refreshes = 1 + sum(b <= a for a, b in zip(last, last[1:]))
        assert refreshes > result.rounds - 1

    def test_zero_weight_view_is_not_tracked(self, monkeypatch):
        """A view of weight 0 costs no running-max work: as many calls as without it."""
        rng = np.random.default_rng(77)
        n, d = 500, 8
        views = {"a": unit_rows(rng, n, d), "b": unit_rows(rng, n, d)}
        durations = rng.uniform(1.0, 10.0, size=n)
        targets = TargetSet([TargetDataset("t", {name: unit_rows(rng, 12, d) for name in views})])
        calls = []

        def counting(rows, batch, running, **kwargs):
            calls.append(rows.shape[0])
            return kernel(rows, batch, running, **kwargs)

        kernel = selection.update_running_max
        monkeypatch.setattr(selection, "update_running_max", counting)
        results = {}
        for label, chosen, weights in (
            ("zero", views, {"a": 1.0, "b": 0.0}),
            ("alone", {"a": views["a"]}, {"a": 1.0}),
        ):
            cfg = SelectionConfig(alpha=0.2, rho=0.6, batch_size=16, weights=FusionWeights(weights))
            calls.clear()
            results[label] = (selection_bits(batched_mmr(durations, chosen, targets, cfg)), len(calls))
        assert results["zero"] == results["alone"]
        assert results["alone"][1] > 0


class TestViewOrder:
    """Views fuse in name order, so the order the weights list them in changes no bit."""

    @pytest.mark.parametrize("mode", list(AggregationMode))
    @pytest.mark.parametrize("kind", ["arrays", "files"])
    def test_every_weight_order_selects_the_same_bits(self, tmp_path, kind, mode):
        rng = np.random.default_rng(2525)
        n, dims = 600, {"c": 12, "a": 16, "b": 8}
        views = {name: unit_rows(rng, n, d) for name, d in dims.items()}
        for name, d in dims.items():
            save_view(EmbeddingView(name, d, views[name]), tmp_path / f"{name}.emb")
        targets = TargetSet(
            [TargetDataset(f"t{m}", {name: unit_rows(rng, 30, d) for name, d in dims.items()}) for m in range(2)]
        )
        durations = rng.uniform(1.0, 10.0, size=n)
        raw = {"c": 0.34, "a": 0.33, "b": 0.33}
        bits = []
        for order in itertools.permutations(raw):
            weights = FusionWeights({name: raw[name] for name in order})
            cfg = SelectionConfig(alpha=0.1, rho=0.3, batch_size=8, weights=weights, aggregation=mode)
            with contextlib.ExitStack() as stack:
                if kind == "files":
                    given = {name: stack.enter_context(store.ViewFile(tmp_path / f"{name}.emb")) for name in order}
                else:
                    given = {name: views[name] for name in order}
                bits.append(selection_bits(quiet_batched_mmr(durations, given, targets, cfg)))
        assert all(b == bits[0] for b in bits)


class TestRandomBaseline:
    def test_alpha_one_selects_everything(self, rng):
        durations = rng.uniform(1, 5, size=30)
        result = random_baseline(durations, 1.0, seed=9)
        assert sorted(p.index for p in result.picks) == list(range(30))

    def test_same_seed_same_result(self, rng):
        durations = rng.uniform(1, 5, size=50)
        a = random_baseline(durations, 0.2, seed=7)
        b = random_baseline(durations, 0.2, seed=7)
        assert [p.index for p in a.picks] == [p.index for p in b.picks]
        c = random_baseline(durations, 0.2, seed=8)
        assert [p.index for p in c.picks] != [p.index for p in a.picks]

    def test_uniform_durations_exact_count(self):
        result = random_baseline(np.ones(10_000), 0.05, seed=1)
        assert len(result.picks) == 500
        assert all(p.relevance == 0.0 and p.mmr == 0.0 for p in result.picks)


class TestDurationBaseline:
    def test_matches_target_histogram(self, rng):
        """Same source/target distribution: per-bin duration mass within 2%."""
        source = rng.lognormal(mean=1.5, sigma=0.5, size=50_000)
        target = rng.lognormal(mean=1.5, sigma=0.5, size=1_000)
        result = duration_baseline(source, target, alpha=0.05, seed=3, bins=20)
        edges = np.quantile(target, np.linspace(0, 1, 21))
        inner = edges[1:-1]
        target_mass = np.zeros(20)
        np.add.at(target_mass, np.searchsorted(inner, target, side="right"), target)
        target_mass /= target_mass.sum()
        picked = source[[p.index for p in result.picks]]
        picked_mass = np.zeros(20)
        np.add.at(picked_mass, np.searchsorted(inner, picked, side="right"), picked)
        picked_mass /= picked_mass.sum()
        assert np.abs(picked_mass - target_mass).max() <= 0.02

    def test_constant_target_drains_single_bin(self, rng):
        source = np.concatenate([np.full(50, 2.0), np.full(50, 40.0)])
        target = np.full(30, 2.0)
        result = duration_baseline(source, target, alpha=0.3, seed=0, bins=5)
        # budget = 0.3 * (100 + 2000) = 630s; the 2s bin holds 100s total, so
        # it must drain completely before anything spills
        picked = {p.index for p in result.picks}
        assert set(range(50)) <= picked

    @settings(max_examples=300, deadline=None)
    @given(
        durations=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=80),
        target=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=5),
        alpha=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_one_bin_equals_random_baseline(self, durations, target, alpha, seed):
        """With one bin both baselines are the earlier prefix loop, pick for pick
        and bit for bit, also where alpha 1's budget, the pairwise sum, is not met."""
        expected = oracles.random_baseline_loop(durations, alpha, seed)
        assume(expected.budget_s > 0.0)  # test_zero_budget_takes_no_row
        assert duration_baseline(durations, target, alpha, seed, bins=1) == expected
        assert random_baseline(durations, alpha, seed) == expected

    def test_zero_budget_takes_no_row(self):
        """alpha * total duration underflows to 0: the fill meets it with no pick,
        where the earlier prefix loop took a first row before testing the budget."""
        for result in (random_baseline([0.25], 5e-324, seed=0), duration_baseline([0.25], [1.0], 5e-324, seed=0)):
            assert (result.budget_s, result.picks, result.exhausted) == (0.0, [], False)

    def test_a_bin_that_runs_out_spills_to_a_lower_bin(self):
        """The shares are 2 s and 10 s of the 12 s budget. Bin 1 holds one 5 s row,
        so its 5 s shortfall is drawn from bin 0. Picks taken from the earlier fill."""
        result = duration_baseline([1.0] * 10 + [5.0], [1.0, 1.0, 5.0, 5.0], alpha=0.8, seed=3, bins=2)
        assert [p.index for p in result.picks] == [4, 6, 10, 8, 7, 0, 5, 1]
        assert (result.total_selected_s, result.budget_s, result.exhausted) == (12.0, 12.0, False)

    def test_float_crumbs_are_drawn_last(self):
        """The target is one value, so bin 0 takes the whole budget, 0.5 * 24.8, but holds
        only row 3. Its shortfall spills to bin 4 (bins 1-3 are empty) until the need is
        within 1e-12; the sum then falls short of the budget by rounding, and one more draw
        covers it. Picks taken from the earlier fill."""
        result = duration_baseline([3.3, 6.0, 7.3, 1.8, 6.4], [3.2], alpha=0.5, seed=5137, bins=5)
        assert [p.index for p in result.picks] == [3, 0, 2, 4]
        assert result.picks[-2].cumulative_duration_s < result.budget_s <= result.total_selected_s
        assert not result.exhausted

    def test_total_meets_budget(self, rng):
        source = rng.uniform(1, 10, size=2000)
        target = rng.uniform(1, 10, size=100)
        result = duration_baseline(source, target, alpha=0.2, seed=2, bins=10)
        assert result.total_selected_s >= result.budget_s
        assert not result.exhausted


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"alpha": 0.1, "lam": -0.1},
            {"alpha": 0.1, "lam": 1.01},
            {"alpha": 0.1, "rho": 0.0},
            {"alpha": 0.1, "batch_size": 0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            SelectionConfig(**kwargs)


_SELECTORS = {
    "batched_mmr": lambda views, d, targets, cfg: batched_mmr(d, views, targets, cfg),
    "greedy_mmr_exact": lambda views, d, targets, cfg: greedy_mmr_exact(
        relevance_multi_dataset(views, targets, cfg.weights), views, d, cfg
    ),
    "random_baseline": lambda views, d, targets, cfg: random_baseline(d, cfg.alpha, seed=3),
    "duration_baseline": lambda views, d, targets, cfg: duration_baseline(d, [1.0, 4.0], cfg.alpha, seed=3),
}


class TestDurationFaults:
    """Every selector takes its budget from `selection._budget`: a duration that is not positive
    and finite, or a total beyond float range, raises at its row instead of being spent."""

    @pytest.mark.parametrize(
        "rows, row",
        [
            pytest.param({3: float("nan")}, 3, id="nan"),
            pytest.param({3: float("inf")}, 3, id="inf"),
            pytest.param({3: 0.0}, 3, id="zero"),
            pytest.param({3: -1.5}, 3, id="negative"),
            pytest.param({3: 1e308, 7: 1e308}, 7, id="total-beyond-float"),
        ],
    )
    @pytest.mark.parametrize("selector", sorted(_SELECTORS))
    def test_a_bad_duration_raises_at_its_row(self, rng, selector, rows, row):
        views, durations, targets = random_instance(rng, n=20)
        for at, value in rows.items():
            durations[at] = value
        cfg = SelectionConfig(alpha=0.5, rho=1.0, weights=FusionWeights.uniform(views))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonPositiveDuration, match=rf"^durations\[{row}\] is ") as err:
                _SELECTORS[selector](views, durations, targets, cfg)
        assert err.value.line == row
