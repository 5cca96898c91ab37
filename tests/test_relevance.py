import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corpus_select import relevance
from corpus_select.errors import (
    DimensionMismatch,
    EmptyTargets,
    EmptyTargetSet,
    NonUnitRow,
)
from corpus_select.relevance import (
    _TILE_ROWS,
    _TILE_TARGETS,
    AggregationMode,
    FusionWeights,
    blas_threads,
    max_similarity,
    relevance_bounds,
    relevance_multi_dataset,
    update_running_max,
)
from corpus_select.projection import ProjectionSpec, make_projection, project_view
from corpus_select.selection import SelectionConfig, batched_mmr, greedy_mmr_exact
from corpus_select.store import TargetDataset, TargetSet, _normalize_rows
from conftest import unit_rows
from oracles import EmptySelection, brute_max_sim, cosine, diversity_penalty, integer_max_sim, integer_relevance


def one_dataset(targets):
    """A TargetSet of one dataset holding `targets`, a view name -> matrix dict."""
    return TargetSet([TargetDataset("targets", targets)])


def brute_fused(views, targets, weights):
    total = np.zeros(next(iter(views.values())).shape[0])
    for name, w in weights.weights.items():
        total += w * brute_max_sim(views[name], targets[name])
    return total


class TestFusionWeights:
    def test_normalized_at_construction(self):
        w = FusionWeights({"a": 2.0, "b": 6.0})
        assert w.weights == {"a": 0.25, "b": 0.75}

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_scale_invariant(self, c):
        """Multiplying all raw weights by c > 0 changes nothing."""
        base = FusionWeights({"a": 0.2, "b": 0.5, "c": 0.3})
        scaled = FusionWeights({"a": 0.2 * c, "b": 0.5 * c, "c": 0.3 * c})
        for name in base.weights:
            assert scaled.weights[name] == pytest.approx(base.weights[name], rel=1e-12)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            FusionWeights({"a": 0.0, "b": 0.0})

    def test_rejects_total_beyond_float_range(self):
        """Each weight is finite, but the shares w / inf would all be 0 and leave no view."""
        with pytest.raises(ValueError, match="sum to a finite number"):
            FusionWeights({"a": 1e308, "b": 1e308})

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FusionWeights({"a": -0.1, "b": 1.0})

    def test_uniform(self):
        w = FusionWeights.uniform(["a", "b"])
        assert w.weights == {"a": 0.5, "b": 0.5}

    def test_names_in_name_order(self):
        assert FusionWeights({"b": 1, "a": 3}).names == ["a", "b"]

    def test_fuse_skips_zero_weights_and_clips(self):
        """Zero-weight views are never scored; the weighted sum is clipped."""
        w = FusionWeights({"a": 1.0, "off": 0.0, "b": 3.0})
        scored = []

        def score(name):
            scored.append(name)
            return {"a": np.array([0.4, 2.0, -5.0]), "b": np.array([0.8, 2.0, -5.0])}[name]

        np.testing.assert_array_equal(w.fuse(score), [0.25 * 0.4 + 0.75 * 0.8, 1.0, -1.0])
        assert scored == ["a", "b"]


class TestCosine:
    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_identity(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_45_degrees(self):
        assert cosine([1.0, 0.0], [0.7071, 0.7071]) == pytest.approx(0.7071, abs=1e-4)

    def test_zero_vector_scores_zero(self):
        assert cosine([0.0, 0.0], [1.0, 0.0]) == 0.0

    def test_clamped(self):
        v = np.array([1.0 + 1e-9, 0.0])
        assert cosine(v, v) == 1.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])


class TestRelevanceSingle:
    """Single-view relevance is `max_similarity` against the target rows."""

    def test_componentwise_max(self):
        cands = np.array([[0.6, 0.8]], dtype=np.float32)
        targets = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        scores = max_similarity(cands, targets)
        assert scores[0] == pytest.approx(0.8, abs=1e-7)

    def test_self_match_is_one(self, rng):
        rows = unit_rows(rng, 5, 16)
        scores = max_similarity(rows, rows[2:3])
        assert scores[2] == pytest.approx(1.0, abs=1e-6)

    def test_matches_brute_force(self, rng):
        """50 candidates x 20 targets: blocked kernel equals the double loop."""
        cands = unit_rows(rng, 50, 12)
        targets = unit_rows(rng, 20, 12)
        np.testing.assert_allclose(
            max_similarity(cands, targets), brute_max_sim(cands, targets), atol=1e-6
        )

    def test_empty_targets(self, rng):
        """An empty or 1-D target matrix raises EmptyTargets before its rows are checked."""
        for shape in ((0, 4), (4,)):
            with pytest.raises(EmptyTargets):
                max_similarity(unit_rows(rng, 3, 4), np.zeros(shape, dtype=np.float32))

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            max_similarity(unit_rows(rng, 3, 4), unit_rows(rng, 2, 5))

    def test_threads_bit_identical(self, rng):
        cands = unit_rows(rng, 40000, 16)
        targets = unit_rows(rng, 64, 16)
        with blas_threads(1):
            a = max_similarity(cands, targets)
        with blas_threads(2):
            b = max_similarity(cands, targets)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_exact_on_the_grid(self, rng, threads):
        """Scores equal exact integer arithmetic on the rounded rows, bit for bit.

        40000 candidates span 20 candidate tiles; 3072 dims is the widest
        view the pipeline projects from. BLAS runs on `threads` threads.
        """
        for n, d in ((40000, 16), (300, 3072)):
            cands = unit_rows(rng, n, d)
            targets = unit_rows(rng, 37, d)
            with blas_threads(threads):
                scores = max_similarity(cands, targets)
            np.testing.assert_array_equal(scores, integer_max_sim(cands, targets))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_exact_at_the_tile_edges(self, rng, threads):
        """Candidate and target counts one below, at and one above the tile sizes."""
        cands = unit_rows(rng, _TILE_ROWS + 1, 8)
        targets = unit_rows(rng, _TILE_TARGETS + 1, 8)
        for n in (_TILE_ROWS - 1, _TILE_ROWS, _TILE_ROWS + 1):
            for m in (_TILE_TARGETS - 1, _TILE_TARGETS, _TILE_TARGETS + 1):
                with blas_threads(threads):
                    scores = max_similarity(cands[:n], targets[:m])
                np.testing.assert_array_equal(scores, integer_max_sim(cands[:n], targets[:m]))

    def test_monotone_in_targets(self, rng):
        """Adding a target row never decreases any relevance score."""
        cands = unit_rows(rng, 30, 8)
        targets = unit_rows(rng, 10, 8)
        base = max_similarity(cands, targets)
        grown = max_similarity(cands, np.vstack([targets, unit_rows(rng, 1, 8)]))
        assert np.all(grown >= base - 1e-12)


def near_tie_fold(n, m, d, seed, negative):
    """rows, batch and running for a running-max fold, full of exact and near ties.

    Up to 40 rows of each side are overwritten with a duplicate of, or a
    row one float32 ulp from, one of a few rows of either side, or with a
    zero row. With `negative`, rows lie around u and the batch around -u,
    variants come from their own side and no row is zero, so every
    similarity is negative. Each running value is the new max itself, one
    step below or above it, -1 or uniform in [-1, 1].
    """
    rng = np.random.default_rng(seed)
    if negative:
        u = unit_rows(rng, 1, d)
        noisy = [sign * u + 0.2 * rng.standard_normal((k, d)) / np.sqrt(d) for sign, k in ((1, n), (-1, m))]
        rows, batch = (_normalize_rows(x.astype(np.float32)) for x in noisy)
    else:
        rows, batch = unit_rows(rng, n, d), unit_rows(rng, m, d)
    shared = np.vstack([rows[:2], batch[:2]])
    for mat in (rows, batch):
        base = mat[:3].copy() if negative else shared
        at = rng.choice(mat.shape[0], size=min(mat.shape[0], 40), replace=False)
        for i, kind in zip(at, rng.integers(0, 2 if negative else 4, at.size)):
            mat[i] = 0.0 if kind == 3 else base[rng.integers(0, base.shape[0])]
            if kind in (1, 2):
                k = rng.integers(0, d)
                mat[i, k] = np.nextafter(mat[i, k], np.float32(np.inf if kind == 1 else -np.inf))
    new = integer_max_sim(rows, batch)
    choices = [new, np.nextafter(new, -np.inf), np.nextafter(new, np.inf), np.full(n, -1.0), rng.uniform(-1, 1, n)]
    return rows, batch, np.choose(rng.integers(0, len(choices), n), choices), new


class TestRunningMax:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 5, 33, _TILE_ROWS - 1, _TILE_ROWS + 1]),
        m=st.sampled_from([1, 4, 29, _TILE_TARGETS + 1]),
        d=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        negative=st.booleans(),
    )
    @example(n=_TILE_ROWS + 1, m=_TILE_TARGETS + 1, d=8, seed=0, negative=False)
    @example(n=_TILE_ROWS + 1, m=_TILE_TARGETS + 1, d=8, seed=1, negative=True)
    def test_screened_fold_equals_the_integer_max(self, n, m, d, seed, negative):
        """The screened fold leaves `running` bit for bit as the exact integer max would,
        also when it reads a subset of the rows by index, four rows per tile."""
        assume(d > 1 or n * m < 100_000)  # one dim ties every pair
        rows, batch, running, new = near_tie_fold(n, m, d, seed, negative)
        if negative:
            assert new.max() < 0.0
        expected = np.maximum(running, new)
        at = np.random.default_rng(seed).permutation(n)[: max(1, n // 2)]
        subset = running[at]
        with mock.patch.object(relevance, "_TILE_ROWS", 4):
            update_running_max(rows, batch, subset, rows=at)
        assert subset.tobytes() == expected[at].tobytes()
        update_running_max(rows, batch, running)
        assert running.tobytes() == expected.tobytes()


@st.composite
def certified_instances(draw):
    """Views with target sets of 1 to 24 rows in 2 to 8 dimensions, with exact
    ties and near-ties among the targets.

    A target copies one of a few base rows (duplicates), nudged by one
    float32 ulp, moved by noise of 1e-8 to 1e-5 (near-ties across the
    2 eps window), or is a fresh random row. A candidate copies a base
    row, is moved off one, is random, or is zero. Returns the views, the
    targets, the weights and the rows to score.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 60)), draw(st.integers(2, 8))
    names = [f"v{k}" for k in range(draw(st.integers(1, 3)))]
    sizes = draw(st.lists(st.integers(1, 24), min_size=1, max_size=3))
    views, sets = {}, [{} for _ in sizes]
    for name in names:
        bases = unit_rows(rng, 3, d)
        for mats, size in zip(sets, sizes):
            t = bases[rng.integers(0, 3, size)]
            kind, col = rng.integers(0, 4, size), rng.integers(0, d, size)
            t[kind == 1, col[kind == 1]] = np.nextafter(t[kind == 1, col[kind == 1]], np.float32(np.inf))
            noise = 10.0 ** rng.uniform(-8, -5, (size, 1)) * rng.standard_normal((size, d))
            t[kind == 2] = _normalize_rows((t + noise).astype(np.float32))[kind == 2]
            t[kind == 3] = unit_rows(rng, int((kind == 3).sum()), d)
            mats[name] = t
        rows = bases[rng.integers(0, 3, n)]
        kind = rng.integers(0, 4, n)
        noise = 10.0 ** rng.uniform(-8, -3, (n, 1)) * rng.standard_normal((n, d))
        rows[kind == 1] = _normalize_rows((rows + noise).astype(np.float32))[kind == 1]
        rows[kind == 2] = unit_rows(rng, int((kind == 2).sum()), d)
        rows[kind == 3] = 0.0
        views[name] = rows
    targets = TargetSet([TargetDataset(f"ds{m}", mats) for m, mats in enumerate(sets)])
    weights = FusionWeights({name: draw(st.sampled_from([0.5, 1.0, 2.0])) for name in names})
    picked = np.flatnonzero(rng.random(n) < draw(st.floats(0.0, 1.0)))
    return views, targets, weights, picked


class TestCertifiedRelevance:
    @settings(max_examples=200, deadline=None)
    @given(
        inst=certified_instances(),
        mode=st.sampled_from(list(AggregationMode)),
        tile_targets=st.sampled_from([2, 3, 5, _TILE_TARGETS]),
        tile_rows=st.sampled_from([4, _TILE_ROWS]),
    )
    def test_equals_the_kernel_bit_for_bit(self, inst, mode, tile_targets, tile_rows):
        """`relevance_multi_dataset(..., rows=rows)` is the integer relevance of those
        rows, also when a set spans several target or candidate tiles."""
        views, targets, weights, rows = inst
        expected = integer_relevance({k: v[rows] for k, v in views.items()}, targets, weights, mode)
        with mock.patch.object(relevance, "_TILE_TARGETS", tile_targets), mock.patch.object(
            relevance, "_TILE_ROWS", tile_rows
        ):
            got = relevance_multi_dataset(views, targets, weights, mode, rows=rows)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", list(AggregationMode))
    def test_scores_survivors_by_the_running_max_fold_alone(self, rng, mode):
        """Relevance of the rows at `rows`, the running max's fold from -inf, equals
        the integer relevance bit for bit, for a small target set and a large one."""
        views = {"v": unit_rows(rng, 300, 64)}
        targets = TargetSet(
            [TargetDataset("small", {"v": unit_rows(rng, 3, 64)}), TargetDataset("large", {"v": unit_rows(rng, 5000, 64)})]
        )
        weights = FusionWeights({"v": 1.0})
        rows = np.flatnonzero(rng.random(300) < 0.5)
        expected = integer_relevance({"v": views["v"][rows]}, targets, weights, mode)
        got = relevance_multi_dataset(views, targets, weights, mode, rows=rows)
        assert got.tobytes() == expected.tobytes()


class TestRowRange:
    """Scored rows keep the one unit rule, a float64 norm within 1e-4 of 1 or 0, which
    keeps grid products exact; other rows, NaN rows included, raise on every path."""

    PATHS = [
        "max_similarity", "relevance_bounds", "relevance", "relevance-rows", "batched_mmr", "greedy_mmr_exact", "project_view"
    ]

    @staticmethod
    def paths(cands, targets):
        """Every entry point that scores in-memory rows, as named calls on the rows."""
        n, d = cands.shape
        views, tset, weights = {"v": cands}, one_dataset({"v": targets}), FusionWeights({"v": 1.0})
        cfg = SelectionConfig(alpha=0.2, rho=0.5, batch_size=4)
        return {
            "max_similarity": lambda: max_similarity(cands, targets),
            "relevance_bounds": lambda: relevance_bounds(views, tset, weights),
            "relevance": lambda: relevance_multi_dataset(views, tset, weights),
            "relevance-rows": lambda: relevance_multi_dataset(views, tset, weights, rows=np.arange(1, n)),
            "batched_mmr": lambda: batched_mmr(np.ones(n), views, tset, cfg),
            "greedy_mmr_exact": lambda: greedy_mmr_exact(np.linspace(0.0, 1.0, n), views, np.ones(n), cfg),
            "project_view": lambda: list(project_view([cands], make_projection(ProjectionSpec(d, 4)))),
        }

    @pytest.mark.parametrize("bad", ["nan-row", "norm-2.5"])
    def test_rejects_rows_out_of_range(self, rng, bad):
        cands, targets = unit_rows(rng, 40, 16), unit_rows(rng, 7, 16)
        if bad == "nan-row":
            cands[5, 3] = np.nan
        else:
            cands *= np.float32(2.5)
        for path in self.paths(cands, targets).values():
            with pytest.raises(NonUnitRow):
                path()

    @pytest.mark.parametrize("norm", [1.0 + 2e-4, 0.5])
    @pytest.mark.parametrize("path", PATHS)
    def test_one_unit_rule_on_every_scorer(self, rng, path, norm):
        """Rows within 1e-4 of unit norm, and zero rows, are scored; a row of norm
        1 + 2e-4 or 0.5 among the scored rows is refused, naming it."""
        cands, targets = unit_rows(rng, 40, 16), unit_rows(rng, 7, 16)
        cands[3] *= np.float32(1.0 + 0.99e-4)
        cands[5] *= np.float32(1.0 - 0.99e-4)
        cands[9], targets[2] = 0.0, 0.0
        targets[4] *= np.float32(1.0 - 0.99e-4)
        self.paths(cands, targets)[path]()
        cands[6] *= np.float32(norm)
        with pytest.raises(NonUnitRow, match=f"row 6 has L2 norm {norm:.6f}"):
            self.paths(cands, targets)[path]()

    def test_refuses_a_non_unit_target(self, rng):
        cands, targets = unit_rows(rng, 40, 16), unit_rows(rng, 7, 16)
        targets[2] *= np.float32(0.5)
        with pytest.raises(NonUnitRow, match="target row 2 has L2 norm 0.500000"):
            max_similarity(cands, targets)

    def test_accepts_unit_rows_at_3072_dims_and_zero_rows(self, rng):
        cands, targets = unit_rows(rng, 40, 3072), unit_rows(rng, 7, 3072)
        cands[3], targets[2] = 0.0, 0.0
        results = {name: path() for name, path in self.paths(cands, targets).items()}
        assert results["max_similarity"].tobytes() == integer_max_sim(cands, targets).tobytes()
        assert len(results["batched_mmr"].picks) > 1


class TestFloat32Boundary:
    def test_float64_rows_score_as_their_float32_cast(self, rng):
        """Rows of another dtype are cast to float32 where they enter the scorer, so
        each entry point returns, bit for bit, what it returns for the cast rows."""
        wide = rng.standard_normal((300, 24)) + 0.3
        wide /= np.linalg.norm(wide, axis=1, keepdims=True)
        cands, targets = wide[:260], wide[260:]
        assert not np.array_equal(cands, cands.astype(np.float32))
        rows = np.arange(0, 260, 3)
        for kwargs in ({}, {"rows": rows}):
            expected = max_similarity(cands.astype(np.float32), targets.astype(np.float32), **kwargs)
            assert max_similarity(cands, targets, **kwargs).tobytes() == expected.tobytes()
            weights, ts = FusionWeights({"v": 1.0}), one_dataset({"v": targets})
            expected = relevance_multi_dataset({"v": cands.astype(np.float32)}, ts, weights, **kwargs)
            assert relevance_multi_dataset({"v": cands}, ts, weights, **kwargs).tobytes() == expected.tobytes()
        durations = rng.uniform(1.0, 10.0, size=260)
        cfg = SelectionConfig(alpha=0.2, rho=0.5, batch_size=8)
        expected = batched_mmr(durations, {"v": cands.astype(np.float32)}, one_dataset({"v": targets}), cfg)
        assert batched_mmr(durations, {"v": cands}, one_dataset({"v": targets}), cfg) == expected


class TestRelevanceFused:
    def test_single_view_reduces_bitwise(self, rng):
        cands = unit_rows(rng, 25, 10)
        targets = unit_rows(rng, 7, 10)
        fused = relevance_multi_dataset({"v": cands}, one_dataset({"v": targets}), FusionWeights({"v": 1.0}))
        single = max_similarity(cands, targets)
        np.testing.assert_array_equal(fused, single)

    def test_weighted_mean_of_view_scores(self):
        """Per-view relevances 0.8 and 0.4 at weights (0.5, 0.5) fuse to 0.6."""
        cands = {"a": np.array([[1.0, 0.0]], dtype=np.float32),
                 "b": np.array([[1.0, 0.0]], dtype=np.float32)}
        targets = {
            "a": np.array([[0.8, 0.6]], dtype=np.float32),
            "b": np.array([[0.4, np.sqrt(1 - 0.16)]], dtype=np.float32),
        }
        fused = relevance_multi_dataset(cands, one_dataset(targets), FusionWeights({"a": 1.0, "b": 1.0}))
        assert fused[0] == pytest.approx(0.6, abs=1e-6)

    def test_matches_brute_force(self, rng):
        views = {f"v{k}": unit_rows(rng, 40, 6 + k) for k in range(3)}
        targets = {f"v{k}": unit_rows(rng, 9, 6 + k) for k in range(3)}
        weights = FusionWeights({"v0": 0.5, "v1": 1.5, "v2": 2.0})
        np.testing.assert_allclose(
            relevance_multi_dataset(views, one_dataset(targets), weights),
            brute_fused(views, targets, weights),
            atol=1e-6,
        )


class TestMultiDataset:
    def build_targets(self, rng, sizes, dims):
        return TargetSet(
            [
                TargetDataset(
                    f"ds{i}", {name: unit_rows(rng, m, d) for name, d in dims.items()}
                )
                for i, m in enumerate(sizes)
            ]
        )

    def test_single_dataset_reduces_bitwise(self, rng):
        dims = {"a": 8, "b": 6}
        views = {name: unit_rows(rng, 20, d) for name, d in dims.items()}
        targets = self.build_targets(rng, [5], dims)
        weights = FusionWeights.uniform(["a", "b"])
        fused = relevance_multi_dataset(views, one_dataset(targets.datasets[0].views), weights)
        for mode in AggregationMode:
            np.testing.assert_array_equal(
                relevance_multi_dataset(views, targets, weights, mode), fused
            )

    def test_max_and_mean_arithmetic(self):
        """Per-dataset relevances 0.9 and 0.5 give max 0.9 and mean 0.7."""
        cand = {"v": np.array([[1.0, 0.0]], dtype=np.float32)}
        targets = TargetSet(
            [
                TargetDataset("d1", {"v": np.array([[0.9, np.sqrt(1 - 0.81)]], dtype=np.float32)}),
                TargetDataset("d2", {"v": np.array([[0.5, np.sqrt(0.75)]], dtype=np.float32)}),
            ]
        )
        w = FusionWeights({"v": 1.0})
        assert relevance_multi_dataset(cand, targets, w, AggregationMode.MAX)[0] == pytest.approx(0.9, abs=1e-6)
        assert relevance_multi_dataset(cand, targets, w, AggregationMode.MEAN)[0] == pytest.approx(0.7, abs=1e-6)

    def test_max_equals_union(self, rng):
        """Max aggregation equals fused relevance over the union of target rows."""
        dims = {"a": 8, "b": 5}
        views = {name: unit_rows(rng, 60, d) for name, d in dims.items()}
        weights = FusionWeights({"a": 0.3, "b": 0.7})
        targets = self.build_targets(rng, [6, 11, 4], dims)
        union = {
            name: np.vstack([ds.views[name] for ds in targets.datasets])
            for name in dims
        }
        agg = relevance_multi_dataset(views, targets, weights, AggregationMode.MAX)
        np.testing.assert_allclose(agg, relevance_multi_dataset(views, one_dataset(union), weights), atol=1e-6)

    def test_mean_le_max(self, rng):
        dims = {"a": 8}
        views = {"a": unit_rows(rng, 50, 8)}
        weights = FusionWeights({"a": 1.0})
        targets = self.build_targets(rng, [5, 9, 3], dims)
        mx = relevance_multi_dataset(views, targets, weights, AggregationMode.MAX)
        mn = relevance_multi_dataset(views, targets, weights, AggregationMode.MEAN)
        assert np.all(mn <= mx + 1e-12)

    def test_bounds(self, rng):
        dims = {"a": 8, "b": 4}
        views = {name: unit_rows(rng, 100, d) for name, d in dims.items()}
        targets = self.build_targets(rng, [7, 7], dims)
        for mode in AggregationMode:
            scores = relevance_multi_dataset(
                views, targets, FusionWeights.uniform(dims), mode
            )
            assert np.all(scores >= -1.0) and np.all(scores <= 1.0)

    @pytest.mark.parametrize("mode", list(AggregationMode))
    def test_every_weight_order_scores_the_same_bits(self, rng, mode):
        """Views fuse in name order, whatever order the weights list them in."""
        dims = {"c": 8, "a": 6, "b": 5}
        views = {name: unit_rows(rng, 300, d) for name, d in dims.items()}
        targets = self.build_targets(rng, [7, 9], dims)
        raw = {"c": 0.34, "a": 0.33, "b": 0.33}
        scores = {
            relevance_multi_dataset(views, targets, FusionWeights({name: raw[name] for name in order}), mode).tobytes()
            for order in itertools.permutations(raw)
        }
        assert len(scores) == 1

    def test_empty_target_set(self, rng):
        with pytest.raises(EmptyTargetSet):
            relevance_multi_dataset(
                {"a": unit_rows(rng, 3, 4)},
                TargetSet([]),
                FusionWeights({"a": 1.0}),
                AggregationMode.MAX,
            )


class TestDiversityPenalty:
    def test_self_in_selected_gives_one(self, rng):
        views = {"a": unit_rows(rng, 6, 8), "b": unit_rows(rng, 6, 5)}
        w = FusionWeights.uniform(["a", "b"])
        assert diversity_penalty(3, [3], views, w) == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_candidate_scores_zero(self):
        views = {"a": np.eye(3, dtype=np.float32)}
        w = FusionWeights({"a": 1.0})
        assert diversity_penalty(0, [1, 2], views, w) == pytest.approx(0.0, abs=1e-7)

    def test_matches_brute_force(self, rng):
        """The oracle, a double loop, and the fused kernel agree."""
        views = {f"v{k}": unit_rows(rng, 30, 7) for k in range(2)}
        w = FusionWeights({"v0": 1.0, "v1": 3.0})
        selected = [4, 9, 17, 22]
        for cand in (0, 5, 29):
            expected = sum(
                w.weights[name] * brute_max_sim(views[name][[cand]], views[name][selected])[0]
                for name in views
            )
            assert diversity_penalty(cand, selected, views, w) == pytest.approx(expected, abs=1e-6)
            kernel = w.fuse(lambda name: max_similarity(views[name][[cand]], views[name][selected]))
            assert kernel[0] == pytest.approx(expected, abs=1e-6)

    def test_monotone_in_selected(self, rng):
        """Enlarging the selected set never decreases the penalty."""
        views = {"a": unit_rows(rng, 20, 6)}
        w = FusionWeights({"a": 1.0})
        base = diversity_penalty(0, [1, 2], views, w)
        grown = diversity_penalty(0, [1, 2, 3, 4], views, w)
        assert grown >= base - 1e-12

    def test_empty_selection(self, rng):
        with pytest.raises(EmptySelection):
            diversity_penalty(0, [], {"a": unit_rows(rng, 3, 4)}, FusionWeights({"a": 1.0}))


class TestAggregationMode:
    def test_from_name(self):
        assert AggregationMode.from_name("max") is AggregationMode.MAX
        assert AggregationMode.from_name("MEAN") is AggregationMode.MEAN
        with pytest.raises(ValueError):
            AggregationMode.from_name("median")
