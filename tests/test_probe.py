import numpy as np
import pytest

from corpus_select.errors import DataError, DegenerateSplit, TooFewRows
from corpus_select.probe import (
    ProbeConfig,
    fit_predict,
    probe_matrix,
    pseudo_label,
    softmax_loss_and_grad,
)
from corpus_select.store import _normalize_rows
from conftest import unit_rows
from oracles import fit_loss_history


def clustered_view(rng, n, d, n_clusters, spread=0.05, assignment=None):
    """Well-separated unit-vector clusters; returns (rows, assignment)."""
    centers = unit_rows(rng, n_clusters, d).astype(np.float64)
    if assignment is None:
        assignment = rng.integers(0, n_clusters, size=n)
    rows = centers[assignment] + spread * rng.standard_normal((n, d))
    return _normalize_rows(rows.astype(np.float32)), assignment


class TestPseudoLabel:
    def test_n_equals_clusters_unique_labels(self, rng):
        rows = unit_rows(rng, 12, 8)
        labels = pseudo_label(rows, ProbeConfig(clusters=12, seed=0))
        assert sorted(labels) == list(range(12))

    def test_single_cluster_all_zero(self, rng):
        labels = pseudo_label(unit_rows(rng, 20, 6), ProbeConfig(clusters=1, seed=0))
        assert np.all(labels == 0)

    def test_two_blobs_separate(self, rng):
        view, assignment = clustered_view(rng, 200, 16, 2, spread=0.02)
        labels = pseudo_label(view, ProbeConfig(clusters=2, seed=0))
        # identical partition up to label swap
        agreement = (labels == assignment).mean()
        assert agreement in (0.0, 1.0) or max(agreement, 1 - agreement) == 1.0

    def test_too_few_rows(self, rng):
        with pytest.raises(TooFewRows):
            pseudo_label(unit_rows(rng, 5, 4), ProbeConfig(clusters=10, seed=0))


class TestSoftmaxGradient:
    def test_matches_finite_differences(self, rng):
        """Analytic gradient vs central differences on a 10x5, 3-class instance."""
        x = rng.standard_normal((10, 5))
        y = rng.integers(0, 3, size=10)
        w = 0.1 * rng.standard_normal((5, 3))
        b = 0.1 * rng.standard_normal(3)
        l2 = 1e-3
        _, grad_w, grad_b = softmax_loss_and_grad(w, b, x, y, l2)

        eps = 1e-6
        for arr, grad in ((w, grad_w), (b, grad_b)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                up = softmax_loss_and_grad(w, b, x, y, l2)[0]
                arr[idx] = orig - eps
                down = softmax_loss_and_grad(w, b, x, y, l2)[0]
                arr[idx] = orig
                numeric = (up - down) / (2 * eps)
                denom = max(abs(numeric), abs(grad[idx]), 1e-8)
                assert abs(grad[idx] - numeric) / denom <= 1e-4


class TestFitPredict:
    def test_loss_history_non_increasing(self, rng):
        view, _ = clustered_view(rng, 300, 16, 5)
        labels = pseudo_label(view, ProbeConfig(clusters=5, seed=1))
        history = fit_loss_history(view, labels, ProbeConfig(clusters=5, seed=1))
        diffs = np.diff(np.array(history))
        assert np.all(diffs <= 0.0)

    def test_self_prediction_on_separated_data(self, rng):
        """Predicting a view's own clusters succeeds on separable data."""
        view, _ = clustered_view(rng, 400, 24, 8)
        cfg = ProbeConfig(clusters=8, seed=2)
        labels = pseudo_label(view, cfg)
        report = fit_predict(view, labels, cfg, source_name="x", label_name="x")
        assert report.accuracy >= 0.70
        assert report.source == "x" and report.target == "x"
        assert report.n_train + report.n_heldout == 400

    def test_noise_source_near_chance(self, rng):
        """Labels carry no signal about an independent random view.

        100 clusters keep the chance level (majority-class frequency) near
        1/clusters; with lumpier labels the majority frequency exceeds what
        any per-sample predictor reaches on pure noise.
        """
        view, _ = clustered_view(rng, 2000, 16, 100)
        cfg = ProbeConfig(clusters=100, seed=3)
        labels = pseudo_label(view, cfg)
        noise = unit_rows(rng, 2000, 16)
        report = fit_predict(noise, labels, cfg)
        assert abs(report.accuracy - report.chance) <= 0.03

    def test_noisy_copy_keeps_most_accuracy(self, rng):
        """A lightly perturbed copy predicts at >= 0.9x the clean accuracy."""
        view, _ = clustered_view(rng, 400, 24, 8)
        cfg = ProbeConfig(clusters=8, seed=4)
        labels = pseudo_label(view, cfg)
        clean = fit_predict(view, labels, cfg).accuracy
        noisy = _normalize_rows(view + 0.01 * rng.standard_normal(view.shape).astype(np.float32))
        noisy_acc = fit_predict(noisy, labels, cfg).accuracy
        assert noisy_acc >= 0.9 * clean

    def test_deterministic(self, rng):
        view, _ = clustered_view(rng, 200, 12, 4)
        cfg = ProbeConfig(clusters=4, seed=5)
        labels = pseudo_label(view, cfg)
        a = fit_predict(view, labels, cfg)
        b = fit_predict(view, labels, cfg)
        assert a == b

    def test_degenerate_split(self, rng):
        view = unit_rows(rng, 10, 4)
        with pytest.raises(DegenerateSplit):
            fit_predict(view, np.zeros(10, dtype=np.int64), ProbeConfig(clusters=1, seed=0))

    def test_chance_is_majority_frequency(self, rng):
        view, _ = clustered_view(rng, 100, 8, 2)
        labels = np.array([0] * 70 + [1] * 30)
        report = fit_predict(view, labels, ProbeConfig(clusters=2, seed=0))
        assert report.chance == pytest.approx(0.7)


class TestProbeMatrix:
    def test_three_views_nine_reports(self, rng):
        shared = rng.integers(0, 4, size=200)
        views = {}
        for name in ("a", "b", "c"):
            views[name], _ = clustered_view(rng, 200, 12, 4, assignment=shared)
        reports = probe_matrix(views, ProbeConfig(clusters=4, seed=6))
        assert len(reports) == 9
        pairs = [(r.source, r.target) for r in reports]
        assert pairs == [(s, t) for s in ("a", "b", "c") for t in ("a", "b", "c")]

    def test_duplicate_views_cross_equals_self(self, rng):
        """Identical content means cross-prediction equals self-prediction."""
        view, _ = clustered_view(rng, 300, 16, 5)
        twin = view.copy()
        reports = probe_matrix({"a": view, "b": twin}, ProbeConfig(clusters=5, seed=7))
        by_pair = {(r.source, r.target): r.accuracy for r in reports}
        assert by_pair[("a", "b")] == by_pair[("b", "b")]
        assert by_pair[("b", "a")] == by_pair[("a", "a")]

    def test_independent_views_off_diagonal_near_chance(self, rng):
        views = {}
        for name in ("a", "b"):
            views[name], _ = clustered_view(rng, 1200, 16, 15)
        reports = probe_matrix(views, ProbeConfig(clusters=15, seed=8))
        for r in reports:
            if r.source == r.target:
                assert r.accuracy >= 0.70
            else:
                assert abs(r.accuracy - r.chance) <= 0.05

    def test_self_beats_cross_on_independent_views(self, rng):
        views = {}
        for name in ("a", "b"):
            views[name], _ = clustered_view(rng, 800, 16, 10)
        reports = probe_matrix(views, ProbeConfig(clusters=10, seed=9))
        by_pair = {(r.source, r.target): r.accuracy for r in reports}
        assert by_pair[("a", "a")] > by_pair[("b", "a")]
        assert by_pair[("b", "b")] > by_pair[("a", "b")]

    def test_needs_two_views(self, rng):
        view, _ = clustered_view(rng, 50, 8, 3)
        with pytest.raises(DataError, match="at least 2 views"):
            probe_matrix({"a": view}, ProbeConfig(clusters=3, seed=0))
