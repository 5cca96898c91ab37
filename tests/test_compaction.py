import numpy as np
import pytest

from corpus_select.compaction import Clustering, KMeansConfig, _plusplus_init, compact_targets, kmeans
from corpus_select.errors import DegenerateInput
from corpus_select.rng import generator
from corpus_select.store import TargetDataset, TargetSet
from conftest import unit_rows
from oracles import plusplus_seeds_elementwise


def assert_valid_clustering(rows, clustering: Clustering):
    """Structural invariants: no empty clusters, nearest-centroid assignments."""
    k = clustering.k
    counts = np.bincount(clustering.assignments, minlength=k)
    assert counts.min() >= 1
    x = np.asarray(rows, dtype=np.float64)
    d2 = ((x[:, None, :] - clustering.centroids[None, :, :]) ** 2).sum(axis=2)
    assigned = d2[np.arange(len(x)), clustering.assignments]
    assert np.all(assigned <= d2.min(axis=1) + 1e-9)


class TestKMeans:
    def test_k_equals_n_exact_cover(self, rng):
        rows = rng.standard_normal((8, 3))
        clustering = kmeans(rows, KMeansConfig(k=8, seed=0))
        assert clustering.inertia <= 1e-12
        assert sorted(clustering.assignments) == list(range(8))
        assert_valid_clustering(rows, clustering)

    def test_k_one_centroid_is_mean(self, rng):
        rows = rng.standard_normal((40, 5))
        clustering = kmeans(rows, KMeansConfig(k=1, seed=0))
        np.testing.assert_allclose(clustering.centroids[0], rows.mean(axis=0), atol=1e-6)
        assert np.all(clustering.assignments == 0)

    def test_two_blob_recovery(self, rng):
        """Blobs around (+-5, 0, ...) with sigma=0.1 are recovered within 0.05."""
        d = 6
        a = rng.normal(0.0, 0.1, size=(100, d))
        a[:, 0] += 5.0
        b = rng.normal(0.0, 0.1, size=(100, d))
        b[:, 0] -= 5.0
        rows = np.vstack([a, b])
        clustering = kmeans(rows, KMeansConfig(k=2, seed=1))
        means = np.stack([a.mean(axis=0), b.mean(axis=0)])
        # match recovered centroids to blob means by first coordinate
        order = np.argsort(-clustering.centroids[:, 0])
        np.testing.assert_allclose(clustering.centroids[order], means, atol=0.05)
        assert_valid_clustering(rows, clustering)

    def test_inertia_non_increasing(self, rng):
        rows = rng.standard_normal((400, 12))
        clustering = kmeans(rows, KMeansConfig(k=10, seed=2))
        history = np.array(clustering.inertia_history)
        assert np.all(np.diff(history) <= 1e-9)
        assert clustering.iterations >= 1

    def test_deterministic_in_seed(self, rng):
        rows = rng.standard_normal((200, 8))
        a = kmeans(rows, KMeansConfig(k=7, seed=42))
        b = kmeans(rows, KMeansConfig(k=7, seed=42))
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        c = kmeans(rows, KMeansConfig(k=7, seed=43))
        assert not np.array_equal(a.assignments, c.assignments)

    def test_identical_rows_degenerate(self):
        rows = np.ones((10, 4))
        with pytest.warns(DegenerateInput):
            clustering = kmeans(rows, KMeansConfig(k=3, seed=0))
        assert clustering.k == 1
        assert clustering.inertia <= 1e-12

    def test_duplicate_heavy_input_keeps_k_contract(self):
        """Empty-cluster repair still returns k nonempty clusters."""
        rows = np.vstack([np.zeros((50, 3)), np.ones((50, 3)), np.full((2, 3), 5.0)])
        clustering = kmeans(rows, KMeansConfig(k=4, seed=3))
        counts = np.bincount(clustering.assignments, minlength=4)
        assert counts.min() >= 1
        assert_valid_clustering(rows, clustering)

    def test_k_clamped_to_row_count(self, rng):
        rows = rng.standard_normal((5, 3))
        clustering = kmeans(rows, KMeansConfig(k=10, seed=0))
        assert clustering.k == 5

    def test_seeding_matches_the_elementwise_oracle(self, rng):
        """The product-form seeding draws the seeds of the elementwise one.

        The duplicate-heavy, k = n and identical-row cases run out of
        positive weight before k seeds, so they also take the uniform
        `total == 0` draw; a seed row is drawn again only then.
        """
        blobs = np.vstack([rng.normal(0.0, 0.1, (100, 6)) for _ in range(3)])
        blobs[:100, 0] += 5.0
        blobs[100:200, 0] -= 5.0
        cases = {
            "pipeline shape": (unit_rows(rng, 1000, 512), 100, False),
            "gaussian": (rng.standard_normal((600, 16)), 12, False),
            "duplicate-heavy": (np.repeat(unit_rows(rng, 20, 64), 30, axis=0), 30, True),
            "duplicate-heavy gaussian": (np.repeat(3.0 * rng.standard_normal((15, 100)), 10, axis=0), 40, True),
            "separated blobs": (blobs, 6, False),
            "k = n": (np.repeat(rng.standard_normal((7, 33)), 3, axis=0), 21, True),
            "identical rows": (np.full((10, 4), 0.3), 3, True),
        }
        for name, (rows, k, runs_out) in cases.items():
            x = np.asarray(rows, dtype=np.float64)
            x2 = np.einsum("ij,ij->i", x, x)
            for seed in range(3):
                seeds = _plusplus_init(x, x2, k, generator(seed, "kmeans"))
                expected = plusplus_seeds_elementwise(x, k, generator(seed, "kmeans"))
                np.testing.assert_array_equal(seeds, expected, err_msg=f"{name}, seed {seed}")
                distinct = np.unique(seeds, axis=0).shape[0]
                assert (distinct < k) == runs_out, f"{name}, seed {seed}"
                for j in range(1, k):
                    if (seeds[:j] == seeds[j]).all(axis=1).any():
                        covered = (x[:, None, :] == seeds[None, :j, :]).all(axis=2).any(axis=1)
                        assert covered.all(), f"{name}, seed {seed}: seed {j} drawn twice"


class TestCompactTargets:
    def build(self, rng, rows_per_dataset, dims=(16, 12)):
        datasets = []
        for i, n in enumerate(rows_per_dataset):
            views = {
                f"view{j}": unit_rows(rng, n, d) for j, d in enumerate(dims)
            }
            datasets.append(TargetDataset(f"ds{i}", views))
        return TargetSet(datasets)

    def test_small_dataset_passthrough(self, rng):
        targets = self.build(rng, [150])
        out = compact_targets(targets, KMeansConfig(k=200, seed=0))
        for name, mat in targets.datasets[0].views.items():
            np.testing.assert_array_equal(out.datasets[0].views[name], mat)

    def test_large_dataset_compacts_to_k(self, rng):
        targets = self.build(rng, [1000])
        out = compact_targets(targets, KMeansConfig(k=50, seed=0))
        for mat in out.datasets[0].views.values():
            assert mat.shape[0] == 50

    def test_identical_rows_single_centroid(self, rng):
        row = unit_rows(rng, 1, 8)[0]
        targets = TargetSet([TargetDataset("d", {"v": np.stack([row, row, row])})])
        out = compact_targets(targets, KMeansConfig(k=1, seed=0))
        np.testing.assert_allclose(out.datasets[0].views["v"][0], row, atol=1e-6)

    def test_never_increases_rows_and_unit_centroids(self, rng):
        targets = self.build(rng, [30, 400])
        out = compact_targets(targets, KMeansConfig(k=60, seed=5))
        for before, after in zip(targets.datasets, out.datasets):
            for name in before.views:
                assert after.views[name].shape[0] <= before.views[name].shape[0]
                norms = np.linalg.norm(after.views[name].astype(np.float64), axis=1)
                np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    def test_report_rows(self, rng):
        targets = self.build(rng, [30, 400])
        report = []
        compact_targets(targets, KMeansConfig(k=60, seed=5), report=report)
        assert len(report) == 4  # 2 datasets x 2 views
        by_key = {(r["dataset"], r["view"]): r for r in report}
        assert by_key[("ds0", "view0")]["rows_after"] == 30
        assert by_key[("ds1", "view0")]["rows_after"] == 60
        assert by_key[("ds1", "view0")]["iterations"] >= 1
