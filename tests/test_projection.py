import numpy as np
import pytest

from corpus_select import projection
from corpus_select.errors import DimensionMismatch, InvalidDims, NonUnitRow, TooFewRows
from corpus_select.projection import (
    ProjectionSpec,
    audit_cosine_preservation,
    make_projection,
    project_view,
)
from corpus_select.store import EmbeddingView, ViewFile, _normalize_rows, save_view
from conftest import unit_rows


class TestMakeProjection:
    def test_deterministic_bitwise(self):
        spec = ProjectionSpec(3072, 256, seed=7)
        a = make_projection(spec)
        b = make_projection(spec)
        assert a.shape == (3072, 256)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_matrix(self):
        a = make_projection(ProjectionSpec(64, 16, seed=1))
        b = make_projection(ProjectionSpec(64, 16, seed=2))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("in_dim,out_dim", [(256, 512), (0, 16), (16, 0)])
    def test_invalid_dims(self, in_dim, out_dim):
        with pytest.raises(InvalidDims):
            ProjectionSpec(in_dim, out_dim, seed=0)

    def test_entry_moments(self):
        """Entries are N(0, 1/256): mean within 3 sigma of 0, variance within 10%."""
        matrix = make_projection(ProjectionSpec(3072, 256, seed=3)).astype(np.float64)
        count = matrix.size
        target_var = 1.0 / 256.0
        mean_sigma = np.sqrt(target_var / count)
        assert abs(matrix.mean()) <= 3.0 * mean_sigma
        assert abs(matrix.var() - target_var) <= 0.1 * target_var


def project(rows, matrix):
    """`project_view` of one block: the whole matrix."""
    (out,) = project_view([rows], matrix)
    return out


class TestProjectView:
    def test_zero_row_stays_zero(self, rng):
        rows = unit_rows(rng, 4, 32)
        rows[2] = 0.0
        out = project(rows, make_projection(ProjectionSpec(32, 8, seed=0)))
        np.testing.assert_array_equal(out[2], np.zeros(8, dtype=np.float32))
        assert out.shape == (4, 8) and out.dtype == np.float32

    def test_self_cosine_one(self, rng):
        out = project(unit_rows(rng, 10, 32), make_projection(ProjectionSpec(32, 8, seed=0)))
        dots = np.einsum("ij,ij->i", out, out, dtype=np.float64)
        np.testing.assert_allclose(dots, 1.0, atol=1e-5)

    def test_identical_rows_identical_images(self, rng):
        row = unit_rows(rng, 1, 32)[0]
        out = project(np.stack([row, row]), make_projection(ProjectionSpec(32, 8, seed=0)))
        np.testing.assert_array_equal(out[0], out[1])

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            project(unit_rows(rng, 3, 16), make_projection(ProjectionSpec(32, 8, seed=0)))

    @pytest.mark.parametrize("bad", [2.0**20, np.nan], ids=["far-from-unit", "nan"])
    def test_rows_beyond_the_exact_range_raise(self, rng, bad):
        """A row that is not unit (or zero) is refused before the grid product."""
        rows = unit_rows(rng, 3, 32)
        rows[1] *= np.float32(bad)
        with pytest.raises(NonUnitRow):
            project(rows, make_projection(ProjectionSpec(32, 8, seed=0)))

    def test_blocks_project_to_the_bytes_of_one_block(self, rng):
        """Each row's image is its own: any split into blocks gives the same bytes."""
        rows = unit_rows(rng, 50, 32)
        matrix = make_projection(ProjectionSpec(32, 8, seed=0))
        blocks = list(project_view([rows[:7], rows[7:7], rows[7:]], matrix))
        assert np.concatenate(blocks).tobytes() == project(rows, matrix).tobytes()

    def test_linearity_before_renormalization(self, rng):
        """project(a*x + b*y) = a*project(x) + b*project(y) within 1e-4 relative."""
        matrix = make_projection(ProjectionSpec(128, 32, seed=5))
        x = rng.standard_normal(128).astype(np.float32)
        y = rng.standard_normal(128).astype(np.float32)
        a, b = 0.7, -1.3
        left = (a * x + b * y) @ matrix
        right = a * (x @ matrix) + b * (y @ matrix)
        np.testing.assert_allclose(left, right, rtol=1e-4, atol=1e-6)

    def test_jl_cosine_error(self, rng):
        """1000 random unit pairs, 3072 -> 256: mean |cosine error| <= 0.08."""
        n = 2000
        hi = unit_rows(rng, n, 3072)
        lo = project(hi, make_projection(ProjectionSpec(3072, 256, seed=9)))
        i = rng.integers(0, n, size=1000)
        j = (i + 1 + rng.integers(0, n - 1, size=1000)) % n
        cos_hi = np.einsum("ij,ij->i", hi[i], hi[j], dtype=np.float64)
        cos_lo = np.einsum("ij,ij->i", lo[i], lo[j], dtype=np.float64)
        assert np.abs(cos_hi - cos_lo).mean() <= 0.08


class TestAudit:
    def test_identity_correlation_one(self, rng):
        rows = unit_rows(rng, 200, 24)
        corr = audit_cosine_preservation(rows, rows, pair_count=5000, seed=1)
        assert abs(corr - 1.0) <= 1e-9

    def test_unrelated_views_uncorrelated(self, rng):
        a, b = unit_rows(rng, 3000, 24), unit_rows(rng, 3000, 24)
        corr = audit_cosine_preservation(a, b, pair_count=100_000, seed=2)
        assert abs(corr) <= 0.05

    def test_structured_data_preserves_geometry(self, rng):
        """Clustered high-dim data keeps pairwise-cosine correlation >= 0.9.

        Structured embeddings have a wide cosine spread, so the projection
        noise (std ~ 1/sqrt(output_dim)) is small against it; this is the
        regime where random projection audits report 0.9+ correlations.
        The per-vector noise norm is held near 0.5 so cluster geometry
        survives in high dimension.
        """
        d_hi = 1024
        centers = unit_rows(rng, 12, d_hi).astype(np.float64)
        assign = rng.integers(0, 12, size=3000)
        spread = 0.5 / np.sqrt(d_hi)
        hi = _normalize_rows((centers[assign] + spread * rng.standard_normal((3000, d_hi))).astype(np.float32))
        lo = project(hi, make_projection(ProjectionSpec(d_hi, 256, seed=4)))
        corr = audit_cosine_preservation(hi, lo, pair_count=50_000, seed=3)
        assert corr >= 0.9

    def test_deterministic_in_seed(self, rng):
        hi = unit_rows(rng, 500, 64)
        lo = project(hi, make_projection(ProjectionSpec(64, 16, seed=0)))
        a = audit_cosine_preservation(hi, lo, pair_count=2000, seed=11)
        b = audit_cosine_preservation(hi, lo, pair_count=2000, seed=11)
        assert a == b

    def test_view_files_audit_as_their_matrices(self, tmp_path, rng, monkeypatch):
        """Two `ViewFile`s, one stored un-normalized, give the bits of their unit matrices,
        with pair blocks small enough that every block gathers a few rows by offset."""
        hi = 3.0 * rng.standard_normal((300, 24)).astype(np.float32)
        lo = unit_rows(rng, 300, 8)
        save_view(EmbeddingView("hi", 24, hi), tmp_path / "hi.emb")
        save_view(EmbeddingView("lo", 8, lo, normalized=True), tmp_path / "lo.emb")
        expected = audit_cosine_preservation(_normalize_rows(hi), lo, pair_count=1000, seed=5)
        monkeypatch.setattr(projection, "_PAIR_BYTES", 8 * 24 * 7)
        with ViewFile(tmp_path / "hi.emb") as vhi, ViewFile(tmp_path / "lo.emb") as vlo:
            assert audit_cosine_preservation(vhi, vlo, pair_count=1000, seed=5) == expected

    def test_refuses_a_matrix_that_is_not_unit(self, rng):
        """A raw Gaussian matrix is refused on entry, not correlated as dot products."""
        raw = rng.standard_normal((200, 24)).astype(np.float32)
        for hi, lo in ((raw, unit_rows(rng, 200, 24)), (unit_rows(rng, 200, 24), raw)):
            with pytest.raises(NonUnitRow, match="view row 0 has L2 norm"):
                audit_cosine_preservation(hi, lo, pair_count=100, seed=0)

    def test_too_few_rows(self, rng):
        rows = unit_rows(rng, 1, 8)
        with pytest.raises(TooFewRows):
            audit_cosine_preservation(rows, rows, pair_count=10, seed=0)

    def test_row_count_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            audit_cosine_preservation(unit_rows(rng, 4, 8), unit_rows(rng, 5, 8), pair_count=10, seed=0)
