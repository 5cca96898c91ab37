"""Gaussian random projection of embedding views, with a cosine audit.

Projection matrices have i.i.d. N(0, 1/output_dim) entries drawn from a
Philox stream keyed by the seed, so a spec reproduces the same matrix
bitwise on any platform. The entry variance preserves expected squared
norms (the standard Johnson-Lindenstrauss construction); projected rows
are re-normalized because downstream kernels assume unit rows.

The product is exact, so projected bytes do not depend on the BLAS
kernel, its blocking or its threads: the unit input rows go onto the
2^-26 grid of the similarity scores (`relevance.to_grid`), the matrix
onto the same grid scaled by the power of two above its largest column
norm, and the float64 GEMM of the two then sums integers below 2^53.

The audit measures how well a projection preserved relative geometry: it
samples random row pairs and reports the Pearson correlation between the
pairwise cosines in the high-dimensional view and in the projected view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from corpus_select.errors import DimensionMismatch, InvalidDims, TooFewRows
from corpus_select.relevance import to_grid
from corpus_select.rng import generator
from corpus_select.store import EmbeddingView, _normalize_rows

_ROW_BLOCK = 4096
_PAIR_BLOCK = 16384


@dataclass(frozen=True)
class ProjectionSpec:
    """Dimensions and seed of a projection; same spec, same matrix."""

    input_dim: int
    output_dim: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.input_dim <= 0 or self.output_dim <= 0:
            raise InvalidDims(
                f"dimensions must be positive, got {self.input_dim} -> {self.output_dim}"
            )
        if self.output_dim > self.input_dim:
            raise InvalidDims(
                f"output_dim {self.output_dim} exceeds input_dim {self.input_dim}"
            )


def make_projection(spec: ProjectionSpec) -> np.ndarray:
    """Generate the (input_dim x output_dim) float32 projection matrix."""
    rng = generator(spec.seed, "projection")
    matrix = rng.standard_normal((spec.input_dim, spec.output_dim), dtype=np.float32)
    matrix *= np.float32(1.0 / math.sqrt(spec.output_dim))
    return matrix


def project_view(view: EmbeddingView, matrix: np.ndarray) -> EmbeddingView:
    """Project rows through `matrix` and re-normalize them; the name is kept.

    Rows of a view not marked normalized are normalized first, which
    leaves the direction of each image unchanged. Zero input rows stay
    zero (their image is zero and normalization leaves zeros alone).
    """
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2 or view.dims != matrix.shape[0]:
        raise DimensionMismatch(
            f"view {view.name!r} has {view.dims} dims but the projection "
            f"expects {matrix.shape[0]}"
        )
    out_dim = matrix.shape[1]
    col_norm = float(np.sqrt(np.square(matrix, dtype=np.float64).sum(axis=0)).max(initial=0.0))
    scale = math.ldexp(1.0, math.frexp(col_norm)[1])  # power of two above col_norm
    grid_matrix = to_grid(matrix, scale)
    out = np.empty((view.row_count, out_dim), dtype=np.float32)
    for lo in range(0, view.row_count, _ROW_BLOCK):
        block = view.rows[lo : lo + _ROW_BLOCK]
        if not view.normalized:
            block = _normalize_rows(block)
        # exact, in grid units; normalizing makes the units irrelevant
        image = to_grid(block) @ grid_matrix
        norms = np.sqrt(np.einsum("ij,ij->i", image, image))[:, None]
        np.divide(image, norms, out=image, where=norms > 0.0)
        out[lo : lo + _ROW_BLOCK] = image
    return EmbeddingView(view.name, out_dim, out, normalized=True)


def _unit_rows(view: EmbeddingView | np.ndarray) -> np.ndarray:
    if isinstance(view, EmbeddingView):
        if view.normalized:
            return view.rows
        return _normalize_rows(view.rows)
    return _normalize_rows(np.asarray(view, dtype=np.float32))


def audit_cosine_preservation(
    view_hi: EmbeddingView | np.ndarray,
    view_lo: EmbeddingView | np.ndarray,
    pair_count: int,
    seed: int = 0,
) -> float:
    """Pearson correlation of pairwise cosines before and after projection.

    Samples `pair_count` index pairs (i != j) from a private seeded
    generator and correlates cosine(hi_i, hi_j) against cosine(lo_i, lo_j).
    """
    if pair_count <= 0:
        raise ValueError(f"pair_count must be positive, got {pair_count}")
    hi = _unit_rows(view_hi)
    lo = _unit_rows(view_lo)
    if hi.shape[0] != lo.shape[0]:
        raise DimensionMismatch(
            f"views must have equal row counts, got {hi.shape[0]} and {lo.shape[0]}"
        )
    n = hi.shape[0]
    if n < 2:
        raise TooFewRows(f"audit needs at least 2 rows, got {n}")

    rng = generator(seed, "audit")
    i = rng.integers(0, n, size=pair_count)
    j = rng.integers(0, n, size=pair_count)
    collide = i == j
    while collide.any():
        j[collide] = rng.integers(0, n, size=int(collide.sum()))
        collide = i == j

    cos_hi = np.empty(pair_count, dtype=np.float64)
    cos_lo = np.empty(pair_count, dtype=np.float64)
    for lo_idx in range(0, pair_count, _PAIR_BLOCK):
        sl = slice(lo_idx, min(lo_idx + _PAIR_BLOCK, pair_count))
        cos_hi[sl] = np.einsum(
            "ij,ij->i", hi[i[sl]], hi[j[sl]], dtype=np.float64
        )
        cos_lo[sl] = np.einsum(
            "ij,ij->i", lo[i[sl]], lo[j[sl]], dtype=np.float64
        )
    return float(np.corrcoef(cos_hi, cos_lo)[0, 1])
