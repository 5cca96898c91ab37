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
Each row's image is its own, so `project_view` projects a block of rows
at a time: `cli project` streams a `store.ViewFile`'s blocks through it
into `store._write_view`, and holds neither view whole.

The audit measures how well a projection preserved relative geometry: it
samples random row pairs and reports the Pearson correlation between the
pairwise cosines in the high-dimensional view and in the projected view.
It reads the rows of a block of pairs at a time, by index, so a view
file is never held whole either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from corpus_select.errors import DimensionMismatch, InvalidDims, TooFewRows
from corpus_select.relevance import to_grid
from corpus_select.rng import generator
from corpus_select.store import ViewFile, _check_unit

_PAIR_BYTES = 1 << 24  # bytes of gathered rows per block of audit pairs


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


def project_view(blocks: Iterable[np.ndarray], matrix: np.ndarray) -> Iterator[np.ndarray]:
    """The image of each block of unit float32 rows under `matrix`, re-normalized, block by block.

    The rows must be unit (or zero) as the scorer takes them, which keeps
    the grid product exact against the matrix's columns scaled to norm at
    most 1: a block with any other row raises NonUnitRow naming it
    (`store._check_unit`). Zero rows stay zero (their image is zero and
    normalization leaves zeros alone). The grid matrix is computed once
    per call.
    """
    matrix = np.asarray(matrix, dtype=np.float32)
    col_norm = float(np.sqrt(np.square(matrix, dtype=np.float64).sum(axis=0)).max(initial=0.0))
    scale = math.ldexp(1.0, math.frexp(col_norm)[1])  # power of two above col_norm
    grid_matrix = to_grid(matrix, scale)
    for k, block in enumerate(blocks):
        block = np.asarray(block, dtype=np.float32)
        if matrix.ndim != 2 or block.ndim != 2 or block.shape[1] != matrix.shape[0]:
            raise DimensionMismatch(f"rows of shape {block.shape}, but the projection takes {matrix.shape[0]} dims")
        _check_unit(block, f"block {k} of the rows to project:")
        # exact, in grid units; normalizing makes the units irrelevant
        image = to_grid(block) @ grid_matrix
        norms = np.sqrt(np.einsum("ij,ij->i", image, image))[:, None]
        np.divide(image, norms, out=image, where=norms > 0.0)
        yield image.astype(np.float32)


def audit_cosine_preservation(view_hi, view_lo, pair_count: int, seed: int = 0) -> float:
    """Pearson correlation of pairwise cosines before and after projection.

    The views are unit float32 matrices, checked here once on entry, or
    `store.ViewFile`s, which the caller has checked with a `blocks()` pass;
    a matrix with a row that is not unit (or zero) raises NonUnitRow.
    Samples `pair_count` index pairs (i != j) from a private seeded
    generator and correlates cosine(hi_i, hi_j) against cosine(lo_i, lo_j).
    The rows of a block of pairs are read by index (`view[rows]`, on the
    block's sorted unique rows), about `_PAIR_BYTES` of the wider view per
    block, so memory does not grow with N or D.
    """
    if pair_count <= 0:
        raise ValueError(f"pair_count must be positive, got {pair_count}")
    if view_hi.shape[0] != view_lo.shape[0]:
        raise DimensionMismatch(
            f"views must have equal row counts, got {view_hi.shape[0]} and {view_lo.shape[0]}"
        )
    n = view_hi.shape[0]
    if n < 2:
        raise TooFewRows(f"audit needs at least 2 rows, got {n}")
    for what, view in (("high-dimensional view", view_hi), ("projected view", view_lo)):
        if not isinstance(view, ViewFile):
            _check_unit(np.asarray(view, np.float32), what)

    rng = generator(seed, "audit")
    i = rng.integers(0, n, size=pair_count)
    j = rng.integers(0, n, size=pair_count)
    collide = i == j
    while collide.any():
        j[collide] = rng.integers(0, n, size=int(collide.sum()))
        collide = i == j

    cos = np.empty((2, pair_count), dtype=np.float64)
    step = max(1, _PAIR_BYTES // (8 * max(view_hi.shape[1], view_lo.shape[1])))  # two float32 rows a pair
    for start in range(0, pair_count, step):
        pairs = slice(start, start + step)
        rows, at = np.unique(np.stack([i[pairs], j[pairs]]), return_inverse=True)
        at = at.reshape(2, -1)
        for k, view in enumerate((view_hi, view_lo)):
            mat = view[rows]
            cos[k, pairs] = np.einsum("ij,ij->i", mat[at[0]], mat[at[1]], dtype=np.float64)
    return float(np.corrcoef(cos[0], cos[1])[0, 1])
