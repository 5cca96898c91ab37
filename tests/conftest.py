from pathlib import Path

import numpy as np
import pytest

from corpus_select.store import _HEADER, EmbeddingView, _normalize_rows, view_header


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Random unit-norm float32 rows."""
    return _normalize_rows(rng.standard_normal((n, d)).astype(np.float32))


def load_raw_view(path) -> EmbeddingView:
    """An EMB1 file's view as stored: its header flag and its rows as written, not normalized."""
    path = Path(path)
    normalized, n, d = view_header(path)
    rows = np.fromfile(path, dtype="<f4", offset=_HEADER.size).reshape(n, d)
    return EmbeddingView(path.stem, d, rows, normalized=normalized)


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
