import numpy as np
import pytest

from corpus_select.store import _normalize_rows


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Random unit-norm float32 rows."""
    return _normalize_rows(rng.standard_normal((n, d)).astype(np.float32))


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
