import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corpus_select
from corpus_select.store import _HEADER, EmbeddingView, ViewFile, _normalize_rows


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Random unit-norm float32 rows."""
    return _normalize_rows(rng.standard_normal((n, d)).astype(np.float32))


def load_raw_view(path) -> EmbeddingView:
    """An EMB1 file's view as stored: its header flag and its rows as written, not normalized."""
    with ViewFile(path) as view:
        name, normalized, (n, d) = view.name, view.normalized, view.shape
    rows = np.fromfile(path, dtype="<f4", offset=_HEADER.size).reshape(n, d)
    return EmbeddingView(name, d, rows, normalized=normalized)


_PEAK_CHILD = (
    "import sys\n"
    "from corpus_select.cli import run\n"
    "code = run(sys.argv[1:])\n"
    "with open('/proc/self/status') as fh:\n"
    "    print([line.split()[1] for line in fh if line.startswith('VmHWM:')][0])\n"
    "sys.exit(code)\n"
)


def cli_own_peak(argv: list[str]) -> int:
    """Bytes of peak RSS of a child process that runs the CLI with `argv` and exits 0.

    The child reads its own `VmHWM`; `ru_maxrss` would carry the peak of
    the process that started it. Skips the test where /proc/self/status
    has no VmHWM.
    """
    try:
        with open("/proc/self/status") as fh:
            if not any(line.startswith("VmHWM:") for line in fh):
                pytest.skip("/proc/self/status has no VmHWM")
    except OSError:
        pytest.skip("/proc/self/status cannot be read")
    src = Path(corpus_select.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, *argv], env=env, capture_output=True, text=True, check=True
    )
    return int(child.stdout.split()[-1]) * 1024


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)
