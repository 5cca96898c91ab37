import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corpus_select.fixture as fixture
from corpus_select.errors import NonFiniteEntry
from corpus_select.fixture import FixtureSpec, make_fixture
from oracles import clustered_rows_one_draw


def written(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    """Views drawn in blocks of 37 and 98 rows, plus a remainder, are the files of one draw per view."""
    spec = FixtureSpec(
        utterances=500, view_dims={"a": 64, "b": 24}, clusters=5, target_datasets=2, target_rows=90, seed=3
    )
    monkeypatch.setattr(fixture, "_BLOCK_ENTRIES", 64 * 37)
    blocks = fixture._clustered_blocks(np.eye(2, 64), np.zeros(500, int), 0.5, np.random.default_rng(0))
    assert [len(block) for block in blocks] == [37] * 13 + [19]
    make_fixture(tmp_path / "blocks" / "corpus", tmp_path / "blocks" / "targets", spec)

    monkeypatch.setattr(fixture, "_clustered_blocks", lambda *args: iter([clustered_rows_one_draw(*args)]))
    make_fixture(tmp_path / "one" / "corpus", tmp_path / "one" / "targets", spec)

    blocks, one = written(tmp_path / "blocks"), written(tmp_path / "one")
    assert len(one) == 3 + 2 * 3  # the corpus manifest and views, each target's manifest and views
    assert sorted(blocks) == sorted(one)
    assert [name for name in one if blocks[name] != one[name]] == []


def test_non_finite_rows_are_refused_and_leave_no_view(tmp_path, monkeypatch):
    monkeypatch.setattr(fixture, "_BLOCK_ENTRIES", 8 * 10)
    with pytest.raises(NonFiniteEntry) as err:
        list(fixture._clustered_blocks(np.eye(1, 8), np.zeros(30, int), np.inf, np.random.default_rng(0)))
    assert (err.value.row, err.value.col) == (0, 0)
    spec = FixtureSpec(utterances=30, view_dims={"a": 8}, cluster_spread=np.nan)
    with pytest.raises(NonFiniteEntry):
        make_fixture(tmp_path / "corpus", tmp_path / "targets", spec)
    assert sorted(p.name for p in (tmp_path / "corpus").iterdir()) == ["manifest.jsonl"]


_PEAK_CHILD = (
    "import sys\n"
    "from corpus_select.cli import run\n"
    "code = run(sys.argv[1:])\n"
    "with open('/proc/self/status') as fh:\n"
    "    print([line.split()[1] for line in fh if line.startswith('VmHWM:')][0])\n"
    "sys.exit(code)\n"
)


def test_make_fixture_peak_stays_below_the_view_it_writes(tmp_path):
    """A 100,000 x 512 fixture is made in less memory than its 205 MB view file.

    The child reads its own `VmHWM`; `ru_maxrss` would carry the peak of
    the process that started it.
    """
    try:
        with open("/proc/self/status") as fh:
            if not any(line.startswith("VmHWM:") for line in fh):
                pytest.skip("/proc/self/status has no VmHWM")
    except OSError:
        pytest.skip("/proc/self/status cannot be read")
    src = Path(fixture.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    argv = ["stats", "--make-fixture", "--out", str(tmp_path / "corpus"), "--targets-out", str(tmp_path / "targets")]
    argv += ["--utterances", "100000", "--views", "v:512"]
    child = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, *argv], env=env, capture_output=True, text=True, check=True
    )
    peak = int(child.stdout.split()[-1]) * 1024
    view = (tmp_path / "corpus" / "v.emb").stat().st_size
    assert view == 21 + 100_000 * 512 * 4
    assert peak < view
