"""Smoke test: the quick demos run to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 02 and 06 take several seconds each and are left out
QUICK_DEMOS = [
    "01_corpus_and_stats.py",
    "03_target_compaction.py",
    "04_mmr_selection.py",
    "05_baselines.py",
]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    """Each demo runs to completion and leaves nothing in the temp directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
