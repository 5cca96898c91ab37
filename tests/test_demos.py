"""Smoke test: the quick demos run to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 06 takes several seconds and is left out
QUICK_DEMOS = [
    "01_corpus_and_stats.py",
    "02_projection_audit.py",
    "03_target_compaction.py",
    "04_mmr_selection.py",
    "05_baselines.py",
]

# lines a demo must print: the numbers its narrative states
EXPECTED_LINES = {
    "02_projection_audit.py": [
        "structured: cosine spread 0.1974 -> audit correlation 0.9569",
        "     noise: cosine spread 0.0181 -> audit correlation 0.2771",
    ],
}


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    """Each demo runs to completion, prints its stated numbers and leaves nothing in the temp directory."""
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
    lines = proc.stdout.splitlines()
    assert all(line in lines for line in EXPECTED_LINES.get(demo, [])), proc.stdout
    assert list(tmp_path.iterdir()) == []
