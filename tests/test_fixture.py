import hashlib
from pathlib import Path

import numpy as np
import pytest

import corpus_select.fixture as fixture
from corpus_select.errors import NonFiniteEntry
from corpus_select.fixture import FixtureSpec, make_fixture
from conftest import cli_own_peak
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


# sha256 of every file `make_fixture` writes, taken when the target views were
# still built in memory and saved as a TargetSet
_FIXTURE_DIGESTS = {
    "small": (
        FixtureSpec(utterances=300, view_dims={"a": 16, "b": 40}, clusters=4, target_datasets=2, target_rows=50, seed=11),
        {
            "corpus/a.emb": "42317d946db124e43164ce6560e03985f9cde026526789b2e7c4afb20e245cbe",
            "corpus/b.emb": "cea832b4080f1b2946c44a23e3597a74fbdcf53733a712d932d17c9739d4a250",
            "corpus/manifest.jsonl": "9b710750e8cd40e5badfbc1a42e70f267ae412f97d7381d6c49f987c0ffbdbb8",
            "targets/target-0/a.emb": "e0e87351b6d27784e61aff6495f19a82c9edf99ffd417f07449fdda1175ce2c5",
            "targets/target-0/b.emb": "fc15b63180ac83889f06a885bb67c9928728e91e49c2162a8a4c6ee99d20a5b8",
            "targets/target-0/manifest.jsonl": "0f95054fb8a3440f4c89b2fa1613b7ebf172d891460f0b59c6027793a6938856",
            "targets/target-1/a.emb": "9526bb40fc445014b74470b910ca21b3742c0d45e9d33a219b9b174ab9758a5f",
            "targets/target-1/b.emb": "44b19d94981b9b8c5ec1e62b0cb3cc75425b82df114ff781e7cb3c02d297270e",
            "targets/target-1/manifest.jsonl": "5a1a9d8d68c5eb32846f881720181d43708efeaf8b1b8b3251a5ae51389b6e13",
        },
    ),
    "blocks": (  # each view in two blocks: 1,747 rows, then 253 (corpus) or 153 (target)
        FixtureSpec(
            utterances=2000, view_dims={"w": 600}, clusters=3, cluster_spread=1.5, target_datasets=1, target_rows=1900, seed=4
        ),
        {
            "corpus/manifest.jsonl": "6f729ce7a10045675c2db17b845f730c84080f622ea2fedd8c9769de29ea49b8",
            "corpus/w.emb": "4d8e0836e2ed2853292de991d6da42c382d3cea391c4b0c527df180dca855a97",
            "targets/target-0/manifest.jsonl": "a8ec0faa5a038e0cb516664aabea50036ef4ce6a449653c4514fdc08964723ab",
            "targets/target-0/w.emb": "51801d771e2c5b2cb5e60b733c3b18c73528326995b67dde04eb7b2b37203e00",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(_FIXTURE_DIGESTS))
def test_written_bytes_are_pinned(tmp_path, name):
    spec, digests = _FIXTURE_DIGESTS[name]
    make_fixture(tmp_path / "corpus", tmp_path / "targets", spec)
    files = written(tmp_path)
    assert {path: hashlib.sha256(data).hexdigest() for path, data in files.items()} == digests


def test_non_finite_rows_are_refused_and_leave_no_view(tmp_path):
    """`_write_view` refuses the first non-finite draw, naming the file, the row and the column."""
    for k, spread in enumerate([np.inf, np.nan]):
        corpus = tmp_path / str(k) / "corpus"
        spec = FixtureSpec(utterances=30, view_dims={"a": 8}, cluster_spread=spread)
        with pytest.raises(NonFiniteEntry) as err, np.errstate(invalid="ignore"):
            make_fixture(corpus, tmp_path / str(k) / "targets", spec)
        assert (err.value.row, err.value.col) == (0, 0)
        assert str(err.value) == f"{corpus / 'a.emb'}: non-finite value at row 0, col 0 in view 'a'"
        assert sorted(p.name for p in corpus.iterdir()) == ["manifest.jsonl"]


def test_make_fixture_peak_stays_below_the_view_it_writes(tmp_path):
    """A 100,000 x 512 fixture is made in less memory than its 205 MB view file."""
    argv = ["stats", "--make-fixture", "--out", str(tmp_path / "corpus"), "--targets-out", str(tmp_path / "targets")]
    peak = cli_own_peak([*argv, "--utterances", "100000", "--views", "v:512"])
    view = (tmp_path / "corpus" / "v.emb").stat().st_size
    assert view == 21 + 100_000 * 512 * 4
    assert peak < view
