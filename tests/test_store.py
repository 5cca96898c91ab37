import hashlib
import json
import re
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_select.errors import (
    BadMagic,
    DataError,
    DimensionMismatch,
    DuplicateId,
    MalformedLine,
    NonFiniteEntry,
    NonPositiveDuration,
    NonUnitRow,
    ZeroRowWarning,
)
from corpus_select.store import (
    CorpusManifest,
    EmbeddingView,
    Manifest,
    TargetDataset,
    load_manifest,
    load_view,
    recorded_files,
    save_manifest,
    save_view,
    _UNIT_SNAP,
    _normalize_in_place,
    _normalize_rows,
)
import corpus_select.store as store
from corpus_select.errors import EmptyTargets
from conftest import load_raw_view
from oracles import manifest_by_lines, normalize_rows_gather

HEADER = struct.Struct("<4sIBQI")


def write_raw(path, magic=b"EMB1", version=1, flag=0, n=3, d=2, payload=None):
    if payload is None:
        payload = np.arange(n * d, dtype="<f4").tobytes()
    path.write_bytes(HEADER.pack(magic, version, flag, n, d) + payload)


class TestViewFile:
    def test_header_arithmetic(self, tmp_path):
        """Header N=3, D=2 plus 24 payload bytes loads as a 3x2 view."""
        path = tmp_path / "v.emb"
        write_raw(path, n=3, d=2)
        view = load_raw_view(path)
        assert view.row_count == 3 and view.dims == 2
        assert view.rows.shape == (3, 2)

    def test_short_payload_rejected(self, tmp_path):
        """20 payload bytes against a declared 3x2 is a DimensionMismatch."""
        path = tmp_path / "v.emb"
        write_raw(path, n=3, d=2, payload=b"\x00" * 20)
        with pytest.raises(DimensionMismatch):
            load_view(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "v.emb"
        write_raw(path, n=3, d=2, payload=b"\x00" * 25)
        with pytest.raises(DimensionMismatch):
            load_view(path)

    def test_nan_reported_with_position(self, tmp_path):
        path = tmp_path / "v.emb"
        rows = np.ones((3, 2), dtype="<f4")
        rows[1, 0] = np.nan
        write_raw(path, n=3, d=2, payload=rows.tobytes())
        with pytest.raises(NonFiniteEntry) as err:
            load_view(path)
        assert err.value.row == 1 and err.value.col == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.emb"
        write_raw(path, magic=b"NOPE")
        with pytest.raises(BadMagic):
            load_view(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.emb"
        write_raw(path, version=2)
        with pytest.raises(BadMagic):
            load_view(path)

    def test_roundtrip_bytes_identical(self, tmp_path, rng):
        view = EmbeddingView("x", 5, rng.standard_normal((7, 5)).astype(np.float32))
        a, b = tmp_path / "a.emb", tmp_path / "b.emb"
        save_view(view, a)
        loaded = load_raw_view(a)
        save_view(loaded, b)
        assert a.read_bytes() == b.read_bytes()
        np.testing.assert_array_equal(loaded.rows, view.rows)

    def test_blocks_write_the_bytes_of_one_view(self, tmp_path, rng):
        rows = rng.standard_normal((10, 3)).astype(np.float32)
        save_view(EmbeddingView("x", 3, rows), tmp_path / "one.emb")
        store._write_view(tmp_path / "blocks.emb", False, 10, 3, [rows[:4], rows[4:4], rows[4:]])
        assert (tmp_path / "blocks.emb").read_bytes() == (tmp_path / "one.emb").read_bytes()

    @pytest.mark.parametrize(
        "shapes, message",
        [
            ([(4, 3), (5, 3)], "declares 10 rows but the blocks hold 9"),
            ([(4, 3), (7, 3)], "a block of shape (7, 3) overruns the header's 10x3"),
            ([(4, 3), (6, 2)], "a block of shape (6, 2) overruns"),
            ([(10,)], "a block of shape (10,) overruns"),
        ],
        ids=["short", "long", "narrow", "flat"],
    )
    def test_blocks_that_disagree_with_the_header_leave_no_file(self, tmp_path, shapes, message):
        path = tmp_path / "v.emb"
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            store._write_view(path, False, 10, 3, (np.zeros(shape, np.float32) for shape in shapes))
        assert list(tmp_path.iterdir()) == []

    def test_zero_dimensions_leave_no_file(self, tmp_path):
        """A view the reader would refuse for its D of 0 is not written."""
        with pytest.raises(DimensionMismatch, match="a view needs at least one dimension, got 0"):
            save_view(EmbeddingView("x", 0, np.zeros((2, 0), np.float32)), tmp_path / "x.emb")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "normalized, error, message",
        [
            (False, NonFiniteEntry, "{path}: non-finite value at row 6, col 1 in view 'v'"),
            (True, NonUnitRow, "{path}: view 'v' flagged normalized but row 6 has L2 norm 2.000000"),
        ],
        ids=["non-finite", "non-unit"],
    )
    def test_every_written_block_is_checked(self, tmp_path, rng, normalized, error, message):
        """A fault in a later block raises naming the file and the row, and leaves no file."""
        rows = _normalize_rows(rng.standard_normal((10, 3)))
        if normalized:
            rows[6] *= 2.0
        else:
            rows[6, 1] = np.nan
        path = tmp_path / "v.emb"
        with pytest.raises(error) as err:
            store._write_view(path, normalized, 10, 3, [rows[:4], rows[4:]])
        assert str(err.value) == message.format(path=path)
        assert list(tmp_path.iterdir()) == []

    def test_load_normalizes_by_default(self, tmp_path, rng):
        path = tmp_path / "v.emb"
        save_view(EmbeddingView("x", 4, 3.0 * rng.standard_normal((6, 4)).astype(np.float32)), path)
        view = load_view(path)
        assert view.normalized
        norms = np.linalg.norm(view.rows.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)
        raw = load_raw_view(path)
        assert not raw.normalized

    def test_normalized_flag_trusted(self, tmp_path, rng):
        """A header-normalized file is loaded as-is, bit for bit."""
        view = EmbeddingView("x", 4, _normalize_rows(rng.standard_normal((6, 4))), normalized=True)
        path = tmp_path / "v.emb"
        save_view(view, path)
        loaded = load_view(path)
        assert loaded.normalized
        np.testing.assert_array_equal(loaded.rows, view.rows)

    def test_load_normalizes_the_read_buffer_in_place(self, tmp_path, rng):
        """Same bytes as normalizing a raw load, without a second copy of the rows."""
        n, d = 4096, 256
        rows = rng.standard_normal((n, d)).astype(np.float32)
        rows *= rng.uniform(1e-3, 1e3, size=(n, 1)).astype(np.float32)
        rows[::101] = 0.0
        path = tmp_path / "v.emb"
        save_view(EmbeddingView("x", d, rows), path)
        expected = _normalize_rows(load_raw_view(path).rows)
        tracemalloc.start()
        try:
            with pytest.warns(ZeroRowWarning):
                loaded = load_view(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.normalized and loaded.name == "v"
        assert loaded.rows.tobytes() == expected.tobytes()
        assert peak < 1.3 * rows.nbytes

    def test_load_takes_the_row_norms_once(self, tmp_path, rng, monkeypatch):
        """The finite check's norms are the ones the rows are divided by."""
        path = tmp_path / "v.emb"
        save_view(EmbeddingView("x", 4, 3.0 * rng.standard_normal((6, 4)).astype(np.float32)), path)
        calls = []
        row_norms = store._row_norms
        monkeypatch.setattr(store, "_row_norms", lambda rows: calls.append(rows.shape) or row_norms(rows))
        loaded = load_view(path)
        assert calls == [(6, 4)]
        assert loaded.rows.tobytes() == _normalize_rows(load_raw_view(path).rows).tobytes()

    def test_load_validates_without_a_payload_sized_mask(self, tmp_path, rng):
        """Loading an un-normalized view allocates little beyond the payload itself."""
        n, d = 4096, 256
        rows = 3.0 * rng.standard_normal((n, d)).astype(np.float32)
        path = tmp_path / "v.emb"
        save_view(EmbeddingView("x", d, rows), path)
        tracemalloc.start()
        try:
            loaded = load_view(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.normalized
        assert peak < 1.1 * rows.nbytes

    def test_normalized_flag_validated(self, tmp_path):
        """`save_view` refuses a view flagged normalized with a non-unit row, naming the file, and leaves no file."""
        path = tmp_path / "x.emb"
        with pytest.raises(NonUnitRow, match=re.escape(f"{path}: view 'x' flagged normalized but row 0")):
            save_view(EmbeddingView("x", 2, np.array([[3.0, 4.0]], dtype=np.float32), normalized=True), path)
        assert list(tmp_path.iterdir()) == []


class TestBlockReader:
    """`ViewFile` reads a payload a block at a time; `load_view` is it filling one matrix."""

    @staticmethod
    def raw_view(tmp_path, rng, n=23, d=4, flag=0):
        rows = rng.standard_normal((n, d)).astype("<f4")
        if flag:
            rows = _normalize_rows(rows)
        else:
            rows *= rng.uniform(1e-2, 1e2, size=(n, 1)).astype("<f4")
            rows[[0, 9, 10]] = 0.0
        path = tmp_path / "v.emb"
        write_raw(path, flag=flag, n=n, d=d, payload=rows.tobytes())
        return path, rows

    @pytest.mark.parametrize("flag", [0, 1])
    def test_blocks_are_the_rows_load_view_gives(self, tmp_path, rng, monkeypatch, flag):
        """Blocks of 3 rows, read into one reused buffer, hold the bytes of a
        whole-view load; the digest covers the file, and zero rows warn once."""
        path, rows = self.raw_view(tmp_path, rng, flag=flag)
        expected = rows if flag else _normalize_rows(rows)
        monkeypatch.setattr(store, "_BLOCK_BYTES", 3 * 4 * 4)
        seen, buffers = [], set()
        with recorded_files() as files, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with store.ViewFile(path) as reader:
                assert (reader.name, reader.normalized, reader.shape) == ("v", bool(flag), (23, 4))
                for lo, block in reader.blocks():
                    seen.append((lo, block.copy()))
                    buffers.add(block.__array_interface__["data"][0])
        assert [lo for lo, _ in seen] == list(range(0, 23, 3)) and len(buffers) == 1
        assert np.concatenate([block for _, block in seen]).tobytes() == expected.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroRowWarning)
            assert load_view(path).rows.tobytes() == expected.tobytes()
        assert files["read"] == {str(path): {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(), "bytes": path.stat().st_size}}
        zero_warnings = [w for w in caught if issubclass(w.category, ZeroRowWarning)]
        assert [str(w.message) for w in zero_warnings] == ([] if flag else [f"{path}: view 'v': 3 zero rows left unnormalized"])

    @pytest.mark.parametrize("flag", [0, 1])
    def test_take_gathers_rows_as_the_blocks_give_them(self, tmp_path, rng, monkeypatch, flag):
        """Runs of consecutive rows, across block edges, single rows and the last row."""
        path, rows = self.raw_view(tmp_path, rng, flag=flag)
        expected = rows if flag else _normalize_rows(rows)
        monkeypatch.setattr(store, "_BLOCK_BYTES", 3 * 4 * 4)
        index = np.array([0, 1, 2, 3, 4, 5, 6, 7, 9, 12, 13, 20, 22])
        with store.ViewFile(path) as reader:
            assert reader.take(index).tobytes() == expected[index].tobytes()
            assert reader.take(np.arange(0)).shape == (0, 4)

    def test_a_non_finite_entry_names_the_file_and_its_row(self, tmp_path, rng, monkeypatch):
        path, rows = self.raw_view(tmp_path, rng)
        rows[17, 2] = np.inf
        write_raw(path, n=23, d=4, payload=rows.tobytes())
        monkeypatch.setattr(store, "_BLOCK_BYTES", 3 * 4 * 4)
        with pytest.raises(NonFiniteEntry, match=re.escape(f"{path}: non-finite value at row 17, col 2 in view 'v'")):
            load_view(path)

    def test_a_non_finite_entry_is_reported_before_an_earlier_non_unit_row(self, tmp_path, rng, monkeypatch):
        """As a whole-view check reports it: a non-unit row in the first block
        does not hide a NaN in a later one, and alone it names the file and row."""
        path, rows = self.raw_view(tmp_path, rng, flag=1)
        rows[4] *= 2.0
        write_raw(path, flag=1, n=23, d=4, payload=rows.tobytes())
        monkeypatch.setattr(store, "_BLOCK_BYTES", 3 * 4 * 4)
        with pytest.raises(NonUnitRow, match=re.escape(f"{path}: view 'v' flagged normalized but row 4 has L2 norm 2.0")):
            load_view(path)
        with store.ViewFile(path) as reader, pytest.raises(NonUnitRow):
            assert [lo for lo, _ in reader.blocks()] == [0]  # the bad row's block is not given out
        rows[19, 1] = np.nan
        write_raw(path, flag=1, n=23, d=4, payload=rows.tobytes())
        with pytest.raises(NonFiniteEntry, match="row 19, col 1"):
            load_view(path)

    def test_a_pass_holds_one_block(self, tmp_path, rng):
        """Reading a payload of eight blocks allocates about one block, not the payload."""
        n, d = 16384, 256
        rows = 3.0 * rng.standard_normal((n, d)).astype(np.float32)
        path = tmp_path / "v.emb"
        save_view(EmbeddingView("x", d, rows), path)
        tracemalloc.start()
        try:
            with store.ViewFile(path) as reader:
                total = sum(float(block[:, 0].sum()) for _, block in reader.blocks())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(total) and rows.nbytes == 8 * store._BLOCK_BYTES
        assert peak < 2 * store._BLOCK_BYTES


def load_normalized(tmp_path, rows):
    """`rows` saved as a raw view, then loaded (and normalized) by `load_view`."""
    path = tmp_path / "x.emb"
    save_view(EmbeddingView("x", rows.shape[1], rows), path)
    return load_view(path)


class TestNormalize:
    def test_three_four_five(self, tmp_path):
        rows = np.array([[3.0, 4.0]], dtype=np.float32)
        np.testing.assert_allclose(_normalize_rows(rows), [[0.6, 0.8]], atol=1e-7)
        out = load_normalized(tmp_path, rows)
        np.testing.assert_allclose(out.rows, [[0.6, 0.8]], atol=1e-7)
        assert out.normalized

    def test_zero_row_warns_and_passes_through(self, tmp_path):
        rows = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float32)
        with pytest.warns(ZeroRowWarning, match="1 zero rows"):
            out = load_normalized(tmp_path, rows)
        np.testing.assert_array_equal(out.rows[0], [0.0, 0.0])
        np.testing.assert_array_equal(_normalize_rows(rows)[0], [0.0, 0.0])

    def test_already_unit_row_untouched(self, tmp_path):
        rows = np.array([[1.0, 0.0]], dtype=np.float32)
        np.testing.assert_array_equal(_normalize_rows(rows), rows)
        np.testing.assert_array_equal(load_normalized(tmp_path, rows).rows, rows)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 16))
    def test_idempotent_bitwise(self, seed, n, d):
        """normalize(normalize(x)) == normalize(x) exactly."""
        rows = np.random.default_rng(seed).standard_normal((n, d)).astype(np.float32)
        rows *= np.random.default_rng(seed + 1).uniform(1e-3, 1e3, size=(n, 1)).astype(np.float32)
        once = _normalize_rows(rows)
        twice = _normalize_rows(once)
        np.testing.assert_array_equal(once, twice)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_unit_self_dot(self, seed):
        """dot(normalize(r), normalize(r)) stays within 1e-5 of 1 for nonzero rows."""
        rows = np.random.default_rng(seed).standard_normal((8, 6)).astype(np.float32)
        out = _normalize_rows(rows)
        dots = np.einsum("ij,ij->i", out, out, dtype=np.float64)
        assert np.all(np.abs(dots - 1.0) <= 1e-5)


    def test_matches_gather_formula_bitwise(self):
        """The in-place divide (by 1.0 where none is due) gives the gather-and-scatter bytes and zero count."""
        rng = np.random.default_rng(7)
        n = 66_536
        rows = rng.standard_normal((n, 4)).astype(np.float32)
        rows *= rng.uniform(1e-3, 1e3, size=(n, 1)).astype(np.float32)
        rows[::97] = 0.0
        near = np.arange(5, n, 89)
        near = near[near % 97 != 0]
        unit = (rows[near] / np.linalg.norm(rows[near], axis=1, keepdims=True)).astype(np.float32)
        rows[near] = unit * np.float32(1.0 + _UNIT_SNAP / 2)
        out = rows.copy()
        zeros = _normalize_in_place(out)
        assert _normalize_rows(rows).tobytes() == out.tobytes()
        ref, ref_zeros = normalize_rows_gather(rows)
        assert out.tobytes() == ref.tobytes()
        assert zeros == ref_zeros == len(range(0, n, 97))
        snapped = np.abs(np.linalg.norm(rows[near].astype(np.float64), axis=1) - 1.0) <= _UNIT_SNAP
        assert snapped.sum() > 100
        np.testing.assert_array_equal(out[near[snapped]], rows[near[snapped]])


def boundary_rows(d, seed=0):
    """A table of rows about the unit rule's edges at `d` dims: for each of
    norm 1 - 1e-4 and 1 + 1e-4, the 4 float32 rows either side of where the
    float64 rule's verdict flips (one entry moved an ulp at a time), then a
    unit row, a zero row, a row whose float32 sum of squares underflows to 0
    and one whose float32 sum overflows."""
    rng = np.random.default_rng(seed)
    table = []
    for edge in (1.0 - 1e-4, 1.0 + 1e-4):
        u = rng.standard_normal(d)
        row = (u * (edge / np.linalg.norm(u))).astype(np.float32)
        k = int(np.argmax(np.abs(row)))
        walk = np.repeat(row[None], 401, axis=0)
        walk.view(np.int32)[:, k] += np.arange(-200, 201, dtype=np.int32)  # |entry k| grows an ulp a row
        norms = store._row_norms(walk)
        flips = np.flatnonzero(np.diff(np.abs(norms - 1.0) <= 1e-4))
        assert flips.size == 1 and 4 <= flips[0] <= 396
        table.extend(walk[flips[0] - 3 : flips[0] + 5])
    u = rng.standard_normal(d)
    table.append((u / np.linalg.norm(u)).astype(np.float32))
    table += [np.zeros(d, np.float32), np.full(d, 1e-30, np.float32), np.full(d, 1e20, np.float32)]
    return np.array(table)


class TestUnitRule:
    """The float32 screen (`store._screened_norms`) leaves the float64 rule's verdicts as they were."""

    @pytest.mark.parametrize("d", [2, 256, 3072])
    def test_boundary_table_gets_the_float64_verdicts(self, tmp_path, d):
        rows = boundary_rows(d)
        norms = store._row_norms(rows)  # the float64 rule: norm 0, or within 1e-4 of 1
        off = [r for r, norm in enumerate(norms) if norm != 0.0 and not abs(norm - 1.0) <= 1e-4]
        assert off == [0, 1, 2, 3, 12, 13, 14, 15, 18, 19]
        assert store._screened_norms(rows)[0].size < len(rows)  # the unit row passes on its float32 sum
        path = tmp_path / "v.emb"
        for r, norm in enumerate(norms):
            fault = f"row {r} has L2 norm {norm:.6f}" if r in off else None
            block_fault = store._check_block(rows[r : r + 1], r, path, True)[1]
            assert block_fault == (fault and f"{path}: view 'v' flagged normalized but {fault}")
            if fault is None:
                store._check_unit(rows, "table", np.array([r]))
            else:
                with pytest.raises(NonUnitRow, match=re.escape(f"table {fault}, not unit within 0.0001")):
                    store._check_unit(rows, "table", np.array([r]))
        with pytest.raises(NonUnitRow, match=re.escape(f"table row 0 has L2 norm {norms[0]:.6f}")):
            store._check_unit(rows, "table")
        rows[off[:8]] = rows[4]
        with pytest.raises(NonUnitRow, match=re.escape(f"table row 18 has L2 norm {norms[18]:.6f}")):
            store._check_unit(rows, "table")


def canonical_lines(n, start=0):
    """`n` manifest lines in `save_manifest`'s form, with ids from `start`."""
    return [
        json.dumps({"id": f"utt-{i:05d}", "duration_s": 1.0 + i / 8, "dataset": "a"})
        for i in range(start, start + n)
    ]


def manifest_text(n, start=0):
    return "".join(line + "\n" for line in canonical_lines(n, start))


class TestManifest:
    def write(self, tmp_path, lines):
        path = tmp_path / "manifest.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_records_in_file_order(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                '{"id": "utt-0", "duration_s": 2.5, "dataset": "a"}',
                '{"id": "utt-1", "duration_s": 1.0, "dataset": "a"}',
                '{"id": "utt-2", "duration_s": 4.0, "dataset": "b"}',
            ],
        )
        manifest = load_manifest(path)
        assert len(manifest) == 3
        assert manifest.ids == ["utt-0", "utt-1", "utt-2"]
        assert manifest.durations.dtype == np.float64
        assert manifest.durations.tolist() == [2.5, 1.0, 4.0]
        assert manifest.datasets == ["a", "a", "b"]

    def test_save_writes_the_bytes_it_loaded(self, tmp_path):
        """A manifest in `save_manifest`'s own form comes back byte for byte."""
        path = self.write(
            tmp_path,
            [
                '{"id": "utt-0", "duration_s": 2.5, "dataset": "a"}',
                '{"id": "utt-1", "duration_s": 3.0, "dataset": "a"}',
                '{"id": "utt-2", "duration_s": 0.1, "dataset": "b"}',
            ],
        )
        save_manifest(load_manifest(path), tmp_path / "copy.jsonl")
        assert (tmp_path / "copy.jsonl").read_bytes() == path.read_bytes()

    def test_duplicate_id_reports_line(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                '{"id": "utt-0007", "duration_s": 1.0, "dataset": "a"}',
                '{"id": "utt-0007", "duration_s": 2.0, "dataset": "a"}',
            ],
        )
        with pytest.raises(DuplicateId) as err:
            load_manifest(path)
        assert err.value.utterance_id == "utt-0007" and err.value.line == 2

    def test_zero_duration_rejected(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "u", "duration_s": 0, "dataset": "a"}'])
        with pytest.raises(NonPositiveDuration):
            load_manifest(path)

    @pytest.mark.parametrize(
        "line",
        [
            "not json at all",
            '{"id": "u", "duration_s": "fast", "dataset": "a"}',
            '{"duration_s": 1.0, "dataset": "a"}',
            "",
            "[1, 2]",
            '{"id": "u", "duration_s": 1.0, "dataset": "a"}, {"id": "v", "duration_s": 1.0, "dataset": "a"}',
            '{"id": "", "duration_s": 1.0, "dataset": "a"}',
            '{"id": "u", "duration_s": true, "dataset": "a"}',
            pytest.param('{"id": "u", "duration_s": 1' + "0" * 400 + ', "dataset": "a"}', id="int-beyond-float"),
            pytest.param('{"id": "u", "duration_s": 1' + "0" * 5000 + ', "dataset": "a"}', id="int-of-5001-digits"),
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),
        ],
    )
    def test_malformed_lines(self, tmp_path, line):
        path = self.write(
            tmp_path, ['{"id": "ok", "duration_s": 1.0, "dataset": "a"}', line]
        )
        with pytest.raises(MalformedLine) as err:
            load_manifest(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_line_numbers_follow_universal_newlines(self, tmp_path, newline):
        """Lines split as in text mode: CRLF and bare CR each end one line."""
        good = b'{"id": "u%d", "duration_s": 1.0, "dataset": "a"}'
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(newline.join([good % 0, good % 1, b"[1, 2]", good % 3]) + newline)
        with pytest.raises(MalformedLine) as err:
            load_manifest(path)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(manifest_text(3), id="canonical"),
            pytest.param(manifest_text(3).removesuffix("\n"), id="no-trailing-newline"),
            pytest.param(
                '{"id": "a", "duration_s": 2, "dataset": "x"}\n{"id": "b", "duration_s": 7, "dataset": "x"}\n',
                id="int-durations",
            ),
            pytest.param(
                json.dumps({"id": "señal-音", "duration_s": 1.5, "dataset": "ü"}) + "\n", id="escaped-non-ascii"
            ),
            pytest.param('{"id": "null-1", "duration_s": 1.5, "dataset": "a"}\n', id="null-in-id"),
            pytest.param(
                manifest_text(2000)
                + json.dumps({"id": "x" * (2 * store._PARSE_CHUNK), "duration_s": 3.0, "dataset": "a"})
                + "\n"
                + manifest_text(2000, start=2000),
                id="line-longer-than-a-chunk",
            ),
            pytest.param("", id="empty"),
        ],
    )
    def test_chunked_parse_matches_the_per_line_parse(self, tmp_path, text):
        """The rule read line by line is the oracle: the same columns, bit for bit."""
        path = tmp_path / "manifest.jsonl"
        path.write_text(text, encoding="utf-8")
        got, want = load_manifest(path), Manifest(*manifest_by_lines(path.read_bytes()))
        assert got.ids == want.ids and got.datasets == want.datasets
        assert got.durations.dtype == want.durations.dtype == np.float64
        assert got.durations.tobytes() == want.durations.tobytes()

    def test_canonical_file_takes_the_chunked_path(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, canonical_lines(5000))
        assert path.stat().st_size > 2 * store._PARSE_CHUNK

        def per_line(data, line):
            raise AssertionError("fell back to the per-line parser")

        monkeypatch.setattr(store, "_parse_lines", per_line)
        assert len(load_manifest(path)) == 5000

    def test_record_fault_raises_from_the_chunked_parse(self, tmp_path, monkeypatch):
        """A record fault in chunks that parse is raised at its line, without the per-line rerun."""
        lines = canonical_lines(3000)
        lines[2499] = lines[10]
        path = self.write(tmp_path, lines)
        assert path.stat().st_size > 2 * store._PARSE_CHUNK

        def per_line(data, line):
            raise AssertionError("fell back to the per-line parser")

        monkeypatch.setattr(store, "_parse_lines", per_line)
        with pytest.raises(DuplicateId, match=f"^{re.escape(str(path))}: ") as err:
            load_manifest(path)
        assert (err.value.utterance_id, err.value.line) == ("utt-00010", 2500)

    def small_chunks(self, monkeypatch, lines):
        """Chunks of about 6 of `lines`' 51-byte lines; the bytes of `lines`, one a line."""
        monkeypatch.setattr(store, "_PARSE_CHUNK", 300)
        return b"".join(line.encode() + b"\n" for line in lines)

    def test_a_chunk_holding_null_alone_goes_line_by_line(self, tmp_path, monkeypatch):
        """Only the chunk whose id holds `null` is parsed line by line, from its own first line."""
        lines = [f'{{"id": "u{i:03d}", "duration_s": 2.5, "dataset": "a"}}' for i in range(30)]
        lines[14] = lines[14].replace("u014", "null")
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(data := self.small_chunks(monkeypatch, lines))
        parse_lines, check_columns, calls, checked = store._parse_lines, store._check_columns, [], []

        def per_line(chunk, line):
            calls.append((chunk, line))
            return parse_lines(chunk, line)

        def counted(*columns):
            checked.append(tuple(map(list, columns)))
            return check_columns(*columns)

        monkeypatch.setattr(store, "_parse_lines", per_line)
        monkeypatch.setattr(store, "_check_columns", counted)
        got = load_manifest(path)
        [(chunk, line)] = calls
        held = chunk.splitlines()
        assert 1 < line <= 15 < line + len(held) <= len(lines)
        assert held == data.splitlines()[line - 1 : line - 1 + len(held)]
        ids, durations, datasets = manifest_by_lines(data)
        assert checked == [(ids, durations.tolist(), datasets)]  # the parser checks no record
        assert got.ids == ids and got.datasets == datasets
        assert got.durations.tobytes() == durations.tobytes()

    @pytest.mark.parametrize("newline", [b"\r", b"\r\n"])
    def test_line_breaks_in_a_middle_chunk_keep_the_line_numbers(self, tmp_path, monkeypatch, newline):
        """A run of CR or CRLF breaks in one chunk counts lines as text mode does in the whole file."""
        lines = [f'{{"id": "u{i:03d}", "duration_s": 2.5, "dataset": "a"}}' for i in range(40)]
        lines[30] = "not json"
        data = self.small_chunks(monkeypatch, lines)
        run = b"\n".join(line.encode() for line in lines[8:12])
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(data.replace(run, run.replace(b"\n", newline)))
        with pytest.raises(MalformedLine) as err:
            load_manifest(path)
        assert err.value.line == 31 == path.read_bytes().splitlines().index(b"not json") + 1

    def test_a_record_fault_is_reported_before_a_blank_line_after_it(self, tmp_path, monkeypatch):
        lines = [f'{{"id": "u{i:03d}", "duration_s": 2.5, "dataset": "a"}}' for i in range(30)]
        lines[7:9] = [lines[7].replace("2.5", "0.0"), ""]
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(self.small_chunks(monkeypatch, lines))
        with pytest.raises(NonPositiveDuration) as err:
            load_manifest(path)
        assert err.value.line == 8

    def test_a_file_whose_chunks_all_parse_checks_its_ids_once(self, tmp_path, monkeypatch):
        """No set of ids is kept while the chunks parse: one `_check_columns` of the final columns."""
        lines = [f'{{"id": "u{i:03d}", "duration_s": 2.5, "dataset": "a"}}' for i in range(30)]
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(self.small_chunks(monkeypatch, lines))
        check_columns, calls = store._check_columns, []

        def counted(*columns):
            calls.append(tuple(map(list, columns)))
            return check_columns(*columns)

        monkeypatch.setattr(store, "_check_columns", counted)
        assert load_manifest(path).ids == [f"u{i:03d}" for i in range(30)]
        assert calls == [([f"u{i:03d}" for i in range(30)], [2.5] * 30, ["a"] * 30)]

    @pytest.mark.parametrize(
        "fault, error",
        [
            pytest.param("not json", MalformedLine, id="bad-json-in-chunk-three"),
            pytest.param('{"id": "x", "duration_s": 0, "dataset": "a"}', NonPositiveDuration, id="zero-duration-in-chunk-three"),
        ],
    )
    def test_an_early_repeated_or_empty_id_is_reported_before_a_later_fault(self, tmp_path, monkeypatch, fault, error):
        """A repeated or empty id in chunk one is the first bad line, before the fault in chunk three."""
        lines = [f'{{"id": "u{i:03d}", "duration_s": 2.5, "dataset": "a"}}' for i in range(30)]
        lines[14] = fault
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(self.small_chunks(monkeypatch, lines))
        with pytest.raises(error) as err:
            load_manifest(path)
        assert err.value.line == 15
        for bad_id, raised in (("u000", DuplicateId), ("", MalformedLine)):
            path.write_bytes(self.small_chunks(monkeypatch, [lines[0], lines[1].replace("u001", bad_id), *lines[2:]]))
            with pytest.raises(raised) as err:
                load_manifest(path)
            assert err.value.line == 2 and getattr(err.value, "utterance_id", "u000") == "u000"

    @pytest.mark.parametrize("bad_id, error", [("u003", DuplicateId), ("", MalformedLine)], ids=["repeat", "empty"])
    def test_an_id_after_a_chunk_read_line_by_line_keeps_its_line(self, tmp_path, monkeypatch, bad_id, error):
        """A repeated or empty id after a chunk read line by line is reported at its own line."""
        lines = [f'{{"id": "u{i:03d}", "duration_s": 2.5, "dataset": "a"}}' for i in range(40)]
        lines[8] = lines[8].replace("u008", "null")
        lines[30] = lines[30].replace("u030", bad_id)
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(self.small_chunks(monkeypatch, lines))
        with pytest.raises(error) as err:
            load_manifest(path)
        assert err.value.line == 31

    @pytest.mark.parametrize(
        "lines",
        [
            pytest.param(
                [
                    '{"id": "a", "duration_s": 1, "dataset": "x", "e": [1',
                    '2]}',
                    '{"id": "b", "duration_s": 1, "dataset": "x"}, {"id": "c", "duration_s": 1, "dataset": "x"}',
                ],
                id="record-split-then-two-on-a-line",
            ),
            pytest.param(['{"id": "a', 'b", "duration_s": 1, "dataset": "x"}'], id="string-split"),
            pytest.param(
                [
                    '{"id": "a", "duration_s": 1, "dataset": "x", "e": [1',
                    '2]}, null, {"id": "b", "duration_s": 1, "dataset": "x"}',
                ],
                id="null-between-records",
            ),
            pytest.param(['{"id": "a", "duration_s": 1, "dataset": "x", "e": [1\r, 2]}'], id="record-split-at-cr"),
        ],
    )
    def test_values_spanning_lines_rejected_at_line_one(self, tmp_path, lines):
        with pytest.raises(MalformedLine) as err:
            load_manifest(self.write(tmp_path, lines))
        assert err.value.line == 1

    def test_duplicate_past_the_first_chunk_keeps_its_line(self, tmp_path):
        lines = canonical_lines(3000)
        lines[2499] = lines[10]
        with pytest.raises(DuplicateId) as err:
            load_manifest(self.write(tmp_path, lines))
        assert err.value.utterance_id == "utt-00010" and err.value.line == 2500

    def test_nan_duration_past_the_first_chunk_keeps_its_line(self, tmp_path):
        lines = canonical_lines(3000)
        lines[2499] = '{"id": "odd", "duration_s": NaN, "dataset": "a"}'
        with pytest.raises(NonPositiveDuration) as err:
            load_manifest(self.write(tmp_path, lines))
        assert err.value.line == 2500

    def test_late_invalid_utf8_after_a_malformed_line(self, tmp_path):
        """The first bad line is reported before bytes that are not UTF-8 further on."""
        lines = canonical_lines(3000)
        lines[1] = "not json"
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(("\n".join(lines) + "\n").encode() + b'{"id": "\xff", "duration_s": 1, "dataset": "a"}\n')
        with pytest.raises(MalformedLine) as err:
            load_manifest(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("lineno", [4, 2500])
    def test_invalid_utf8_is_a_malformed_line(self, tmp_path, lineno):
        """Bytes that are not UTF-8 are refused at their line, in the first chunk or a later one."""
        lines = canonical_lines(3000)
        path = tmp_path / "manifest.jsonl"
        data = ("\n".join(lines) + "\n").encode()
        path.write_bytes(data.replace(lines[lineno - 1].encode(), lines[lineno - 1].encode().replace(b"utt", b"\xff\xfe")))
        with pytest.raises(MalformedLine) as err:
            load_manifest(path)
        assert err.value.line == lineno
        assert str(err.value) == f"{path}: line {lineno}: not valid UTF-8"

    @pytest.mark.parametrize(
        "line, error",
        [
            ("not json", "line 3: invalid JSON (Expecting value)"),
            ('{"id": "utt-00000", "duration_s": 1.0, "dataset": "a"}', "duplicate utterance id 'utt-00000' on line 3"),
        ],
    )
    def test_errors_name_the_file(self, tmp_path, line, error):
        lines = canonical_lines(5)
        lines[2] = line
        path = self.write(tmp_path, lines)
        with pytest.raises(DataError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}: {error}"

    @pytest.mark.parametrize(
        "text",
        ["plain", 'quo"te', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "señal-音", "astral-\U0001f600", "null"],
    )
    @pytest.mark.parametrize("duration", [0.1, 3, 1e16, 1e-300, 5e-324])
    def test_save_writes_the_bytes_of_json_dumps(self, tmp_path, text, duration):
        """Each line is `json.dumps` of its record, for escaped, non-ASCII and astral text."""
        manifest = Manifest([text, text + "-2", "u"], [duration, 2.5, duration], ["a", text, text])
        path = tmp_path / "manifest.jsonl"
        save_manifest(manifest, path)
        records = zip(manifest.ids, manifest.durations.tolist(), manifest.datasets)
        want = "".join(json.dumps({"id": i, "duration_s": d, "dataset": t}) + "\n" for i, d, t in records)
        assert path.read_bytes() == want.encode("utf-8")

    def test_save_writes_many_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store, "_WRITE_CHUNK", 7)
        path = self.write(tmp_path, canonical_lines(50))
        save_manifest(load_manifest(path), tmp_path / "copy.jsonl")
        assert (tmp_path / "copy.jsonl").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "row",
        [
            pytest.param(("u2", float("nan"), "a"), id="nan"),
            pytest.param(("u2", float("inf"), "a"), id="inf"),
            pytest.param(("u2", 0.0, "a"), id="zero"),
            pytest.param(("u2", -1.5, "a"), id="negative"),
            pytest.param((7, 1.0, "a"), id="int-id"),
            pytest.param((None, 1.0, "a"), id="no-id"),
            pytest.param(("", 1.0, "a"), id="empty-id"),
            pytest.param(("u2", 1.0, 3), id="int-dataset"),
            pytest.param(("u0", 1.0, "a"), id="duplicate-id"),
            pytest.param(("u2", 10**400, "a"), id="int-beyond-float"),
        ],
    )
    def test_save_refuses_what_load_refuses(self, tmp_path, row):
        """The error `load_manifest` gives for the line `json.dumps` would write, and no file."""
        records = [("u0", 1.0, "a"), ("u1", 2.0, "a"), row, ("u3", 3.0, "b")]
        dumped = self.write(tmp_path, [json.dumps({"id": i, "duration_s": d, "dataset": t}) for i, d, t in records])
        with pytest.raises(DataError) as load_err:
            load_manifest(dumped)
        out = tmp_path / "out" / "manifest.jsonl"
        with pytest.raises(type(load_err.value)) as save_err:
            save_manifest(Manifest(*map(list, zip(*records))), out)
        assert f"{dumped}: {save_err.value}" == str(load_err.value)
        assert "line 3" in str(save_err.value)
        assert not out.parent.exists()

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            Manifest(["a", "b"], [1.0], ["x", "y", "z"])
        with pytest.raises(DimensionMismatch):
            Manifest(["a", "b"], [[1.0], [2.0]], ["x", "y"])

    def test_a_duration_that_is_a_list_is_a_malformed_line_in_a_file(self, tmp_path):
        """The parsed column is 1-D whatever its lines hold; an in-memory list of lists is a 2-D column."""
        path = self.write(tmp_path, [json.dumps({"id": i, "duration_s": [1.0], "dataset": "x"}) for i in "ab"])
        with pytest.raises(MalformedLine, match="line 1: field 'duration_s' must be a number"):
            load_manifest(path)

    @pytest.mark.parametrize("durations", [[1e308, 2.0, 1e308, 1.0], [10**308, 2, 10**308, 1]], ids=["floats", "ints"])
    def test_a_total_beyond_float_range_is_refused_where_it_overflows(self, tmp_path, durations):
        """Each duration is finite, but the total, summed in line order, overflows on line 3."""
        records = [{"id": f"u{i}", "duration_s": d, "dataset": "a"} for i, d in enumerate(durations)]
        path = self.write(tmp_path, [json.dumps(record) for record in records])
        with pytest.raises(MalformedLine) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}: line 3: the total duration_s is beyond float range"
        with pytest.raises(MalformedLine, match="^line 3: the total"):
            Manifest([f"u{i}" for i in range(4)], np.array(durations, dtype=np.float64), ["a"] * 4)

    _LINES = {
        "repeat": lambda i: {"id": "u000"},
        "empty-id": lambda i: {"id": ""},
        "id-a-number": lambda i: {"id": i},
        "no-id": lambda i: {"id": None},
        "duration-a-string": lambda i: {"duration_s": "3"},
        "duration-a-bool": lambda i: {"duration_s": True},
        "duration-a-list": lambda i: {"duration_s": [1.0]},
        "zero-duration": lambda i: {"duration_s": 0},
        "negative-duration": lambda i: {"duration_s": -1.5},
        "nan-duration": lambda i: {"duration_s": float("nan")},
        "inf-duration": lambda i: {"duration_s": float("inf")},
        "int-beyond-float": lambda i: {"duration_s": 10**400},
        "dataset-null": lambda i: {"dataset": None},
        "null-holding-id": lambda i: {"id": f"null-{i}"},
    }
    _TEXTS = {"blank": b"", "not-json": b"not json", "not-an-object": b"[1, 2]", "not-utf8": b'{"id": "\xff"}'}
    _BREAKS = {"cr": b"\r", "crlf": b"\r\n"}

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(64, 512),
        st.integers(0, 60),
        st.lists(
            st.tuples(st.integers(0, 59), st.sampled_from(sorted({**_LINES, **_TEXTS, **_BREAKS, "total-beyond-float": 0}))),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
    )
    def test_load_follows_the_rule_read_line_by_line(self, tmp_path_factory, chunk, n, faults, last_break):
        """In chunks of 64-512 bytes, a mix of valid lines, record faults and parse faults loads as
        the oracle reads it line by line: the same columns bit for bit, or the same error and line."""
        records = [{"id": f"u{i:03d}", "duration_s": i + 1 if i % 4 == 0 else i + 0.5, "dataset": "ab"[i % 2]} for i in range(n)]
        texts, breaks = {}, [b"\n"] * n
        for i, fault in (fault for fault in faults if fault[0] < n):
            if fault == "total-beyond-float":  # 1e308 on this line and the next: the running total overflows
                for record in records[i : i + 2]:
                    record["duration_s"] = 1e308
            elif fault in self._LINES:
                records[i].update(self._LINES[fault](i))
            elif fault in self._TEXTS:
                texts[i] = self._TEXTS[fault]
            else:
                breaks[i] = self._BREAKS[fault]
        lines = [texts.get(i, json.dumps(record).encode()) for i, record in enumerate(records)]
        data = b"".join(line + end for line, end in zip(lines, breaks))
        if n and not last_break:
            data = data.removesuffix(breaks[-1])
        path = tmp_path_factory.mktemp("oracle") / "manifest.jsonl"
        path.write_bytes(data)
        want = manifest_by_lines(data)
        with mock.patch.object(store, "_PARSE_CHUNK", chunk):
            if isinstance(want, DataError):
                with pytest.raises(DataError) as err:
                    load_manifest(path)
                assert type(err.value) is type(want) and err.value.line == want.line
                assert str(err.value) == f"{path}: {want}"
            else:
                got = load_manifest(path)
                assert (got.ids, got.datasets) == (want[0], want[2])
                assert got.durations.tobytes() == want[1].tobytes()


class TestRecordedFiles:
    def test_digests_are_those_of_the_files(self, tmp_path, rng):
        view_path, manifest_path = tmp_path / "v.emb", tmp_path / "manifest.jsonl"
        rows = 3.0 * rng.standard_normal((5, 4)).astype(np.float32)
        with recorded_files() as files:
            save_view(EmbeddingView("v", 4, rows), view_path)
            save_manifest(Manifest(["u"], [1.5], ["a"]), manifest_path)
            load_view(view_path)
            load_manifest(manifest_path)
        expected = {
            str(path): {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(), "bytes": path.stat().st_size}
            for path in (view_path, manifest_path)
        }
        assert files == {"read": expected, "written": expected}

    def test_nothing_is_recorded_outside_a_block(self, tmp_path):
        with recorded_files() as files:
            pass
        save_view(EmbeddingView("v", 2, np.eye(2, dtype=np.float32)), tmp_path / "v.emb")
        load_view(tmp_path / "v.emb")
        assert files == {"read": {}, "written": {}}


class TestCorpusAssembly:
    def test_view_row_count_must_match_records(self, rng):
        manifest = Manifest([f"u{i}" for i in range(3)], np.ones(3), ["a"] * 3)
        rows = rng.standard_normal((4, 2)).astype(np.float32)
        with pytest.raises(DimensionMismatch, match="4 rows"):
            CorpusManifest(manifest, {"v": rows})

    def test_target_dataset_rejects_empty_matrix(self):
        with pytest.raises(EmptyTargets):
            TargetDataset("t", {"v": np.zeros((0, 4), dtype=np.float32)})

    def test_target_dataset_leaves_the_callers_dict_alone(self):
        views = {"v": np.ones((2, 3))}
        dataset = TargetDataset("x", views)
        assert views["v"].dtype == np.float64
        assert dataset.views["v"].dtype == np.float32
