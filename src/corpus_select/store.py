"""On-disk and in-memory data model for embedding views and utterance metadata.

Embedding file layout (little-endian throughout):

    bytes 0..3    magic "EMB1"
    bytes 4..7    u32 format version (currently 1)
    byte  8       u8 normalized flag (0 or 1)
    bytes 9..16   u64 row count N
    bytes 17..20  u32 dimension D
    bytes 21..    N*D float32 payload, row-major, no padding, no trailer

Manifests are UTF-8 JSON lines with fields "id", "duration_s" and
"dataset"; `load_manifest` reads one as `ViewFile` reads a view, a chunk
of lines at a time, into columns (a `Manifest`), whose constructor is the
one manifest check; the parsers only parse. Line i of the manifest owns
row i of every view, as `CorpusManifest` checks.

One unit rule (`_unit_fault`) holds for every row that is scored: its
float64 L2 norm is within `_UNIT_TOL` (1e-4) of 1, or is 0. View files
are held to it by `_check_block`, in-memory rows by `_check_unit` where
they are scored; any other row, NaN rows included, raises NonUnitRow.
Both take the float64 norm only of the rows that a float32 sum of
squares does not prove unit (`_screened_norms`).

One block reader, `ViewFile`, reads every view payload. It reads the
rows in file order, a block of about 2 MB at a time, into one reused
buffer with `readinto` (no memory map: mapped pages count toward RSS),
and per block updates the file's sha256, runs the finite check, and runs
the unit check or normalizes the block. `read()` is the blocks filling
one matrix; `take(rows)` gathers rows by offset through the same file.
One block writer, `_write_view`, writes every view file, and runs the
same check (`_check_block`) on each block it writes: every view file is
checked when it is read and when it is written. `cli project` streams
the one into the other.

One opener, `open_corpus`, opens a corpus: the manifest columns and the
views as readers, every header checked and no payload read. `stats`
prints from the headers alone, `select` screens the views a block at a
time, and `load_corpus` is the opener reading each view whole. In
memory, a view is a plain unit float32 matrix: a loaded corpus is the
manifest columns plus one per view, and a target dataset is one per
view. `EmbeddingView` is only the record of one `.emb` file that
`load_view` returns and `save_view` takes.

A corpus directory holds one `manifest.jsonl` plus one `<view>.emb` file
per view. A targets directory holds one subdirectory per target dataset,
each with its `<view>.emb` files and, optionally, its own `manifest.jsonl`
(used by the duration-matching baseline); a flat directory of `.emb` files
is treated as a single dataset named after the directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import secrets
import struct
import warnings
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from corpus_select.errors import (
    BadMagic,
    DataError,
    DimensionMismatch,
    DuplicateId,
    EmptyTargets,
    MalformedLine,
    MissingView,
    NonFiniteEntry,
    NonPositiveDuration,
    NonUnitRow,
    ZeroRowWarning,
)

MAGIC = b"EMB1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIBQI")  # magic, version, normalized flag, N, D

# Rows whose L2 norm is already this close to 1 are left untouched by
# normalization, which makes repeated normalization bitwise idempotent.
_UNIT_SNAP = 2e-7
_UNIT_TOL = 1e-4  # the unit rule: a row's float64 L2 norm is within this of 1, or is 0

_BLOCK_BYTES = 1 << 21  # payload bytes per block of `ViewFile.blocks`


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """float64 L2 norm of each row of a float32 matrix."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """A unit-normalized float32 copy of `rows`; zero rows pass through."""
    out = np.array(rows, dtype=np.float32, copy=True)
    _normalize_in_place(out)
    return out


def _normalize_in_place(rows: np.ndarray, norms: np.ndarray | None = None) -> int:
    """Unit-normalize the rows of a writable float32 matrix in place; returns the zero-row count.

    Norms are computed in float64 (or taken from `norms`, the `_row_norms`
    of `rows`) and each row divided in float64 before casting back, so
    results are independent of blocking. Zero rows stay zero, and rows
    already within `_UNIT_SNAP` of unit norm are left untouched, so
    normalizing twice gives the bytes of normalizing once.
    """
    norms = _row_norms(rows) if norms is None else norms
    fix = (norms != 0.0) & (np.abs(norms - 1.0) > _UNIT_SNAP)
    # a float64 divide (by 1.0, which keeps a row's bytes, where none is due),
    # then the float32 cast on store, in place; numpy buffers the casts
    np.divide(rows, np.where(fix, norms, 1.0)[:, None], out=rows, casting="unsafe")
    return int(np.count_nonzero(norms == 0.0))


def _unit_fault(norms: np.ndarray, what: str, rows) -> str | None:
    """The unit rule on the float64 norms of the rows of `what` at the indices `rows`:
    the first row that breaks it (a NaN norm does), named, or None."""
    off = np.flatnonzero((norms != 0.0) & ~(np.abs(norms - 1.0) <= _UNIT_TOL))
    return f"{what} row {rows[off[0]]} has L2 norm {norms[off[0]]:.6f}" if off.size else None


def _unit_band(d: int) -> tuple[np.float32, np.float32]:
    """The float32 sums of squares of D entries that prove their row passes the unit rule.

    In any summation order a float32 sum of squares is within gamma_D of
    the exact sum, relatively (Higham, section 3.1). The slack covers the
    rule's own float64 sum and square root, the rounding of these bounds,
    and underflow. The band is rounded inward to float32; from D of about
    3,350 it is empty.
    """
    gamma = d * 2.0**-24 / (1.0 - d * 2.0**-24) if d < 2**23 else math.inf
    slack = (d + 8) * 2.0**-50
    lo = np.float32((1.0 - _UNIT_TOL) ** 2 * (1.0 + gamma + slack))
    hi = np.float32((1.0 + _UNIT_TOL) ** 2 * (1.0 - gamma - slack))
    return np.nextafter(lo, np.float32(np.inf)), np.nextafter(hi, np.float32(-np.inf))


def _screened_norms(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the rows of a float32 matrix that their float32 sum of
    squares does not prove unit (`_unit_band`), and their float64 norms.

    A sum of 0, one not finite and one outside the band all send their
    row to the float64 norm, so the unit rule's verdict, the row it names
    and the norm it prints are those of float64 norms of every row.
    """
    lo, hi = _unit_band(rows.shape[1])
    if lo > hi:
        return np.arange(rows.shape[0]), _row_norms(rows)
    with np.errstate(over="ignore"):  # a sum beyond float32 range is inf: its row is doubtful
        sums = np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]  # one float32 dot product a row
    doubt = np.flatnonzero(~((sums >= lo) & (sums <= hi)))
    return doubt, _row_norms(rows[doubt])


def _check_unit(mat: np.ndarray, what: str, rows: np.ndarray | None = None) -> None:
    """Raise NonUnitRow at the first row of the float32 matrix `mat` (of those at
    the indices `rows`) that breaks the unit rule, read a block at a time."""
    n, step = mat.shape[0] if rows is None else rows.size, _block_rows(mat.shape[1])
    for lo in range(0, n, step):
        at = np.arange(lo, min(lo + step, n)) if rows is None else rows[lo : lo + step]
        doubt, norms = _screened_norms(mat[lo : lo + step] if rows is None else mat[at])
        if fault := _unit_fault(norms, what, at[doubt]):
            raise NonUnitRow(f"{fault}, not unit within {_UNIT_TOL} (or zero)")


def _check_block(rows: np.ndarray, lo: int, path: Path, normalized: bool) -> tuple[np.ndarray, str | None]:
    """The float64 row norms of a block of the view file at `path` whose first
    row is `lo`, and, for a view flagged normalized, what is wrong with its
    first non-unit row. `ViewFile.blocks()` runs it on each block read and
    `_write_view` on each block written. The rows of a view flagged
    normalized are screened (`_screened_norms`), so only the norms of its
    doubtful rows are taken and returned.

    Raises NonFiniteEntry at the block's first non-finite entry. Both
    messages name the file.
    """
    doubt, norms = _screened_norms(rows) if normalized else (None, _row_norms(rows))
    # a float64 sum of squares of float32 entries cannot overflow, so it is
    # finite exactly when every entry of its row is; such a row is doubtful
    if not np.isfinite(norms).all():
        r, c = np.argwhere(~np.isfinite(rows))[0]
        exc = NonFiniteEntry(lo + r, c, context=f"view {path.stem!r}")
        exc.args = (f"{path}: {exc}",)  # corpus and target views may share a name
        raise exc
    what = f"{path}: view {path.stem!r} flagged normalized but"
    return norms, _unit_fault(norms, what, lo + doubt) if normalized else None


@dataclass
class EmbeddingView:
    """One `.emb` file in memory, as `load_view` returns it: a name and an
    N x D float32 matrix, one row per utterance.

    `normalized` records whether rows are unit-L2; cosine similarity then
    reduces to a dot product downstream. The record checks nothing:
    `save_view` checks what it writes, and `load_view` what it reads.
    """

    name: str
    dims: int
    rows: np.ndarray
    normalized: bool = False

    @property
    def row_count(self) -> int:
        return self.rows.shape[0]


@dataclass
class Manifest:
    """A manifest as columns: line i is `ids[i]`, `durations[i]` (seconds) and `datasets[i]`.

    The one manifest check: columns of one length and 1-D durations, then the first bad line
    raises (`_check_columns`), so a Manifest holds only lines that `load_manifest` accepts."""

    ids: list[str]
    durations: np.ndarray
    datasets: list[str]

    def __post_init__(self):
        if np.ndim(self.durations) != 1 or not len(self.ids) == len(self.durations) == len(self.datasets):
            raise DimensionMismatch(
                f"manifest columns disagree: {len(self.ids)} ids, durations of shape "
                f"{np.shape(self.durations)}, {len(self.datasets)} datasets"
            )
        durations = self.durations  # an array of numbers is checked as the Python numbers a parse gives
        if isinstance(durations, np.ndarray) and durations.dtype != object:
            durations = durations.tolist()
        _check_columns(self.ids, durations, self.datasets)
        self.durations = np.asarray(self.durations, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class CorpusManifest:
    """Manifest columns plus the views aligned to them row for row: float32
    matrices, or `ViewFile`s (whose row-count error names the file)."""

    manifest: Manifest
    views: dict[str, np.ndarray | ViewFile]

    def __post_init__(self):
        lines = len(self.manifest)
        for name, view in self.views.items():
            if view.shape[0] != lines:
                where = f"{view.path}: " if isinstance(view, ViewFile) else ""
                raise DimensionMismatch(
                    f"{where}view {name!r} has {view.shape[0]} rows but the manifest has {lines} lines"
                )


@dataclass
class TargetDataset:
    """One target dataset: a name and one embedding matrix per view."""

    name: str
    views: dict[str, np.ndarray]

    def __post_init__(self):
        # a new dict: the caller's keeps its own arrays
        self.views = {name: np.asarray(mat, dtype=np.float32) for name, mat in self.views.items()}
        for view_name, mat in self.views.items():
            if mat.ndim != 2 or mat.shape[0] == 0:
                raise EmptyTargets(
                    f"target dataset {self.name!r}, view {view_name!r}: "
                    f"matrix must be nonempty 2-D, got shape {mat.shape}"
                )


@dataclass
class TargetSet:
    """Ordered target datasets."""

    datasets: list[TargetDataset]


_recording: list[tuple[dict, dict]] = []  # (log, replayed manifest) of each open recorded_files() block


@contextmanager
def recorded_files(replay: dict | None = None):
    """Record `path -> {"sha256", "bytes"}` for each file read or written in the block.

    Yields `{"read": {...}, "written": {...}}`, filled as `ViewFile.blocks()`,
    `load_manifest` and the atomic writers run. Each digest is taken from
    the bytes the call itself read or wrote; outside a block nothing is
    hashed.

    `replay`, a replayed run manifest, is checked where the bytes are
    hashed, each fault a DataError naming the path: on entry, that each
    recorded input is a file; as each read ends (`_record_read`), its
    recorded input digest; before each rename (`_atomic_bytes`), its
    recorded output digest; on a clean exit, that each recorded output
    was written. Reads and writes keep apart: `project --in V --out V`
    reads and writes one path.
    """
    replay = replay or {}
    for path in replay.get("inputs", {}):
        if not Path(path).is_file():
            raise DataError(f"replay input missing: {path}")
    log: dict[str, dict] = {"read": {}, "written": {}}
    _recording.append((log, replay))
    try:
        yield log
    finally:
        _recording.pop()
    for path in replay.get("outputs", {}):
        if path not in log["written"]:
            raise DataError(f"replay did not write {path}, a recorded output")


def _record_read(path: Path, digest, size: int) -> None:
    (log, replay), sha256 = _recording[-1], digest.hexdigest()
    recorded = replay.get("inputs", {}).get(str(path))
    if recorded is not None and recorded["sha256"] != sha256:
        raise DataError(f"replay input changed since the recorded run: {path}")
    log["read"][str(path)] = {"sha256": sha256, "bytes": size}


def _atomic_bytes(path: Path, chunks) -> None:
    """Write an iterable of bytes-like chunks via temp-and-rename.

    An interrupted run leaves no partial file; inside `recorded_files()`
    the chunks are digested as they are written, and a digest that differs
    from the replay's recorded output raises DataError, leaving the file as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = path.parent / f"{path.name}.{secrets.token_hex(8)}.tmp"
    log, replay = _recording[-1] if _recording else (None, {})
    digest = hashlib.sha256() if log is not None else None
    size = 0
    # mode 0o666 lets the umask set the output's mode, as for any created file
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                size += fh.write(chunk)
                if digest is not None:
                    digest.update(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        recorded = replay.get("outputs", {}).get(str(path), {}).get("sha256")
        if recorded is not None and recorded != (written := digest.hexdigest()):
            raise DataError(f"replay produced a different digest for {path}: {written} != recorded {recorded}")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if log is not None:
        log["written"][str(path)] = {"sha256": digest.hexdigest(), "bytes": size}


def save_view(view: EmbeddingView, path: str | Path) -> None:
    """Write a view in the EMB1 format, checked by `_write_view`. The write is atomic."""
    _write_view(path, view.normalized, view.row_count, view.dims, [view.rows])


def _write_view(path: str | Path, normalized: bool, n: int, d: int, blocks) -> None:
    """Write N x D rows from row blocks as an atomic EMB1 file.

    Each block is cast to float32 and checked as `ViewFile.blocks()` checks
    it when read (`_check_block`): every entry finite and, under a header
    flagged normalized, every row unit (or zero). A block that fails, or
    that disagrees with N x D, raises naming the path and leaves no file.
    """
    path = Path(path)

    def chunks():
        yield _HEADER.pack(MAGIC, FORMAT_VERSION, int(normalized), n, d)
        rows = 0
        for block in blocks:
            block = np.ascontiguousarray(block, dtype="<f4")
            if block.ndim != 2 or block.shape[1] != d or rows + block.shape[0] > n:
                raise DimensionMismatch(f"{path}: a block of shape {block.shape} overruns the header's {n}x{d}")
            _, off_unit = _check_block(block, rows, path, normalized)
            if off_unit:
                raise NonUnitRow(off_unit)
            rows += block.shape[0]
            yield block
        if rows != n:
            raise DimensionMismatch(f"{path}: the header declares {n} rows but the blocks hold {rows}")

    if d < 1:  # the reader refuses such a header
        raise DimensionMismatch(f"{path}: a view needs at least one dimension, got {d}")
    _atomic_bytes(path, chunks())


def _read_header(fh, path: Path) -> tuple[bytes, int, int, int]:
    """The header bytes, normalized flag, N and D of an open EMB1 file.

    Reads only the 21 header bytes, and rejects bad magic, version or
    flag, zero dimensions and a file size that disagrees with N x D.
    """
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size or header[:4] != MAGIC:
        raise BadMagic(f"{path}: not an EMB1 embedding file")
    _, version, flag, n, d = _HEADER.unpack(header)
    if version != FORMAT_VERSION:
        raise BadMagic(f"{path}: unsupported format version {version}")
    if flag not in (0, 1):
        raise BadMagic(f"{path}: normalized flag must be 0 or 1, got {flag}")
    if d == 0:
        raise DimensionMismatch(f"{path}: header declares zero dimensions")
    expected = n * d * 4
    payload = os.fstat(fh.fileno()).st_size - _HEADER.size
    if payload != expected:
        raise DimensionMismatch(
            f"{path}: header declares {n}x{d} rows ({expected} payload bytes) "
            f"but the file holds {payload}"
        )
    return header, flag, n, d


def _block_rows(d: int) -> int:
    return max(1, _BLOCK_BYTES // (4 * max(d, 1)))  # in memory, rows of D 0 are zero rows


class ViewFile:
    """An EMB1 view file, read a block of rows at a time and never held whole.

    Opening reads and checks the header (`_read_header`) and keeps the
    file open until the end of a `with` block; `name`,
    `normalized` (the header flag) and `shape` come from the header.
    `blocks()` reads the payload, `read()` the whole of it, and
    `take(rows)`, or `view[rows]`, gathers rows from it.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.name = self.path.stem
        self._fh = open(self.path, "rb")
        try:
            self._header, flag, n, d = _read_header(self._fh, self.path)
        except BaseException:
            self._fh.close()
            raise
        self.normalized = bool(flag)
        self.shape = (n, d)

    def __enter__(self) -> "ViewFile":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def blocks(self, out: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
        """`(lo, block)` for each block of rows in file order, checked and unit.

        Each block is read with `readinto` into one reused buffer, valid
        until the next block, or into its rows of `out`, an N x D "<f4"
        matrix. Per block, the file's sha256 is updated (inside
        `recorded_files()`, where the read is recorded once the last block
        is in), the finite check runs, and then the unit check, if the
        header marks the rows normalized, or normalization. Zero rows stay
        zero and are counted in one ZeroRowWarning. The errors are those of
        checking the whole view at once, and name the file: a non-finite
        entry in any row is reported before a non-unit row, so after a
        non-unit row the rest is read for the finite check only.
        """
        n, d = self.shape
        step = _block_rows(d)
        buf = np.empty((min(step, n), d), "<f4") if out is None else out
        digest = hashlib.sha256(self._header) if _recording else None
        zero_count, off_unit = 0, None
        self._fh.seek(_HEADER.size)
        for lo in range(0, n, step):
            block = buf[lo : lo + step] if out is not None else buf[: min(step, n - lo)]
            if self._fh.readinto(block) != block.nbytes:
                raise DimensionMismatch(f"{self.path}: the file ends before row {lo + block.shape[0]}")
            if digest is not None:
                digest.update(block)
            norms, off = _check_block(block, lo, self.path, self.normalized)
            off_unit = off_unit or off
            if off_unit is None:
                if not self.normalized:
                    # the buffer just read is ours: normalize it in place, with the norms its check took
                    zero_count += _normalize_in_place(block, norms)
                yield lo, block
        if off_unit is not None:
            raise NonUnitRow(off_unit)
        if digest is not None:
            _record_read(self.path, digest, _HEADER.size + n * d * 4)
        if zero_count:
            message = f"{self.path}: view {self.name!r}: {zero_count} zero rows left unnormalized"
            warnings.warn(message, ZeroRowWarning, stacklevel=2)

    def read(self) -> np.ndarray:
        """The whole payload as one N x D matrix: `blocks()` filling it, so each row is checked once."""
        rows = np.empty(self.shape, "<f4")
        for _ in self.blocks(out=rows):
            pass
        return rows

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The rows at the ascending indices `rows`, as `blocks()` gives them, in one new matrix.

        Each run of consecutive rows, up to a block, is one `preadv` at its
        offset through the open file. The rows are normalized like the
        blocks; `blocks()` has checked them.
        """
        d, size = self.shape[1], 4 * self.shape[1]
        out = np.empty((rows.size, d), "<f4")
        buf, fd = memoryview(out.view(np.uint8).reshape(-1)), self._fh.fileno()
        starts = np.flatnonzero((np.diff(rows, prepend=-2) != 1) | (np.arange(rows.size) % _block_rows(d) == 0))
        ends = np.append(starts[1:], rows.size)
        for lo, hi, row in zip(starts.tolist(), ends.tolist(), rows[starts].tolist()):
            if os.preadv(fd, [buf[lo * size : hi * size]], _HEADER.size + row * size) != (hi - lo) * size:
                raise DimensionMismatch(f"{self.path}: the file ends before row {row + hi - lo}")
        if not self.normalized:
            _normalize_in_place(out)
        return out

    __getitem__ = take  # `view[rows]` gathers rows from a file as from a matrix


def load_view(path: str | Path) -> EmbeddingView:
    """Load an EMB1 view file; the view is named after the file's stem.

    This is `ViewFile.read()`: unless the header marks the rows
    normalized, rows are L2-normalized on load so that cosine equals dot
    product downstream. Zero rows stay zero and are counted in a
    ZeroRowWarning; their cosine with anything is 0 downstream.
    """
    with ViewFile(path) as reader:
        return EmbeddingView(reader.name, reader.shape[1], reader.read(), normalized=True)


_PARSE_CHUNK = 1 << 16  # bytes of whole lines per chunk that `load_manifest` reads and parses
_WRITE_CHUNK = 1 << 14  # lines per write in `save_manifest`


def load_manifest(path: str | Path) -> Manifest:
    """Parse a JSON-lines manifest into columns; line order defines row order.

    Each chunk of whole lines (about `_PARSE_CHUNK` bytes) is read, hashed inside `recorded_files()`,
    and parsed once: as one JSON array (`_parse_array`) or, failing that, line by line (`_parse_lines`).
    Reading stops at the first line that is not one JSON object. The lines before it make the
    `Manifest`, whose check raises at the first bad record among them; only then does that line's
    MalformedLine raise. So the first bad line raises, whatever its kind, and the error names the
    file. The read is recorded once the last chunk is in, as `ViewFile.blocks()` records a view."""
    path, columns, fault = Path(path), ([], [], []), None
    digest, size = hashlib.sha256() if _recording else None, 0
    try:
        with open(path, "rb") as fh:
            while fault is None and (chunk := fh.read(_PARSE_CHUNK) + fh.readline()):  # whole lines
                if digest is not None:
                    digest.update(chunk)
                size += len(chunk)
                try:
                    parsed = _parse_array(chunk)
                except (ValueError, RecursionError):  # not one object a line, or not UTF-8
                    parsed, fault = _parse_lines(chunk, len(columns[0]) + 1)
                for column, part in zip(columns, parsed):
                    column += part
        # durations as a 1-D column whatever the lines hold (a list of lists would read as 2-D)
        manifest = Manifest(columns[0], np.fromiter(columns[1], object, len(columns[1])), columns[2])
        if fault is not None:
            raise fault
    except DataError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    if digest is not None:
        _record_read(path, digest, size)
    return manifest


def _parse_array(chunk: bytes) -> tuple[list, list, list]:
    """The columns of a chunk of lines, from one `json.loads` of an array with `null` for each
    line break. No line holds `null`, so 2k - 1 values with `None` at the k - 1 odd places mean
    each of the k lines held one value. A chunk with `null` or `\r` (a line break in text mode),
    or a line not one object, raises ValueError."""
    if b"null" in chunk or b"\r" in chunk:
        raise ValueError("a chunk holding null or a carriage return")
    body = chunk.decode("utf-8").removesuffix("\n")
    values = json.loads("[" + body.replace("\n", ",null,") + "]")
    lines, records = body.count("\n") + 1, values[::2]
    if len(values) != 2 * lines - 1 or values[1::2].count(None) != lines - 1 or {*map(type, records)} != {dict}:
        raise ValueError("a line that does not hold exactly one JSON object")
    return tuple([r.get(field) for r in records] for field in ("id", "duration_s", "dataset"))


def _parse_lines(data: bytes, line: int) -> tuple[tuple[list, list, list], MalformedLine | None]:
    """The columns of the manifest lines of `data`, numbered from `line` and parsed one by one, up
    to the first line that is not one JSON object, and that line's MalformedLine (None if none)."""
    records, fault = [], None
    try:
        # `bytes.splitlines` breaks lines where text mode does: at "\n", "\r\n" and "\r"
        for lineno, raw in enumerate(data.splitlines(), start=line):
            try:
                text = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise MalformedLine(lineno, "not valid UTF-8") from None
            if not text:
                raise MalformedLine(lineno, "blank line")
            try:
                obj = json.loads(text)
            except (ValueError, RecursionError) as exc:  # not JSON, an int of too many digits, deep nesting
                raise MalformedLine(lineno, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc
            if not isinstance(obj, dict):
                raise MalformedLine(lineno, "record must be a JSON object")
            records.append((obj.get("id"), obj.get("duration_s"), obj.get("dataset")))
    except MalformedLine as exc:
        fault = exc
    return tuple([record[k] for record in records] for k in range(3)), fault


def _check_columns(ids: list, durations: list, datasets: list) -> None:
    """Raise the DataError of the first bad line i + 1 of a manifest's columns (`ids[i]`, `durations[i]`,
    `datasets[i]`): a field of the wrong type, an empty or repeated id, a duration not positive and
    finite (an int beyond float range included), or one taking the running total of the durations,
    in line order, past float range. Columns that pass as a whole are not checked row by row."""
    with suppress(OverflowError):  # an int beyond float range: the row loop names its line
        if {*map(type, ids), *map(type, datasets)} <= {str} and {*map(type, durations)} <= {int, float}:
            if min(durations, default=1) > 0 and math.isfinite(sum(durations)):  # no NaN or inf, a total in range
                if len(unique := set(ids)) == len(ids) and "" not in unique:
                    return
    seen, total = set(), 0.0
    for line, (utt_id, duration, dataset) in enumerate(zip(ids, durations, datasets), start=1):
        if not isinstance(utt_id, str) or not utt_id:
            raise MalformedLine(line, "field 'id' must be a nonempty string")
        if isinstance(duration, bool) or not isinstance(duration, (int, float)):
            raise MalformedLine(line, "field 'duration_s' must be a number")
        if not isinstance(dataset, str):
            raise MalformedLine(line, "field 'dataset' must be a string")
        try:
            seconds = float(duration)
        except OverflowError:  # an int beyond float range
            raise MalformedLine(line, "field 'duration_s' is beyond float range") from None
        if not math.isfinite(seconds) or seconds <= 0:
            raise NonPositiveDuration(duration, line)
        if utt_id in seen:
            raise DuplicateId(utt_id, line)
        seen.add(utt_id)
        total += seconds
        if math.isinf(total):
            raise MalformedLine(line, "the total duration_s is beyond float range")


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    """Write a manifest as JSON lines, `_WRITE_CHUNK` lines per write. The write is atomic.

    Each line is the bytes `json.dumps` gives its record. A `Manifest` has passed the check
    `load_manifest` makes, so the file written reads back as the same columns."""
    quote = json.encoder.encode_basestring_ascii
    rows = zip(manifest.ids, manifest.durations.tolist(), manifest.datasets)
    lines = (f'{{"id": {quote(i)}, "duration_s": {d!r}, "dataset": {quote(t)}}}\n' for i, d, t in rows)
    chunks = ("".join(islice(lines, _WRITE_CHUNK)).encode("ascii") for _ in range(0, len(manifest), _WRITE_CHUNK))
    _atomic_bytes(Path(path), chunks)


def _view_files(directory: Path, views: Sequence[str] | None) -> list[Path]:
    if views is None:
        return sorted(directory.glob("*.emb"), key=lambda p: p.stem)
    return [directory / f"{name}.emb" for name in views]


def _dataset_dirs(directory: str | Path) -> list[Path]:
    directory = Path(directory)
    return sorted(p for p in directory.iterdir() if p.is_dir()) or [directory]


@contextmanager
def open_corpus(directory: str | Path, *, views: Sequence[str] | None = None) -> Iterator[CorpusManifest]:
    """A corpus directory's `manifest.jsonl` and view files as a `CorpusManifest` of open `ViewFile`s.

    `views` selects view names (default: every `.emb` file, sorted by
    name); a directory with no `.emb` file raises, naming it. Headers are
    checked against the manifest and no payload is read. The files are
    closed when the block ends.
    """
    directory = Path(directory)
    manifest = load_manifest(directory / "manifest.jsonl")
    if next(directory.glob("*.emb"), None) is None:
        raise DimensionMismatch(f"{directory}: the corpus directory holds no view (.emb) file")
    with ExitStack() as stack:
        files = {path.stem: stack.enter_context(ViewFile(path)) for path in _view_files(directory, views)}
        yield CorpusManifest(manifest, files)


def load_corpus(directory: str | Path, *, views: Sequence[str] | None = None) -> CorpusManifest:
    """`open_corpus` with each view read whole (`ViewFile.read`) into a unit float32 matrix."""
    with open_corpus(directory, views=views) as corpus:
        return CorpusManifest(corpus.manifest, {name: view.read() for name, view in corpus.views.items()})


def load_targets(directory: str | Path, *, views: Mapping[str, int] | None = None) -> TargetSet:
    """Load a targets directory into a TargetSet.

    Subdirectories become datasets in sorted name order; a flat directory
    of `.emb` files becomes a single dataset named after the directory.
    `views` maps the names to load to their D (default: every `.emb` file).
    A dataset without a `.emb` file or a view without rows raises EmptyTargets,
    a missing view MissingView, a view of another D DimensionMismatch; each names its path.
    """
    datasets = []
    for sub in _dataset_dirs(directory):
        if next(sub.glob("*.emb"), None) is None:
            raise EmptyTargets(f"{sub}: the targets directory holds no view (.emb) file")
        mats = {}
        for path in _view_files(sub, views):
            if not path.exists():
                raise MissingView(f"{sub}: targets are missing weighted view {path.stem!r}")
            mats[path.stem] = rows = load_view(path).rows
            d = rows.shape[1] if views is None else views[path.stem]
            if rows.shape[0] == 0:
                raise EmptyTargets(f"{path}: the target view has no rows")
            if rows.shape[1] != d:
                raise DimensionMismatch(f"{path}: the target view has {rows.shape[1]} dims, the corpus view {d}")
        datasets.append(TargetDataset(sub.name, mats))
    return TargetSet(datasets)


def save_targets(targets: TargetSet, directory: str | Path) -> None:
    """Write each dataset's views, marked normalized, under `<directory>/<dataset>/<view>.emb`."""
    directory = Path(directory)
    for ds in targets.datasets:
        for view_name, mat in ds.views.items():
            _write_view(directory / ds.name / f"{view_name}.emb", True, *mat.shape, [mat])


def load_target_durations(directory: str | Path) -> np.ndarray:
    """Concatenate duration_s from every dataset manifest under a targets dir.

    Used by the duration-matching baseline, which needs target durations
    rather than embeddings.
    """
    manifests = (sub / "manifest.jsonl" for sub in _dataset_dirs(directory))
    found = [load_manifest(path).durations for path in manifests if path.exists()]
    durations = np.concatenate([np.empty(0), *found])
    if not durations.size:
        raise EmptyTargets(f"{directory}: no dataset manifest with durations found")
    return durations
