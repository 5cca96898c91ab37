import hashlib
import itertools
import json
import os
import shutil
import stat
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_select import cli, store
from corpus_select.cli import run
from corpus_select.relevance import available_cpus, blas_corename, blas_thread_cap
from corpus_select.store import EmbeddingView, _atomic_bytes, load_manifest, load_view, save_view
from conftest import cli_own_peak

# the selection bytes of golden_selection_digest: projection and scoring
# GEMMs are exact, so they are the same under every BLAS kernel, thread
# count and CPU (TestGoldenPipeline runs the pipeline under three OpenBLAS
# kernels and two numpy SIMD settings); the run-twice assert holds
# regardless of the pinned constant
GOLDEN_SELECTION_SHA256 = "05d6ccbbf42108c1631f534afd07fe34c1af5328ecb18144c4bbff3f8cbcc0c6"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def fixture_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fixture")
    corpus = root / "corpus"
    targets = root / "targets"
    code = run(
        [
            "stats",
            "--make-fixture",
            "--out",
            str(corpus),
            "--targets-out",
            str(targets),
            "--utterances",
            "600",
            "--views",
            "speaker:48,wavlm:48",
            "--clusters",
            "8",
            "--target-rows",
            "60",
            "--seed",
            "101",
        ]
    )
    assert code == 0
    return corpus, targets


# a fixture run that would write under the current directory, were its --views accepted
_FIXTURE_OUT = ["stats", "--make-fixture", "--out", "o", "--targets-out", "t", "--utterances", "20"]

# every flag with a numeric type: (subcommand, flag, a value whose number is 'a', what the flag takes)
_NUMERIC_FLAGS = [
    ("project", "--dim", "a", "an integer"),
    ("project", "--seed", "a", "an integer"),
    ("audit", "--pairs", "a", "an integer"),
    ("audit", "--seed", "a", "an integer"),
    ("compact-targets", "--k", "a", "an integer"),
    ("compact-targets", "--seed", "a", "an integer"),
    ("select", "--lambda", "a", "a number"),
    ("select", "--alpha", "a", "a number"),
    ("select", "--rho", "a", "a number"),
    ("select", "--batch", "a", "an integer"),
    ("select", "--seed", "a", "an integer"),
    ("select", "--threads", "a", "an integer"),
    ("probe", "--clusters", "a", "an integer"),
    ("probe", "--seed", "a", "an integer"),
    ("stats", "--utterances", "a", "an integer"),
    ("stats", "--views", "v:a", "an integer"),
    ("stats", "--clusters", "a", "an integer"),
    ("stats", "--target-rows", "a", "an integer"),
    ("stats", "--seed", "a", "an integer"),
]


class TestUsageErrors:
    def test_lambda_out_of_range_names_flag(self, capsys):
        code = run(["select", "--corpus", "x", "--targets", "y", "--lambda", "1.3", "--out", "z"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--lambda" in captured.err
        assert "[0.0, 1.0]" in captured.err

    def test_missing_required_flag(self, capsys):
        code = run(["select", "--targets", "y", "--out", "z"])
        assert code == 2
        assert "--corpus" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_medoids_reserved(self, capsys, tmp_path):
        code = run(
            ["compact-targets", "--targets", str(tmp_path), "--out", str(tmp_path / "o"), "--medoids"]
        )
        assert code == 2
        assert "--medoids" in capsys.readouterr().err

    def test_negative_seed_rejected_before_load(self, capsys):
        code = run(["select", "--corpus", "nope", "--targets", "x", "--seed", "-1", "--out", "z"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["nan", "inf", "1e308"])
    def test_non_finite_weight_names_flag(self, capsys, weight):
        """Two weights of 1e308 are each finite, but their total is not."""
        weights = f"speaker={weight},wavlm={weight}"
        code = run(["select", "--corpus", "nope", "--targets", "x", "--weights", weights, "--out", "z"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--weights" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["select", "--weights", "=1"], "argument --weights: empty name in '=1'"),
            (["select", "--weights", "speaker=1, speaker=0"], "argument --weights: repeated name 'speaker'"),
            (["stats", "--make-fixture", "--views", "a:4,a:8"], "argument --views: repeated name 'a'"),
            (["stats", "--make-fixture", "--views", ":4"], "argument --views: empty name in ':4'"),
            (["probe", "--views", "speaker,speaker"], "argument --views: repeated name 'speaker'"),
            (["probe", "--views", "a,,b"], "argument --views: empty name in 'a,,b'"),
            ([*_FIXTURE_OUT, "--views", "../x:4"], "argument --views: view name '../x' must be a file stem"),
            ([*_FIXTURE_OUT, "--views", "a/b:4"], "argument --views: view name 'a/b' must be a file stem"),
            ([*_FIXTURE_OUT, "--views", "a=b:4"], "argument --views: view name 'a=b' must be a file stem"),
            ([*_FIXTURE_OUT, "--views", ".a:4"], "argument --views: view name '.a' must be a file stem"),
        ],
    )
    def test_empty_or_repeated_name_exits_2_naming_it(self, capsys, tmp_path, monkeypatch, argv, message):
        """Name lists are checked as they are parsed, before any file is read or written."""
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("subcommand, flag, value, kind", _NUMERIC_FLAGS)
    def test_non_number_says_what_the_flag_takes(self, capsys, subcommand, flag, value, kind):
        """argparse would name the converter function (`invalid convert value`)."""
        assert run([subcommand, flag, value]) == 2
        assert f"argument {flag}: must be {kind}, got 'a'" in capsys.readouterr().err

    def test_numeric_flag_table_is_complete(self):
        _, (subparsers, _) = cli._build_parser()
        listed = {(sub, flag) for sub, flag, _, _ in _NUMERIC_FLAGS}
        for sub, p in subparsers.items():
            for action in p._actions:
                if action.type not in (None, cli._weights_arg, cli._views_arg):
                    assert (sub, action.option_strings[0]) in listed

    def test_replayed_non_number_says_what_the_flag_takes(self, fixture_dirs, tmp_path, capsys):
        corpus, targets = fixture_dirs
        assert run(TestSelect().select_args(corpus, targets, tmp_path / "b.jsonl")) == 0
        sidecar = tmp_path / "b.jsonl.run.json"
        manifest = json.loads(sidecar.read_text())
        manifest["config"]["threads"] = True
        sidecar.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["select", "--replay", str(sidecar)]) == 2
        assert "argument --threads: must be an integer, got 'True'" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["audit", "probe"])
    def test_commands_that_write_nothing_take_no_replay(self, capsys, subcommand):
        """They leave no run manifest, so there is nothing to replay."""
        assert run([subcommand, "--replay", "run.json"]) == 2
        assert "unrecognized arguments: --replay" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, flag",
        [("select", "--bins"), ("probe", "--train-fraction"), ("stats", "--spread"), ("stats", "--target-datasets")],
    )
    def test_deleted_flags_exit_2_naming_them(self, capsys, subcommand, flag):
        """No caller set these flags; the duration baseline's 20 bins, the probe's 0.8
        train share, the fixture's spread of 0.25 and its 2 target datasets are fixed."""
        assert run([subcommand, flag, "1"]) == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestDefaultThreads:
    """`--threads` defaults to the CPUs this process may run on."""

    def default_threads(self) -> int:
        parser, _ = cli._build_parser()
        return parser.parse_args(["select", "--corpus", "c", "--out", "o"]).threads

    def test_counts_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_cpus() == 2
        assert self.default_threads() == 2

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_cpus() == 3
        assert self.default_threads() == 3


class TestDataErrors:
    def test_missing_corpus_exits_one(self, capsys, tmp_path):
        code = run(["stats", "--corpus", str(tmp_path / "absent")])
        captured = capsys.readouterr()
        assert code == 1
        assert "absent" in captured.err

    def test_malformed_manifest_reports_line(self, capsys, tmp_path):
        (tmp_path / "manifest.jsonl").write_text("not json\n")
        code = run(["stats", "--corpus", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"{tmp_path / 'manifest.jsonl'}: line 1" in captured.err

    @pytest.mark.parametrize("subcommand", ["select", "stats", "probe"])
    def test_manifest_that_is_not_utf8_exits_1_naming_the_line(self, fixture_dirs, tmp_path, capsys, subcommand):
        """Bytes `ff fe` in place of `utt-000003` give one `error:` line naming the file and line 4."""
        corpus, targets = fixture_dirs
        bad = tmp_path / "corpus"
        shutil.copytree(corpus, bad)
        path = bad / "manifest.jsonl"
        path.write_bytes(path.read_bytes().replace(b"utt-000003", b"\xff\xfe"))
        argv = {
            "select": ["--corpus", str(bad), "--targets", str(targets), "--alpha", "0.05", "--out", str(tmp_path / "s.jsonl")],
            "stats": ["--corpus", str(bad)],
            "probe": ["--corpus", str(bad), "--views", "speaker,wavlm"],
        }[subcommand]
        assert run([subcommand, *argv]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: line 4: not valid UTF-8"]

    @pytest.mark.parametrize("subcommand", ["select", "stats"])
    def test_duration_beyond_float_range_exits_1_naming_the_line(self, fixture_dirs, tmp_path, capsys, subcommand):
        """A duration written as 1 and 400 zeros gives one `error:` line naming the file and line 3, and no output."""
        corpus, targets = fixture_dirs
        bad = tmp_path / "corpus"
        shutil.copytree(corpus, bad)
        path = bad / "manifest.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = '{"id": "a", "duration_s": 1' + "0" * 400 + ', "dataset": "x"}\n'
        path.write_text("".join(lines))
        out = tmp_path / "s.jsonl"
        argv = {
            "select": ["--corpus", str(bad), "--targets", str(targets), "--alpha", "0.05", "--out", str(out)],
            "stats": ["--corpus", str(bad)],
        }[subcommand]
        assert run([subcommand, *argv]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: line 3: field 'duration_s' is beyond float range"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]

    def test_bad_target_manifest_line_names_its_file(self, fixture_dirs, tmp_path, capsys):
        """The duration baseline reads every target manifest; the error says which one is bad."""
        corpus, targets = fixture_dirs
        bad = tmp_path / "targets"
        shutil.copytree(targets, bad)
        path = bad / "target-1" / "manifest.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace(", ", " ", 1)
        path.write_text("".join(lines))
        argv = ["--corpus", str(corpus), "--targets", str(bad), "--method", "duration", "--alpha", "0.05"]
        assert run(["select", *argv, "--out", str(tmp_path / "s.jsonl")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: line 3: invalid JSON (Expecting ',' delimiter)"]

    @pytest.mark.parametrize("subcommand", ["select", "project"])
    def test_view_flagged_normalized_with_a_non_unit_row_exits_1(self, fixture_dirs, tmp_path, capsys, subcommand):
        """A view file flagged normalized whose row 5 has norm 2 exits 1 with one
        `error:` line naming the file and the row."""
        corpus, targets = fixture_dirs
        bad = tmp_path / "corpus"
        shutil.copytree(corpus, bad)
        rows = load_view(corpus / "speaker.emb").rows.copy()
        rows[5] *= 2.0
        header = struct.pack("<4sIBQI", b"EMB1", 1, 1, *rows.shape)
        (bad / "speaker.emb").write_bytes(header + rows.astype("<f4").tobytes())
        argv = {
            "select": ["--corpus", str(bad), "--targets", str(targets), "--alpha", "0.05", "--out", str(tmp_path / "s.jsonl")],
            "project": ["--in", str(bad / "speaker.emb"), "--out", str(tmp_path / "p.emb"), "--dim", "16"],
        }[subcommand]
        assert run([subcommand, *argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(bad / "speaker.emb") in err[0] and "row 5" in err[0]

    @pytest.mark.parametrize("subcommand", ["project", "select", "compact-targets"])
    def test_view_with_a_non_finite_entry_exits_1_naming_the_file(self, fixture_dirs, tmp_path, capsys, subcommand):
        """A view file with a NaN at row 7, col 2 exits 1 with one `error:` line naming
        the file and the entry. `select` reads a corpus and a target view of the
        same name, and the bad one is the target's."""
        corpus, targets = fixture_dirs
        source = corpus if subcommand == "project" else targets
        bad = tmp_path / source.name
        shutil.copytree(source, bad)
        path = bad / "speaker.emb" if subcommand == "project" else bad / "target-0" / "speaker.emb"
        rows = load_view(path).rows.copy()
        rows[7, 2] = np.nan
        path.write_bytes(struct.pack("<4sIBQI", b"EMB1", 1, 0, *rows.shape) + rows.astype("<f4").tobytes())
        argv = {
            "project": ["--in", str(path), "--out", str(tmp_path / "p.emb"), "--dim", "16"],
            "select": ["--corpus", str(corpus), "--targets", str(bad), "--alpha", "0.05", "--out", str(tmp_path / "s.jsonl")],
            "compact-targets": ["--targets", str(bad), "--k", "4", "--out", str(tmp_path / "c")],
        }[subcommand]
        assert run([subcommand, *argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(path) in err[0] and "row 7, col 2" in err[0]


def _select(corpus, targets, out, *extra):
    return ["select", "--corpus", str(corpus), "--targets", str(targets), "--batch", "16", "--out", str(out), *extra]


def _without_targets(method):
    def case(corpus, targets, tmp_path, out):
        argv = ["select", "--corpus", str(corpus), "--method", method, "--out", str(out)]
        return argv, 2, f"usage error: argument --targets is required for method {method!r}", None

    return case


def _replay_input_changed(corpus, targets, tmp_path, out):
    copy = tmp_path / "targets"
    shutil.copytree(targets, copy)
    first = tmp_path / "first.jsonl"
    assert run(_select(corpus, copy, first)) == 0
    first.unlink()  # a replay writes the recorded --out again
    changed = copy / "target-1" / "wavlm.emb"
    shutil.copyfile(copy / "target-0" / "wavlm.emb", changed)
    argv = ["select", "--replay", str(tmp_path / "first.jsonl.run.json")]
    return argv, 1, "error: replay input changed since the recorded run", changed


def _no_target_durations(corpus, targets, tmp_path, out):
    bare = tmp_path / "targets"
    shutil.copytree(targets, bare, ignore=shutil.ignore_patterns("manifest.jsonl"))
    argv = _select(corpus, bare, out, "--method", "duration")
    return argv, 1, f"error: {bare}: no dataset manifest with durations found", bare


def _zero_row_corpus(corpus, targets, tmp_path, out):
    empty = tmp_path / "corpus"
    empty.mkdir()
    (empty / "manifest.jsonl").write_bytes(b"")
    for name in ("speaker", "wavlm"):
        (empty / f"{name}.emb").write_bytes(struct.pack("<4sIBQI", b"EMB1", 1, 0, 0, 48))
    return _select(empty, targets, out), 1, "error: no candidates to select from", None


def _empty_manifest(method):
    """The zero-row corpus under `method`: the error names the empty manifest."""

    def case(corpus, targets, tmp_path, out):
        argv, code, message, _ = _zero_row_corpus(corpus, targets, tmp_path, out)
        path = tmp_path / "corpus" / "manifest.jsonl"
        return [*argv, "--method", method], code, f"{message}: {path} is empty", path

    return case


def _target_dataset_lacking_a_view(corpus, targets, tmp_path, out):
    copy = tmp_path / "targets"
    shutil.copytree(targets, copy)
    (copy / "target-1" / "wavlm.emb").unlink()
    return _select(corpus, copy, out), 1, f"error: {copy / 'target-1'}: targets are missing weighted view 'wavlm'", copy / "target-1"


def _empty_targets_directory(corpus, targets, tmp_path, out):
    empty = tmp_path / "targets"
    empty.mkdir()
    return _select(corpus, empty, out), 1, f"error: {empty}: the targets directory holds no view (.emb) file", empty


def _compact_empty_targets_directory(corpus, targets, tmp_path, out):
    empty = tmp_path / "targets"
    empty.mkdir()
    argv = ["compact-targets", "--targets", str(empty), "--k", "4", "--out", str(tmp_path / "compact")]
    return argv, 1, f"error: {empty}: the targets directory holds no view (.emb) file", empty


def _raw_view(path, rows, flag=0):
    path.write_bytes(struct.pack("<4sIBQI", b"EMB1", 1, flag, *rows.shape) + rows.astype("<f4").tobytes())


def _manifest_short_a_line(corpus, targets):
    manifest = corpus / "manifest.jsonl"
    manifest.write_text("".join(manifest.read_text().splitlines(keepends=True)[:-1]))
    path = corpus / "speaker.emb"
    return path, f"{path}: view 'speaker' has 600 rows but the manifest has 599 lines"


def _target_of_other_dims(corpus, targets):
    path = targets / "target-0" / "speaker.emb"
    _raw_view(path, np.ones((60, 5), np.float32))
    return path, f"{path}: the target view has 5 dims, the corpus view 48"


def _target_without_rows(corpus, targets):
    path = targets / "target-0" / "speaker.emb"
    _raw_view(path, np.ones((0, 48), np.float32))
    return path, f"{path}: the target view has no rows"


def _truncated_corpus_view(corpus, targets):
    path = corpus / "speaker.emb"
    path.write_bytes(path.read_bytes()[:-100])
    return path, f"{path}: header declares 600x48 rows (115200 payload bytes) but the file holds 115100"


def _flagged_normalized_not_unit(where):
    def corrupt(corpus, targets):
        path = _view_path(corpus, targets, where)
        rows = load_view(path).rows.copy()
        rows[5] *= 2.0
        _raw_view(path, rows, flag=1)
        return path, f"{path}: view 'speaker' flagged normalized but row 5 has L2 norm 2.000000"

    return corrupt


def _manifest_with_a_bom(corpus, targets):
    path = corpus / "manifest.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return path, f"{path}: line 1: invalid JSON (Unexpected UTF-8 BOM"


def _manifest_total_beyond_float(corpus, targets):
    """Two durations of 1e308, each finite, whose running total passes float range on line 4."""
    path = corpus / "manifest.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    for k in (1, 3):
        lines[k] = json.dumps({**json.loads(lines[k]), "duration_s": 1e308}) + "\n"
    path.write_text("".join(lines))
    return path, f"{path}: line 4: the total duration_s is beyond float range"


def _corpus_without_a_view(corpus, targets):
    for path in corpus.glob("*.emb"):
        path.unlink()
    return corpus, f"{corpus}: the corpus directory holds no view (.emb) file"


def _view_path(corpus, targets, where):
    return {"corpus": corpus, "target": targets / "target-0"}[where] / "speaker.emb"


# a view header fault: (field of the header to set, its value, the message)
_HEADER_FAULTS = {
    "bad-magic": (0, b"NOPE", "not an EMB1 embedding file"),
    "version-2": (1, 2, "unsupported format version 2"),
    "flag-2": (2, 2, "normalized flag must be 0 or 1, got 2"),
    "zero-dims": (4, 0, "header declares zero dimensions"),
}


def _view_header(where, fault):
    def corrupt(corpus, targets):
        path = _view_path(corpus, targets, where)
        field, value, message = _HEADER_FAULTS[fault]
        data = path.read_bytes()
        header = list(struct.unpack("<4sIBQI", data[:21]))
        header[field] = value
        path.write_bytes(struct.pack("<4sIBQI", *header) + data[21:])
        return path, f"{path}: {message}"

    return corrupt


def _inf_entry(where):
    def corrupt(corpus, targets):
        path = _view_path(corpus, targets, where)
        rows = load_view(path).rows.copy()
        rows[7, 2] = np.inf
        _raw_view(path, rows)
        return path, f"{path}: non-finite value at row 7, col 2"

    return corrupt


def _manifest_line(k, rewrite, message):
    """Line k + 1 of the corpus manifest becomes `rewrite(line)`; the error names the file and `message`."""

    def corrupt(corpus, targets):
        path = corpus / "manifest.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[k] = rewrite(lines[k])
        path.write_text("".join(lines))
        return path, f"{path}: {message}"

    return corrupt


def _directory_as_view(where):
    def corrupt(corpus, targets):
        path = {"corpus": corpus, "targets": targets / "target-0"}[where] / "wavlm.emb"
        path.unlink()
        path.mkdir()
        return path, f"[Errno 21] Is a directory: '{path}'"

    return corrupt


def _corrupted(corrupt, subcommand):
    """A case: `subcommand` reading copies of the fixture, one of them corrupted by `corrupt`."""

    def case(corpus, targets, tmp_path, out):
        corpus, targets = shutil.copytree(corpus, tmp_path / "corpus"), shutil.copytree(targets, tmp_path / "targets")
        path, message = corrupt(corpus, targets)
        argv = {
            "select": _select(corpus, targets, out),
            "select-random": [*_select(corpus, targets, out), "--method", "random"],
            "stats": ["stats", "--corpus", str(corpus)],
            "probe": ["probe", "--corpus", str(corpus), "--views", "speaker,wavlm"],
            "project": ["project", "--in", str(corpus / "speaker.emb"), "--out", str(tmp_path / "p.emb"), "--dim", "16"],
            "audit": ["audit", "--hi", str(corpus / "speaker.emb"), "--lo", str(corpus / "wavlm.emb"), "--pairs", "100"],
            "compact-targets": ["compact-targets", "--targets", str(targets), "--k", "4", "--out", str(tmp_path / "c")],
        }[subcommand]
        return argv, 1, f"error: {message}", path

    return case


_CORRUPTIONS = [
    ("manifest-short-a-line", _manifest_short_a_line, ["select", "stats", "probe"]),
    ("target-of-other-dims", _target_of_other_dims, ["select"]),
    ("target-without-rows", _target_without_rows, ["select", "compact-targets"]),
    ("truncated-corpus-view", _truncated_corpus_view, ["select", "probe", "project"]),
    ("corpus-flagged-normalized-not-unit", _flagged_normalized_not_unit("corpus"), ["select", "probe", "project", "audit"]),
    ("target-flagged-normalized-not-unit", _flagged_normalized_not_unit("target"), ["select", "compact-targets"]),
    ("manifest-with-a-bom", _manifest_with_a_bom, ["select", "stats", "probe"]),
    ("manifest-total-beyond-float", _manifest_total_beyond_float, ["select", "select-random", "stats", "probe"]),
    ("corpus-view-is-a-directory", _directory_as_view("corpus"), ["select", "stats", "probe"]),
    ("target-view-is-a-directory", _directory_as_view("targets"), ["compact-targets"]),
    ("corpus-without-a-view", _corpus_without_a_view, ["select", "stats", "probe"]),
    *[
        (f"{where}-view-{fault}", _view_header(where, fault), subcommands)
        for where, subcommands in [("corpus", ["select", "probe", "project", "audit"]), ("target", ["select", "compact-targets"])]
        for fault in _HEADER_FAULTS
    ],
    ("corpus-view-inf-entry", _inf_entry("corpus"), ["select", "probe", "project", "audit"]),
    ("target-view-inf-entry", _inf_entry("target"), ["select", "compact-targets"]),
    *[
        (f"manifest-{fault}", _manifest_line(k, rewrite, message), ["select", "stats", "select-random"])
        for fault, k, rewrite, message in [
            ("blank-line", 2, lambda line: "\n" + line, "line 3: blank line"),
            ("nul", 3, lambda line: line.replace("utt-", "utt-\0"), "line 4: invalid JSON (Invalid control character"),
            ("line-not-an-object", 2, lambda line: "[1, 2]\n", "line 3: record must be a JSON object"),
            ("duplicate-id", 2, lambda line: line.replace("utt-000002", "utt-000000"), "duplicate utterance id 'utt-000000' on line 3"),
            ("zero-duration", 2, lambda line: json.dumps({**json.loads(line), "duration_s": 0}) + "\n", "duration_s must be > 0, got 0 on line 3"),
            ("id-a-number", 2, lambda line: json.dumps({**json.loads(line), "id": 5}) + "\n", "line 3: field 'id' must be a nonempty string"),
            ("duration-a-string", 2, lambda line: json.dumps({**json.loads(line), "duration_s": "3"}) + "\n", "line 3: field 'duration_s' must be a number"),
            ("dataset-null", 2, lambda line: json.dumps({**json.loads(line), "dataset": None}) + "\n", "line 3: field 'dataset' must be a string"),
        ]
    ],
]


class TestErrorContract:
    """One table of error paths: each exits with its code and one stderr line,
    `error:` or `usage error:`, naming the path where there is one, with no
    traceback and no output file or sidecar left behind."""

    @pytest.mark.parametrize(
        "case",
        [
            pytest.param(_without_targets("mmr"), id="mmr-without-targets"),
            pytest.param(_without_targets("duration"), id="duration-without-targets"),
            pytest.param(_replay_input_changed, id="replay-input-changed"),
            pytest.param(_no_target_durations, id="duration-without-target-manifests"),
            pytest.param(_zero_row_corpus, id="zero-row-corpus"),
            *[pytest.param(_empty_manifest(method), id=f"empty-manifest-{method}") for method in ("mmr", "random", "duration")],
            pytest.param(_target_dataset_lacking_a_view, id="target-dataset-lacking-a-view"),
            pytest.param(_empty_targets_directory, id="empty-targets-directory"),
            pytest.param(_compact_empty_targets_directory, id="compact-empty-targets-directory"),
            *[
                pytest.param(_corrupted(corrupt, subcommand), id=f"{name}-{subcommand}")
                for name, corrupt, subcommands in _CORRUPTIONS
                for subcommand in subcommands
            ],
        ],
    )
    def test_error_path(self, fixture_dirs, tmp_path, capsys, case):
        corpus, targets = fixture_dirs
        out = tmp_path / "s.jsonl"
        argv, code, message, path = case(corpus, targets, tmp_path, out)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message)
        assert path is None or str(path) in lines[0]
        assert sorted(tmp_path.rglob("*")) == before


class TestWarnings:
    """A warning prints as one `warning:` line on stderr, and the run exits 0."""

    def test_small_pool(self, fixture_dirs, tmp_path, capsys):
        corpus, targets = fixture_dirs
        capsys.readouterr()
        assert run(_select(corpus, targets, tmp_path / "s.jsonl", "--alpha", "1", "--rho", "0.01")) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: prefilter pool (6) is below twice the expected pick count (600); selection may exhaust it"
        ]

    def test_zero_row_in_a_corpus_view_names_its_file(self, fixture_dirs, tmp_path, capsys):
        """A corpus and a target view may share a name: the warning names the file."""
        corpus, targets = fixture_dirs
        corpus = shutil.copytree(corpus, tmp_path / "corpus")
        path = corpus / "speaker.emb"
        rows = load_view(path).rows.copy()
        rows[3] = 0.0
        _raw_view(path, rows)
        capsys.readouterr()
        assert run(_select(corpus, targets, tmp_path / "s.jsonl", "--alpha", "0.05")) == 0
        assert capsys.readouterr().err.splitlines() == [f"warning: {path}: view 'speaker': 1 zero rows left unnormalized"]


class TestStats:
    def test_summary_fields(self, fixture_dirs, capsys):
        corpus, _ = fixture_dirs
        assert run(["stats", "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "utterances: 600" in out
        assert "total-hours:" in out
        assert "speaker  48 dims" in out and "wavlm  48 dims" in out
        assert "web-a" in out

    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                ["--utterances", "7", "--target-rows", "3", "--out", "x"],
                "stats without --make-fixture does not take --out, --utterances, --target-rows",
            ),
            (["--make-fixture", "--out", "x", "--targets-out", "y"], "stats with --make-fixture does not take --corpus"),
        ],
        ids=["summary", "make-fixture"],
    )
    def test_flags_of_the_other_mode_exit_2_naming_them(self, fixture_dirs, tmp_path, capsys, monkeypatch, extra, message):
        """A summary takes only --corpus, a fixture every flag but --corpus; nothing is written."""
        corpus, _ = fixture_dirs
        monkeypatch.chdir(tmp_path)
        assert run(["stats", "--corpus", str(corpus), *extra]) == 2
        assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]
        assert list(tmp_path.iterdir()) == []

    def test_views_show_their_stored_flag(self, tmp_path, capsys):
        """A view stored un-normalized is reported raw, though selection would normalize it."""
        records = [{"id": f"u{i}", "duration_s": 1.0, "dataset": "a"} for i in range(5)]
        (tmp_path / "manifest.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        rows = np.arange(1, 21, dtype=np.float32).reshape(5, 4)
        save_view(EmbeddingView("raw", 4, rows, normalized=False), tmp_path / "raw.emb")
        save_view(EmbeddingView("unit", 4, rows / np.linalg.norm(rows, axis=1, keepdims=True), normalized=True), tmp_path / "unit.emb")
        assert run(["stats", "--corpus", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "  raw  4 dims  raw\n" in out
        assert "  unit  4 dims  normalized\n" in out

    def test_dataset_lines_match_per_tag_sums(self, fixture_dirs, capsys):
        """The per-dataset lines equal a per-tag masked sum of the durations."""
        corpus, _ = fixture_dirs
        assert run(["stats", "--corpus", str(corpus)]) == 0
        lines = capsys.readouterr().out.splitlines()
        manifest = load_manifest(corpus / "manifest.jsonl")
        tags = np.array(manifest.datasets)
        expected = []
        for tag in sorted(set(manifest.datasets)):
            mask = tags == tag
            expected.append(f"  {tag}  {int(mask.sum())}  {manifest.durations[mask].sum() / 3600.0:.2f}h")
        start = lines.index("datasets:") + 1
        assert lines[start : start + len(expected)] == expected
        assert lines[start + len(expected)] == "views:"


    def test_reads_only_view_headers(self, fixture_dirs, capsys, monkeypatch):
        """No view payload is read: every view line prints with the block reader
        (`ViewFile.blocks`, `ViewFile.take`) and `np.fromfile` unusable."""
        corpus, _ = fixture_dirs

        def no_payload(*args, **kwargs):
            raise AssertionError("stats read a view payload")

        monkeypatch.setattr(np, "fromfile", no_payload)
        monkeypatch.setattr(store.ViewFile, "blocks", no_payload)
        monkeypatch.setattr(store.ViewFile, "take", no_payload)
        assert run(["stats", "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "  speaker  48 dims  normalized\n" in out
        assert "  wavlm  48 dims  normalized\n" in out

    @pytest.mark.parametrize(
        "header, message",
        [
            (struct.pack("<4sIBQI", b"EMB1", 1, 0, 4, 2), "has 4 rows but the manifest has 5 lines"),
            (struct.pack("<4sIBQI", b"EMB1", 1, 0, 5, 3), "but the file holds 32"),
            (struct.pack("<4sIBQI", b"EMB1", 1, 0, 5, 0), "zero dimensions"),
            (struct.pack("<4sIBQI", b"EMB1", 1, 2, 5, 2), "normalized flag must be 0 or 1"),
            (struct.pack("<4sIBQI", b"NOPE", 1, 0, 5, 2), "not an EMB1 embedding file"),
        ],
        ids=["rows-not-lines", "payload-size", "zero-dims", "bad-flag", "bad-magic"],
    )
    def test_rejects_a_bad_view_header(self, tmp_path, capsys, header, message):
        records = [{"id": f"u{i}", "duration_s": 1.0, "dataset": "a"} for i in range(5)]
        (tmp_path / "manifest.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        (tmp_path / "v.emb").write_bytes(header + np.ones(8, dtype="<f4").tobytes())
        assert run(["stats", "--corpus", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err


class TestProjectAndAudit:
    def test_project_then_audit(self, fixture_dirs, tmp_path, capsys):
        corpus, _ = fixture_dirs
        out = tmp_path / "speaker16.emb"
        assert run(
            ["project", "--in", str(corpus / "speaker.emb"), "--out", str(out), "--dim", "16", "--seed", "3"]
        ) == 0
        assert out.exists() and (tmp_path / "speaker16.emb.run.json").exists()
        capsys.readouterr()
        assert run(
            ["audit", "--hi", str(corpus / "speaker.emb"), "--lo", str(out), "--pairs", "20000", "--seed", "1"]
        ) == 0
        corr = float(capsys.readouterr().out.strip())
        assert 0.5 < corr <= 1.0  # clustered fixture data projects well

    def test_fault_in_a_later_block_leaves_nothing(self, fixture_dirs, tmp_path, capsys, monkeypatch):
        """With blocks of 10 rows, a NaN at row 437 of the input stops the streamed
        write after 43 blocks: exit 1, one line naming the file and the row, and no
        output, temp file or sidecar."""
        corpus, _ = fixture_dirs
        monkeypatch.setattr(store, "_BLOCK_BYTES", 10 * 48 * 4)
        path = tmp_path / "in" / "speaker.emb"
        path.parent.mkdir()
        rows = load_view(corpus / "speaker.emb").rows.copy()
        rows[437, 3] = np.nan
        _raw_view(path, rows)
        out, written, check = tmp_path / "out", [], store._check_block

        def check_and_count(rows, lo, where, normalized):
            if where.parent == out:
                written.append(lo)
            return check(rows, lo, where, normalized)

        monkeypatch.setattr(store, "_check_block", check_and_count)
        assert run(["project", "--in", str(path), "--out", str(out / "p.emb"), "--dim", "16"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: non-finite value at row 437, col 3 in view 'speaker'"]
        assert written == list(range(0, 430, 10))
        assert list(out.iterdir()) == []

    def test_in_place_writes_the_bytes_of_a_separate_output(self, fixture_dirs, tmp_path, capsys):
        """`--in V --out V` streams from the file it replaces and writes the bytes of a
        run to another path; its run.json replays once V holds the recorded input again."""
        corpus, _ = fixture_dirs
        view, apart = tmp_path / "v.emb", tmp_path / "apart.emb"
        shutil.copyfile(corpus / "speaker.emb", view)
        flags = ["--dim", "16", "--seed", "3"]
        assert run(["project", "--in", str(view), "--out", str(apart), *flags]) == 0
        assert run(["project", "--in", str(view), "--out", str(view), *flags]) == 0
        assert view.read_bytes() == apart.read_bytes()
        manifest = json.loads((tmp_path / "v.emb.run.json").read_text())
        assert manifest["inputs"][str(view)]["sha256"] == sha256(corpus / "speaker.emb")
        assert manifest["outputs"][str(view)]["sha256"] == sha256(apart)
        shutil.copyfile(corpus / "speaker.emb", view)
        capsys.readouterr()
        assert run(["project", "--replay", str(tmp_path / "v.emb.run.json")]) == 0
        assert "outputs match recorded digests" in capsys.readouterr().out
        assert view.read_bytes() == apart.read_bytes()

    def test_project_dim_larger_than_input_is_data_error(self, fixture_dirs, tmp_path, capsys):
        corpus, _ = fixture_dirs
        code = run(
            ["project", "--in", str(corpus / "speaker.emb"), "--out", str(tmp_path / "x.emb"), "--dim", "128"]
        )
        assert code == 1
        assert "exceeds" in capsys.readouterr().err


class TestCompactTargets:
    def test_report_and_output_layout(self, fixture_dirs, tmp_path, capsys):
        _, targets = fixture_dirs
        out = tmp_path / "compact"
        assert run(
            ["compact-targets", "--targets", str(targets), "--k", "20", "--seed", "5", "--out", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "target-0/speaker: 60 -> 20 rows" in text
        assert (out / "report.txt").exists()
        assert (out / "run.json").exists()
        assert (out / "target-0" / "speaker.emb").exists()
        assert (out / "target-1" / "wavlm.emb").exists()


class TestSelect:
    def select_args(self, corpus, targets, out, extra=()):
        return [
            "select",
            "--corpus",
            str(corpus),
            "--targets",
            str(targets),
            "--alpha",
            "0.05",
            "--rho",
            "0.3",
            "--batch",
            "16",
            "--seed",
            "9",
            "--out",
            str(out),
            *extra,
        ]

    def test_output_schema(self, fixture_dirs, tmp_path):
        corpus, targets = fixture_dirs
        out = tmp_path / "sel.jsonl"
        assert run(self.select_args(corpus, targets, out)) == 0
        lines = out.read_text().strip().split("\n")
        footer = json.loads(lines[-1])
        assert set(footer) == {"budget_s", "total_selected_s", "pool_size", "rounds", "exhausted"}
        assert footer["total_selected_s"] >= footer["budget_s"]
        first = json.loads(lines[0])
        assert set(first) == {"rank", "id", "relevance", "diversity", "mmr", "cumulative_duration_s"}
        assert first["rank"] == 1 and first["id"].startswith("utt-")
        ranks = [json.loads(line)["rank"] for line in lines[:-1]]
        assert ranks == list(range(1, len(ranks) + 1))

    def test_threads_do_not_change_bytes(self, fixture_dirs, tmp_path):
        corpus, targets = fixture_dirs
        digests = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"sel-{threads}.jsonl"
            assert run(self.select_args(corpus, targets, out, ("--threads", threads))) == 0
            digests.append(sha256(out))
        assert len(set(digests)) == 1

    def test_random_and_duration_methods(self, fixture_dirs, tmp_path):
        corpus, targets = fixture_dirs
        for method in ("random", "duration"):
            out = tmp_path / f"{method}.jsonl"
            assert run(
                self.select_args(corpus, targets, out, ("--method", method))
            ) == 0
            lines = out.read_text().strip().split("\n")
            first = json.loads(lines[0])
            assert first["relevance"] == 0.0 and first["mmr"] == 0.0

    def test_weights_subset_and_aggregate(self, fixture_dirs, tmp_path):
        corpus, targets = fixture_dirs
        out = tmp_path / "w.jsonl"
        assert run(
            self.select_args(
                corpus, targets, out,
                ("--weights", "speaker=0.7,wavlm=0.3", "--aggregate", "mean"),
            )
        ) == 0
        assert out.exists()

    def test_run_manifest_contents(self, fixture_dirs, tmp_path):
        corpus, targets = fixture_dirs
        out = tmp_path / "m.jsonl"
        assert run(self.select_args(corpus, targets, out)) == 0
        manifest = json.loads((tmp_path / "m.jsonl.run.json").read_text())
        assert manifest["subcommand"] == "select"
        assert manifest["config"]["lambda"] == 0.7  # default materialized
        assert manifest["config"]["threads"] >= 1
        assert str(out) in manifest["outputs"]
        assert manifest["outputs"][str(out)]["sha256"] == sha256(out)
        assert any("manifest.jsonl" in p for p in manifest["inputs"])
        assert "total_s" in manifest["phases"]

    @pytest.mark.parametrize(("method", "loader"), [("mmr", "load_targets"), ("duration", "load_target_durations")])
    def test_target_loading_counts_as_load(self, fixture_dirs, tmp_path, monkeypatch, method, loader):
        """Reading the targets is timed in `load_s`, not in `select_s`."""
        corpus, targets = fixture_dirs
        original = getattr(cli, loader)

        def slow(*args, **kwargs):
            time.sleep(0.5)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, loader, slow)
        out = tmp_path / "sel.jsonl"
        assert run(self.select_args(corpus, targets, out, ("--method", method))) == 0
        phases = json.loads((tmp_path / "sel.jsonl.run.json").read_text())["phases"]
        assert phases["load_s"] >= 0.5
        assert phases["select_s"] < 0.5

    def test_run_manifest_records_the_blas_threads(self, fixture_dirs, tmp_path):
        corpus, targets = fixture_dirs
        expected = {"mmr": blas_thread_cap(1), "random": None}
        for method, threads in expected.items():
            out = tmp_path / f"{method}.jsonl"
            args = ("--method", method, "--threads", "1")
            assert run(self.select_args(corpus, targets, out, args)) == 0
            manifest = json.loads((tmp_path / f"{method}.jsonl.run.json").read_text())
            env = manifest["environment"]
            assert env == {"numpy": np.__version__, "blas_corename": blas_corename(), "blas_threads": threads}
            assert "environment" not in manifest["config"]

    def test_manifests_identical_except_wall_clock(self, fixture_dirs, tmp_path):
        corpus, targets = fixture_dirs
        manifests = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.jsonl"
            assert run(self.select_args(corpus, targets, out)) == 0
            data = json.loads((tmp_path / f"{tag}.jsonl.run.json").read_text())
            data.pop("phases")
            data["config"].pop("out")
            data["outputs"] = {os.path.basename(k): v for k, v in data["outputs"].items()}
            manifests.append(data)
        manifests[0]["outputs"] = {"x": manifests[0]["outputs"]["a.jsonl"]}
        manifests[1]["outputs"] = {"x": manifests[1]["outputs"]["b.jsonl"]}
        assert manifests[0] == manifests[1]


def test_select_peak_stays_below_the_corpus_view(tmp_path):
    """`select` on a 100,000 x 512 corpus view (205 MB) peaks below the view's
    size: the screen reads it a block at a time and only survivors are held."""
    corpus, targets = tmp_path / "corpus", tmp_path / "targets"
    fixture = ["stats", "--make-fixture", "--out", str(corpus), "--targets-out", str(targets)]
    assert run([*fixture, "--utterances", "100000", "--views", "v:512", "--seed", "3"]) == 0
    peak = cli_own_peak(["select", "--corpus", str(corpus), "--targets", str(targets), "--out", str(tmp_path / "s.jsonl")])
    view = (corpus / "v.emb").stat().st_size
    assert view == 21 + 100_000 * 512 * 4
    assert peak < view


def test_project_and_audit_peaks_do_not_grow_with_the_view(tmp_path):
    """`project` and `audit` at 10,000 and 40,000 rows x D 1024 (41 and 164 MB
    views): the larger run's own peak is within 30 MB of the smaller run's, as
    neither holds a view whole."""
    peaks = {}
    for n in (10_000, 40_000):
        corpus = tmp_path / str(n)
        fixture = ["stats", "--make-fixture", "--out", str(corpus), "--targets-out", str(tmp_path / f"t{n}")]
        assert run([*fixture, "--utterances", str(n), "--views", "v:1024", "--target-rows", "10"]) == 0
        hi, lo = corpus / "v.emb", corpus / "v256.emb"
        peaks[n] = (
            cli_own_peak(["project", "--in", str(hi), "--out", str(lo), "--dim", "256"]),
            cli_own_peak(["audit", "--hi", str(hi), "--lo", str(lo)]),
        )
    for small, large in zip(peaks[10_000], peaks[40_000]):
        assert large - small < 30 * 2**20, peaks


class TestReplay:
    def test_replay_reproduces_digest(self, fixture_dirs, tmp_path, capsys):
        corpus, targets = fixture_dirs
        out = tmp_path / "r.jsonl"
        args = TestSelect().select_args(corpus, targets, out)
        assert run(args) == 0
        original = sha256(out)
        capsys.readouterr()
        assert run(["select", "--replay", str(tmp_path / "r.jsonl.run.json")]) == 0
        assert "outputs match recorded digests" in capsys.readouterr().out
        assert sha256(out) == original

    def test_replay_missing_input_names_path(self, fixture_dirs, tmp_path, capsys):
        corpus, targets = fixture_dirs
        out = tmp_path / "r2.jsonl"
        assert run(TestSelect().select_args(corpus, targets, out)) == 0
        manifest_path = tmp_path / "r2.jsonl.run.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["inputs"]["/nowhere/gone.emb"] = {"sha256": "0" * 64, "bytes": 1}
        manifest_path.write_text(json.dumps(manifest))
        code = run(["select", "--replay", str(manifest_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "/nowhere/gone.emb" in captured.err

    def test_replay_hashes_each_input_once(self, fixture_dirs, tmp_path, monkeypatch):
        """The digest a replay compares is the one taken as the run reads: the bytes
        through sha256 are those of the recorded inputs and outputs, each once."""
        corpus, targets = fixture_dirs
        out = tmp_path / "h.jsonl"
        assert run(TestSelect().select_args(corpus, targets, out)) == 0
        sidecar = tmp_path / "h.jsonl.run.json"
        recorded = json.loads(sidecar.read_text())
        hashed, sha256_of = [], hashlib.sha256

        class Counted:
            def __init__(self, data=b""):
                self._digest = sha256_of()
                self.update(data)

            def update(self, data):
                hashed.append(memoryview(data).nbytes)
                self._digest.update(data)

            def hexdigest(self):
                return self._digest.hexdigest()

        monkeypatch.setattr(hashlib, "sha256", Counted)
        assert run(["select", "--replay", str(sidecar)]) == 0
        entries = [*recorded["inputs"].values(), *recorded["outputs"].values()]
        assert sum(hashed) == sum(entry["bytes"] for entry in entries)

    def test_input_changed_after_the_replay_started_exits_1(self, fixture_dirs, tmp_path, monkeypatch, capsys):
        """An input is checked where the run reads it: a target view swapped after the
        replay started fails it naming that view, and every file keeps its bytes."""
        corpus, targets = fixture_dirs
        copy = tmp_path / "targets"
        shutil.copytree(targets, copy)
        assert run(TestSelect().select_args(corpus, copy, tmp_path / "w.jsonl")) == 0
        changed, load_targets = copy / "target-1" / "wavlm.emb", cli.load_targets

        def swap_then_load(*args, **kwargs):
            shutil.copyfile(copy / "target-0" / "wavlm.emb", changed)
            return load_targets(*args, **kwargs)

        monkeypatch.setattr(cli, "load_targets", swap_then_load)
        before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        capsys.readouterr()
        assert run(["select", "--replay", str(tmp_path / "w.jsonl.run.json")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: replay input changed since the recorded run: {changed}"]
        assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before

    def test_changed_project_input_leaves_no_file(self, fixture_dirs, tmp_path, capsys):
        """`project` streams its input into the output's temp file: an input whose digest
        changed fails the replay as its last block is read, and the temp file goes."""
        corpus, _ = fixture_dirs
        view, out = tmp_path / "v.emb", tmp_path / "p.emb"
        shutil.copyfile(corpus / "speaker.emb", view)
        assert run(["project", "--in", str(view), "--out", str(out), "--dim", "16"]) == 0
        shutil.copyfile(corpus / "wavlm.emb", view)  # the same shape, other rows
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        assert run(["project", "--replay", str(tmp_path / "p.emb.run.json")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: replay input changed since the recorded run: {view}"]
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize(
        "edit, error",
        [
            pytest.param(
                lambda text: text.replace('"duration_s": ', '"duration_s": 1', 1),
                "replay input changed since the recorded run: {path}",
                id="duration-edited",
            ),
            pytest.param(lambda text: text + "\n", "{path}: line 601: blank line", id="blank-line"),
        ],
    )
    def test_changed_manifest_is_checked_as_it_is_read(self, fixture_dirs, tmp_path, capsys, edit, error):
        """A manifest is hashed as it is parsed, like a view: a replay whose manifest changed
        but still parses fails on its digest, one that no longer parses fails on that fault,
        each naming the file, and no file is written."""
        corpus, targets = fixture_dirs
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        assert run(TestSelect().select_args(copy, targets, tmp_path / "m.jsonl")) == 0
        manifest = copy / "manifest.jsonl"
        manifest.write_text(edit(manifest.read_text(encoding="utf-8")), encoding="utf-8")
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        capsys.readouterr()
        assert run(["select", "--replay", str(tmp_path / "m.jsonl.run.json")]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: " + error.format(path=manifest)]
        assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before

    @pytest.mark.parametrize(
        "kind", ["project", "compact-targets", "select-mmr", "select-random", "select-duration"]
    )
    def test_round_trip(self, fixture_dirs, tmp_path, capsys, kind):
        """A run's sidecar replays with exit 0 and reproduces its output digests."""
        corpus, targets = fixture_dirs
        if kind == "project":
            out = tmp_path / "p.emb"
            argv = ["project", "--in", str(corpus / "speaker.emb"), "--out", str(out), "--dim", "16"]
            sidecar = tmp_path / "p.emb.run.json"
        elif kind == "compact-targets":
            out = tmp_path / "compact"
            argv = ["compact-targets", "--targets", str(targets), "--k", "20", "--out", str(out)]
            sidecar = out / "run.json"
        else:
            out = tmp_path / "s.jsonl"
            argv = TestSelect().select_args(corpus, targets, out, ("--method", kind.split("-")[1]))
            sidecar = tmp_path / "s.jsonl.run.json"
        assert run(argv) == 0
        recorded = json.loads(sidecar.read_text())
        assert recorded["outputs"]
        capsys.readouterr()
        assert run([argv[0], "--replay", str(sidecar)]) == 0
        assert "outputs match recorded digests" in capsys.readouterr().out
        for path, entry in recorded["outputs"].items():
            assert sha256(Path(path)) == entry["sha256"]

    def test_replays_a_manifest_with_the_earlier_select_keys(self, fixture_dirs, tmp_path, capsys):
        """A select manifest in the earlier layout, with a `normalize` key and every
        file under the input directories recorded, still replays."""
        corpus, targets = fixture_dirs
        out = tmp_path / "earlier.jsonl"
        assert run(TestSelect().select_args(corpus, targets, out)) == 0
        digest = sha256(out)
        config = {
            "corpus": str(corpus), "targets": str(targets), "method": "mmr", "lambda": 0.7,
            "alpha": 0.05, "rho": 0.3, "batch": 16, "weights": None, "aggregate": "max",
            "seed": 9, "bins": 20, "out": str(out), "threads": 2, "normalize": True,
        }  # fmt: skip
        inputs = {
            str(path): {"sha256": sha256(path), "bytes": path.stat().st_size}
            for root in (corpus, targets)
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }
        manifest = {
            "tool": "corpus-select", "version": "0.1.0", "subcommand": "select",
            "config": config, "inputs": inputs,
            "outputs": {str(out): {"sha256": digest, "bytes": out.stat().st_size}},
            "phases": {"total_s": 1.0},
        }  # fmt: skip
        path = tmp_path / "earlier.run.json"
        path.write_text(json.dumps(manifest))
        out.unlink()
        capsys.readouterr()
        assert run(["select", "--replay", str(path)]) == 0
        assert "outputs match recorded digests" in capsys.readouterr().out
        assert sha256(out) == digest

    def test_failed_replay_keeps_its_manifest(self, fixture_dirs, tmp_path, capsys):
        """A replay whose outputs differ exits 1 and leaves the manifest as it was,
        so replaying it again fails again."""
        corpus, targets = fixture_dirs
        out = tmp_path / "f.jsonl"
        assert run(TestSelect().select_args(corpus, targets, out, ("--method", "random"))) == 0
        sidecar = tmp_path / "f.jsonl.run.json"
        manifest = json.loads(sidecar.read_text())
        manifest["outputs"][str(out)]["sha256"] = "0" * 64
        sidecar.write_text(json.dumps(manifest))
        recorded = sidecar.read_bytes()
        for _ in range(2):
            assert run(["select", "--replay", str(sidecar)]) == 1
            assert "different digest" in capsys.readouterr().err
            assert sidecar.read_bytes() == recorded

    def test_failed_replay_leaves_the_output_as_it_was(self, fixture_dirs, tmp_path, capsys):
        """A replay whose recorded alpha was changed writes other bytes: it exits 1
        naming the output, and every file keeps its bytes, with no temp file left."""
        corpus, targets = fixture_dirs
        out = tmp_path / "a.jsonl"
        assert run(TestSelect().select_args(corpus, targets, out)) == 0
        sidecar = tmp_path / "a.jsonl.run.json"
        manifest = json.loads(sidecar.read_text())
        manifest["config"]["alpha"] = 0.1
        sidecar.write_text(json.dumps(manifest))
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        assert run(["select", "--replay", str(sidecar)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: replay produced a different digest for {out}: ")
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize(
        "text",
        [
            "not json {",
            "\udcff",
            "[1, 2]",
            '{"subcommand": "select"}',
            '{"subcommand": "select", "config": [1]}',
            '{"subcommand": "select", "config": {}, "inputs": ["a.emb"]}',
            '{"subcommand": "select", "config": {}, "inputs": {"a.emb": {"bytes": 1}}}',
            '{"subcommand": "select", "config": {}, "outputs": {"o.jsonl": "0000"}}',
            '{"subcommand": "select", "config": {}, "outputs": {"o.jsonl": {"sha256": 0}}}',
        ],
    )
    def test_malformed_manifest_exits_1_naming_it(self, tmp_path, capsys, text):
        """A replay of a file that is not a run manifest exits 1 with the path in
        the message and writes nothing."""
        path = tmp_path / "bad.run.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert run(["select", "--replay", str(path)]) == 1
        captured = capsys.readouterr()
        assert str(path) in captured.err and not captured.out
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == text.encode("utf-8", "surrogateescape")

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--out", "other.jsonl", "--alpha", "0.5"], ["--out", "--alpha"]),
            (["--threads=1"], ["--threads"]),
            (["--lambda", "0.7"], ["--lambda"]),  # the recorded value
        ],
    )
    def test_other_flags_exit_2_naming_them(self, fixture_dirs, tmp_path, capsys, monkeypatch, extra, named):
        """A flag given with --replay, even at its recorded value, exits 2 naming
        it, before any input is hashed and with nothing written."""
        corpus, targets = fixture_dirs
        assert run(TestSelect().select_args(corpus, targets, tmp_path / "s.jsonl")) == 0
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(store, "_record_read", lambda *args: pytest.fail("inputs hashed"))
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        assert run(["select", "--replay", "s.jsonl.run.json", *extra]) == 2
        captured = capsys.readouterr()
        assert all(flag in captured.err for flag in named) and not captured.out
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_replay_wrong_subcommand(self, fixture_dirs, tmp_path, capsys):
        corpus, targets = fixture_dirs
        out = tmp_path / "r3.jsonl"
        assert run(TestSelect().select_args(corpus, targets, out)) == 0
        code = run(["project", "--replay", str(tmp_path / "r3.jsonl.run.json")])
        assert code == 2
        assert "records subcommand 'select', not 'project'" in capsys.readouterr().err


class TestViewOrder:
    """The order `--weights` lists the views in sets nothing: views fuse in name order."""

    @pytest.fixture(scope="class")
    def three_views(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("three-views")
        corpus, targets = root / "corpus", root / "targets"
        fixture = ["stats", "--make-fixture", "--out", str(corpus), "--targets-out", str(targets)]
        views = ["--views", "speaker:32,wavlm:32,sbert:24", "--clusters", "8", "--target-rows", "60"]
        assert run([*fixture, "--utterances", "600", *views, "--seed", "31"]) == 0
        return corpus, targets

    @pytest.mark.parametrize("aggregate", ["max", "mean"])
    def test_permuted_weights_write_the_same_bytes(self, three_views, tmp_path, aggregate):
        corpus, targets = three_views
        digests = set()
        for k, order in enumerate(itertools.permutations(["speaker=0.33", "wavlm=0.33", "sbert=0.34"])):
            out = tmp_path / f"s{k}.jsonl"
            assert run(_select(corpus, targets, out, "--weights", ",".join(order), "--aggregate", aggregate)) == 0
            digests.add(sha256(out))
        assert len(digests) == 1

    def test_replay_of_unsorted_weights_exits_0(self, three_views, tmp_path, capsys):
        """run.json records the weights with sorted keys; the replay writes the recorded bytes."""
        corpus, targets = three_views
        out = tmp_path / "s.jsonl"
        assert run(_select(corpus, targets, out, "--weights", "speaker=0.33,wavlm=0.33,sbert=0.34")) == 0
        capsys.readouterr()
        assert run(["select", "--replay", str(tmp_path / "s.jsonl.run.json")]) == 0
        assert "outputs match recorded digests" in capsys.readouterr().out


def test_readme_walkthrough_replays(tmp_path, monkeypatch, capsys):
    """The README's CLI walkthrough, with its own flags at small sizes, runs end to end,
    and its project, compact-targets and select runs replay with exit 0."""
    monkeypatch.chdir(tmp_path)

    def replay(subcommand, sidecar):
        capsys.readouterr()
        assert run([subcommand, "--replay", sidecar]) == 0
        assert "outputs match recorded digests" in capsys.readouterr().out

    assert run(
        [
            "stats", "--make-fixture", "--out", "fix/corpus", "--targets-out", "fix/targets",
            "--utterances", "600", "--views", "speaker:512,wavlm:512,sbert:384",
            "--clusters", "10", "--target-rows", "300", "--seed", "7",
        ]
    ) == 0  # fmt: skip
    assert run(["stats", "--corpus", "fix/corpus"]) == 0
    project = ["project", "--in", "fix/corpus/speaker.emb", "--out", "fix/corpus/speaker256.emb"]
    assert run([*project, "--dim", "256", "--seed", "11"]) == 0
    replay("project", "fix/corpus/speaker256.emb.run.json")  # before its input is removed
    audit = ["audit", "--hi", "fix/corpus/speaker.emb", "--lo", "fix/corpus/speaker256.emb"]
    assert run([*audit, "--pairs", "100000", "--seed", "1"]) == 0
    os.remove("fix/corpus/speaker.emb")
    for d in ("fix/targets/target-0", "fix/targets/target-1"):
        assert run(["project", "--in", f"{d}/speaker.emb", "--out", f"{d}/speaker256.emb", "--dim", "256", "--seed", "11"]) == 0
        os.remove(f"{d}/speaker.emb")
    compact = ["compact-targets", "--targets", "fix/targets", "--k", "40", "--seed", "3", "--out", "fix/targets-compact"]
    assert run(compact) == 0
    assert run(
        [
            "select", "--corpus", "fix/corpus", "--targets", "fix/targets-compact",
            "--method", "mmr", "--lambda", "0.7", "--alpha", "0.05", "--rho", "0.15", "--batch", "1024",
            "--weights", "speaker256=0.33,wavlm=0.33,sbert=0.34", "--aggregate", "max",
            "--seed", "1", "--out", "selection.jsonl",
        ]
    ) == 0  # fmt: skip
    assert run(["probe", "--corpus", "fix/corpus", "--views", "speaker256,wavlm,sbert", "--clusters", "10", "--seed", "2"]) == 0
    replay("compact-targets", "fix/targets-compact/run.json")
    replay("select", "selection.jsonl.run.json")


_PATH = st.text(max_size=8)
_NAME = st.text(st.characters(exclude_categories=("C", "Z"), exclude_characters=",="), min_size=1, max_size=4)
_POSITIVE = st.integers(1, 2**31)
_SEED = st.integers(0, 2**64 - 1)
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True)
_WEIGHTS = st.dictionaries(_NAME, st.floats(0.0, 1e9), min_size=1, max_size=3).filter(lambda w: any(w.values()))
# per subcommand, the flags it needs and the optional ones, each drawn as the value typed after `=`
_RUN_FLAGS = {
    "project": ({"--in": _PATH, "--out": _PATH}, {"--dim": _POSITIVE, "--seed": _SEED}),
    "audit": ({"--hi": _PATH, "--lo": _PATH}, {"--pairs": _POSITIVE, "--seed": _SEED}),
    "compact-targets": ({"--targets": _PATH, "--out": _PATH}, {"--k": _POSITIVE, "--seed": _SEED}),
    "select": (
        {"--corpus": _PATH, "--targets": _PATH, "--out": _PATH},
        {
            "--method": st.sampled_from(["mmr", "random", "duration"]),
            "--lambda": st.floats(0.0, 1.0),
            "--alpha": _OPEN_UNIT,
            "--rho": _OPEN_UNIT,
            "--batch": _POSITIVE,
            "--weights": _WEIGHTS.map(lambda w: ",".join(f"{k}={v!r}" for k, v in w.items())),
            "--aggregate": st.sampled_from(["max", "mean"]),
            "--seed": _SEED,
            "--threads": _POSITIVE,
        },
    ),
    "probe": (
        {"--corpus": _PATH},
        {
            "--views": st.lists(_NAME, min_size=1, max_size=3, unique=True).map(",".join),
            "--clusters": _POSITIVE,
            "--seed": _SEED,
        },
    ),
}


class TestReplayConfig:
    """A replay renders the recorded config back into flags and parses them with
    the run's own parser, so a replayed config passes every check a run's does."""

    @pytest.mark.parametrize("subcommand", sorted(_RUN_FLAGS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_replay_parses_the_recorded_config(self, subcommand, data):
        needed, optional = _RUN_FLAGS[subcommand]
        flags = data.draw(st.fixed_dictionaries(needed, optional=optional))
        parser, (subparsers, required) = cli._build_parser()
        argv = [subcommand, *(f"{flag}={value}" for flag, value in flags.items())]
        config = cli._config_from_args(parser.parse_args(argv), required)
        recorded = json.loads(json.dumps(config))
        replayed = parser.parse_args([subcommand, *cli._config_argv(subparsers[subcommand], recorded)])
        assert cli._config_from_args(replayed, required) == config

    @pytest.mark.parametrize(
        "key, value, flag",
        [
            ("threads", 0, "--threads"),
            ("threads", -3, "--threads"),
            ("batch", 0, "--batch"),
            ("rho", 0.0, "--rho"),
            ("aggregate", "median", "--aggregate"),
            ("weights", [1], "--weights"),
            ("weights", {"speaker": float("nan")}, "--weights"),
            ("lambda", "a", "--lambda"),
            (None, {}, "--corpus"),  # the whole config empty
        ],
    )
    def test_bad_recorded_value_exits_2_naming_its_flag(
        self, fixture_dirs, tmp_path, capsys, monkeypatch, key, value, flag
    ):
        """Rejected as the same flag is on the command line: exit 2, the flag
        named, before any input is hashed, with nothing written."""
        corpus, targets = fixture_dirs
        assert run(TestSelect().select_args(corpus, targets, tmp_path / "b.jsonl")) == 0
        sidecar = tmp_path / "b.jsonl.run.json"
        manifest = json.loads(sidecar.read_text())
        if key is None:
            manifest["config"] = value
        else:
            manifest["config"][key] = value
        sidecar.write_text(json.dumps(manifest))
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        monkeypatch.setattr(store, "_record_read", lambda *args: pytest.fail("inputs hashed"))
        capsys.readouterr()
        assert run(["select", "--replay", str(sidecar)]) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestRunManifestInputs:
    @pytest.mark.parametrize("method", ["random", "duration"])
    def test_baselines_read_no_view(self, fixture_dirs, tmp_path, method):
        """The baselines read durations only: the same bytes with the view files
        unreadable, and no `.emb` file among the recorded inputs."""
        corpus, targets = fixture_dirs
        corpus_copy, targets_copy = tmp_path / "corpus", tmp_path / "targets"
        shutil.copytree(corpus, corpus_copy)
        shutil.copytree(targets, targets_copy)
        outs = []
        for label in ("views", "garbled"):
            out = tmp_path / f"{label}.jsonl"
            argv = TestSelect().select_args(corpus_copy, targets_copy, out, ("--method", method))
            assert run(argv) == 0
            inputs = json.loads((tmp_path / f"{label}.jsonl.run.json").read_text())["inputs"]
            assert not [path for path in inputs if path.endswith(".emb")]
            assert str(corpus_copy / "manifest.jsonl") in inputs
            outs.append(out.read_bytes())
            for path in [*corpus_copy.glob("*.emb"), *targets_copy.rglob("*.emb")]:
                path.write_bytes(b"not an embedding file")
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("weights", ["b=1", "b=1,a=0"])
    def test_records_only_the_files_read(self, tmp_path, weights):
        """Files next to the views that select does not read (another view, a
        sidecar) are no inputs, so rewriting them leaves the run replayable."""
        corpus, targets = tmp_path / "corpus", tmp_path / "targets"
        assert run(
            [
                "stats", "--make-fixture", "--out", str(corpus), "--targets-out", str(targets),
                "--utterances", "300", "--views", "a:32,b:32", "--clusters", "4",
                "--target-rows", "40", "--seed", "5",
            ]
        ) == 0  # fmt: skip
        project = ["project", "--in", str(corpus / "a.emb"), "--out", str(corpus / "a16.emb"), "--dim", "16"]
        assert run(project) == 0
        out = tmp_path / "sel.jsonl"
        select = ["select", "--corpus", str(corpus), "--targets", str(targets)]
        assert run([*select, "--weights", weights, "--batch", "16", "--out", str(out)]) == 0
        sidecar = tmp_path / "sel.jsonl.run.json"
        read = [corpus / "manifest.jsonl", corpus / "b.emb"]
        read += [targets / f"target-{m}" / "b.emb" for m in range(2)]
        assert sorted(json.loads(sidecar.read_text())["inputs"]) == sorted(map(str, read))
        assert run(project) == 0  # rewrites a16.emb.run.json
        assert run(["select", "--replay", str(sidecar)]) == 0

    def test_each_input_is_opened_once_and_no_output_again(self, fixture_dirs, tmp_path, monkeypatch):
        """Digests come from the bytes the run read and wrote: no file is opened to be hashed."""
        corpus, targets = fixture_dirs
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))  # an fd from os.fdopen never matches a path
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        monkeypatch.setattr("io.open", counting_open)
        out = tmp_path / "sel.jsonl"
        assert run(TestSelect().select_args(corpus, targets, out, ("--method", "mmr"))) == 0
        monkeypatch.undo()
        manifest = json.loads((tmp_path / "sel.jsonl.run.json").read_text())
        assert len(manifest["inputs"]) == 7  # the manifest, two corpus views, two per target dataset
        assert {path: opened.count(path) for path in manifest["inputs"]} == dict.fromkeys(manifest["inputs"], 1)
        assert [path for path in manifest["outputs"] if path in opened] == []

    def test_make_fixture_records_only_the_files_it_wrote(self, tmp_path):
        corpus, targets = tmp_path / "corpus", tmp_path / "targets"
        corpus.mkdir()
        (corpus / "notes.txt").write_text("not a fixture file\n")
        argv = ["stats", "--make-fixture", "--out", str(corpus), "--targets-out", str(targets)]
        assert run([*argv, "--utterances", "50", "--views", "a:8", "--target-rows", "10"]) == 0
        outputs = json.loads((corpus / "run.json").read_text())["outputs"]
        written = [corpus / "manifest.jsonl", corpus / "a.emb"]
        written += [targets / f"target-{m}" / name for m in range(2) for name in ("a.emb", "manifest.jsonl")]
        assert sorted(outputs) == sorted(map(str, written))
        assert all(outputs[str(path)]["sha256"] == sha256(path) for path in written)


class TestProbeCommand:
    def test_prints_accuracy_table(self, fixture_dirs, capsys):
        corpus, _ = fixture_dirs
        assert run(
            ["probe", "--corpus", str(corpus), "--views", "speaker,wavlm", "--clusters", "8", "--seed", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "source\\target" in out
        assert "chance level:" in out
        # fixture views share cluster structure, so the table holds percentages
        rows = [line for line in out.splitlines() if line.startswith(("speaker", "wavlm"))]
        assert len(rows) == 2

    def test_one_view_exits_1(self, fixture_dirs, capsys):
        corpus, _ = fixture_dirs
        assert run(["probe", "--corpus", str(corpus), "--views", "speaker"]) == 1
        assert "at least 2 views" in capsys.readouterr().err


class TestAtomicity:
    def test_failed_write_leaves_nothing(self, tmp_path):
        target = tmp_path / "out.bin"

        def bad_chunks():
            yield b"partial"
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            _atomic_bytes(target, bad_chunks())
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_successful_run_leaves_no_temp_files(self, fixture_dirs, tmp_path):
        corpus, targets = fixture_dirs
        out = tmp_path / "clean.jsonl"
        assert run(TestSelect().select_args(corpus, targets, out)) == 0
        stray = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert stray == []

    def test_outputs_follow_umask(self, fixture_dirs, tmp_path):
        """Under umask 022, atomic outputs are 0o644 like any other created file."""
        corpus, targets = fixture_dirs
        view_path = tmp_path / "v.emb"
        out = tmp_path / "sel.jsonl"
        old = os.umask(0o022)
        try:
            save_view(EmbeddingView("v", 2, np.eye(2, dtype=np.float32)), view_path)
            assert run(TestSelect().select_args(corpus, targets, out)) == 0
        finally:
            os.umask(old)
        for path in (view_path, out, out.with_name(out.name + ".run.json")):
            assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name


def golden_selection_digest(root, threads=None):
    """SHA-256 of the selection from fixture -> project -> compact-targets -> select."""
    corpus, targets = root / "corpus", root / "targets"
    assert run(
        [
            "stats", "--make-fixture", "--out", str(corpus),
            "--targets-out", str(targets), "--utterances", "500",
            "--views", "speaker:64", "--clusters", "6",
            "--target-rows", "300", "--seed", "77",
        ]
    ) == 0
    assert run(
        [
            "project", "--in", str(corpus / "speaker.emb"),
            "--out", str(corpus / "speaker16.emb"), "--dim", "16", "--seed", "7",
        ]
    ) == 0
    os.rename(corpus / "speaker.emb", corpus / "speaker.full")
    assert run(
        [
            "project", "--in", str(targets / "target-0" / "speaker.emb"),
            "--out", str(targets / "target-0" / "speaker16.emb"),
            "--dim", "16", "--seed", "7",
        ]
    ) == 0
    os.rename(targets / "target-0" / "speaker.emb", targets / "target-0" / "speaker.full")
    os.rename(targets / "target-1", root / "unused")
    compacted = root / "compact"
    assert run(
        [
            "compact-targets", "--targets", str(targets),
            "--k", "50", "--seed", "3", "--out", str(compacted),
        ]
    ) == 0
    sel = root / "selection.jsonl"
    thread_flag = [] if threads is None else ["--threads", str(threads)]
    assert run(
        [
            "select", "--corpus", str(corpus), "--targets", str(compacted),
            "--method", "mmr", "--lambda", "0.7", "--alpha", "0.05",
            "--rho", "0.25", "--batch", "8", "--seed", "1",
            "--weights", "speaker16=1.0", "--out", str(sel), *thread_flag,
        ]
    ) == 0
    return sha256(sel)


def _numpy_blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy < 1.26 cannot report its BLAS as data
        return "unknown"


try:
    from numpy._core._multiarray_umath import __cpu_baseline__ as CPU_BASELINE
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_baseline__ as CPU_BASELINE
    from numpy.core._multiarray_umath import __cpu_features__ as CPU_FEATURES

# OpenBLAS kernel -> the instruction set it needs
BLAS_KERNELS = {"Prescott": "SSE3", "Haswell": "AVX2", "SkylakeX": "AVX512_SKX"}
# NPY_DISABLE_CPU_FEATURES setting -> the CPU feature whose numpy loops it turns off
SIMD_SETTINGS = {
    "AVX512_SPR AVX512_ICL X86_V4": "AVX512_SKX",
    "AVX512_SPR AVX512_ICL X86_V4 X86_V3": "X86_V3",
}

_CHILD = (
    "import json, sys\n"
    "from pathlib import Path\n"
    "from test_cli import CPU_FEATURES, golden_selection_digest\n"
    "digest = golden_selection_digest(Path(sys.argv[1]), threads=int(sys.argv[2]))\n"
    "print(json.dumps(CPU_FEATURES))\n"
    "print(digest)\n"
)


def child_golden_run(tmp_path, threads, **env) -> tuple[dict, str]:
    """numpy's CPU features and the golden digest, from a child process with `env` added."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env)
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path), str(threads)],
        env=env, capture_output=True, text=True, check=True,
    )
    *_, features, digest = child.stdout.splitlines()
    return json.loads(features), digest


class TestGoldenPipeline:
    def test_full_pipeline_golden_digest(self, tmp_path):
        """fixture -> project -> compact-targets -> select is byte-reproducible."""
        digests = [golden_selection_digest(tmp_path / round_tag) for round_tag in ("one", "two")]
        assert digests[0] == digests[1]
        assert digests[0] == GOLDEN_SELECTION_SHA256

    @pytest.mark.skipif(
        "openblas" not in _numpy_blas_name().lower(),
        reason=f"numpy's BLAS is {_numpy_blas_name()}, not OpenBLAS",
    )
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "kernel",
        [
            pytest.param(
                kernel,
                marks=pytest.mark.skipif(
                    not CPU_FEATURES.get(feature, False),
                    reason=f"CPU lacks {feature}, which the {kernel} kernel needs",
                ),
            )
            for kernel, feature in BLAS_KERNELS.items()
        ],
    )
    def test_golden_digest_on_every_blas_kernel(self, kernel, threads, tmp_path):
        """The pinned digest holds in a child process forced onto each OpenBLAS kernel."""
        _, digest = child_golden_run(tmp_path, threads, OPENBLAS_CORETYPE=kernel)
        assert digest == GOLDEN_SELECTION_SHA256

    @pytest.mark.parametrize("disabled, feature", SIMD_SETTINGS.items())
    def test_golden_digest_under_numpy_simd_dispatch(self, disabled, feature, tmp_path):
        """The pinned digest holds with numpy's widest SIMD loops turned off in a child process."""
        if not CPU_FEATURES.get(feature, False) or set(disabled.split()) & set(CPU_BASELINE):
            pytest.skip(f"{disabled!r} turns nothing off here: numpy has no {feature} loops on")
        features, digest = child_golden_run(tmp_path, 2, NPY_DISABLE_CPU_FEATURES=disabled)
        assert not features[feature]
        assert digest == GOLDEN_SELECTION_SHA256
