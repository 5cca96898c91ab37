"""Command line entry point.

Subcommands: project, audit, compact-targets, select, probe, stats. Every
numeric flag is range-validated at parse time, before any data is loaded.
Exit codes: 0 success, 1 data errors (with file/line context), 2 usage
errors (naming the offending flag, also a flag of the other `stats`
mode: a summary takes only `--corpus`, `--make-fixture` every other
flag). Each warning is one `warning:` line on stderr. Output files are
written to a temp file and atomically renamed.
Neither `project` nor `audit` holds a view whole: `project` streams its
input's blocks through the projection into its output (so its `phases`
is `total_s` alone), and `audit` checks `--hi` and then `--lo` with one
pass each, then gathers each block of pairs' rows by index.
Each run that writes files gets a JSON run manifest sidecar (`run.json`
in its `--out` directory, else `<output>.run.json`): the fully resolved
configuration, keyed by each flag's `dest`, per-phase wall-clock times,
and the digests that `store.recorded_files` took of the bytes the run
read and wrote. With `--replay <run.json>`, project, compact-targets and
select re-run from the manifest, checked by `store.recorded_files` where
the bytes are hashed: each input as it is read, and each output before
it replaces the file, so a failed replay leaves the output as it was;
audit and probe write no file, so they leave no manifest to replay.
A replay is a run whose flags come from the manifest: each recorded key
is rendered back into its flag and parsed again, so a bad value exits 2
naming its flag before any input is read. Any other flag given with
`--replay` exits 2 naming it. Keys no flag declares any more (`bins`,
`normalize`) are ignored; a missing optional key takes today's default,
and the output digest check catches any change that makes.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from corpus_select import __version__
from corpus_select.compaction import KMeansConfig, compact_targets
from corpus_select.errors import DataError, EmptyCorpus
from corpus_select.fixture import FixtureSpec, make_fixture
from corpus_select.probe import ProbeConfig, probe_matrix
from corpus_select.projection import ProjectionSpec, audit_cosine_preservation, make_projection, project_view
from corpus_select.relevance import AggregationMode, FusionWeights, available_cpus, blas_corename, blas_thread_cap
from corpus_select.selection import SelectionConfig, batched_mmr, duration_baseline, random_baseline
from corpus_select.store import (
    ViewFile,
    _atomic_bytes,
    _write_view,
    load_corpus,
    load_manifest,
    load_target_durations,
    load_targets,
    open_corpus,
    recorded_files,
    save_targets,
)


_FIXTURE_SPREAD = 0.25  # `stats --make-fixture`'s noise norm around each cluster center


class UsageError(Exception):
    """Bad flag combination detected after parsing; exits with code 2."""


def _input_files(read: dict[str, dict]) -> dict[str, dict]:
    """The run manifest's `inputs`: the recorded reads, sorted by path."""
    return dict(sorted(read.items()))


def emit_run_manifest(
    sidecar: Path,
    subcommand: str,
    config: dict,
    files: dict[str, dict],
    phases: dict[str, float],
) -> Path:
    """Write the machine-readable sidecar describing a completed run.

    `environment` holds what the bytes may depend on and replay does not
    set: numpy, the BLAS kernel and the BLAS threads MMR selection ran on.
    """
    mmr = config.get("method") == "mmr"
    manifest = {
        "tool": "corpus-select",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "environment": {
            "numpy": np.__version__,
            "blas_corename": blas_corename(),
            "blas_threads": blas_thread_cap(config["threads"]) if mmr else None,
        },
        "inputs": _input_files(files["read"]),
        "outputs": files["written"],
        "phases": {k: round(v, 6) for k, v in phases.items()},
    }
    payload = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8") + b"\n"
    _atomic_bytes(sidecar, [payload])
    return sidecar


# ---------- flag types (validated before any data is loaded) ----------

def _parsed(text: str, kind: type, noun: str):
    """`kind(text)`, or an error that says what the flag takes; argparse would name the converter."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be {noun}, got {text!r}") from None


def _float_in(lo: float, hi: float, lo_open: bool = False):
    def convert(text: str) -> float:
        value = _parsed(text, float, "a number")
        if not ((lo < value if lo_open else lo <= value) and value <= hi):
            bounds = f"{'(' if lo_open else '['}{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be in {bounds}, got {text}")
        return value

    return convert


def _positive_int(text: str) -> int:
    value = _parsed(text, int, "an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _seed(text: str) -> int:
    value = _parsed(text, int, "an integer")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be an unsigned 64-bit integer, got {text}")
    return value


def _named(text: str, sep: str = "") -> dict[str, str]:
    """The comma-separated parts of `text` as name -> value, split at `sep`
    (without one the part is the name). Names must be nonempty and distinct."""
    pairs: dict[str, str] = {}
    for part in text.split(","):
        name, found, value = part.partition(sep) if sep else (part, "", "")
        name = name.strip()
        if sep and not found:
            raise argparse.ArgumentTypeError(f"expected name{sep}value pairs separated by commas, got {part!r}")
        if not name or name in pairs:
            raise argparse.ArgumentTypeError(f"repeated name {name!r}" if name else f"empty name in {text!r}")
        pairs[name] = value
    return pairs


def _weights_arg(text: str) -> dict[str, float]:
    weights = {name: _parsed(raw, float, "a number") for name, raw in _named(text, "=").items()}
    try:
        FusionWeights(weights)  # finite, >= 0 and one positive: the selector's own check
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return weights


def _views_arg(text: str) -> list[str]:
    return list(_named(text))


def _view_dims_arg(text: str) -> dict[str, int]:
    dims = {name: _positive_int(raw) for name, raw in _named(text, ":").items()}
    for name in dims:  # each name becomes a file NAME.emb in the corpus and a --weights key
        if name.startswith(".") or any(c in name for c in "/\\="):
            raise argparse.ArgumentTypeError(f"view name {name!r} must be a file stem: no '/', '\\', '=' or leading '.'")
    return dims


def _build_parser() -> tuple[
    argparse.ArgumentParser, tuple[dict[str, argparse.ArgumentParser], dict[str, list[argparse.Action]]]
]:
    """The parser, its subcommands' parsers, and per kind of run the flags it needs.

    A flag's dest is its key in the run config. argparse cannot require
    the needed flags itself, because `--replay` supplies the whole config.
    """
    parser = argparse.ArgumentParser(
        prog="corpus-select",
        description="Duration-budgeted corpus subset selection over embedding views.",
    )
    parser.add_argument("--version", action="version", version=f"corpus-select {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    required: dict[str, list[argparse.Action]] = {}

    def need(row: str, p: argparse.ArgumentParser, *flags: str, **kwargs) -> None:
        required.setdefault(row, []).append(p.add_argument(*flags, **kwargs))

    def add_replay(p):
        p.add_argument(
            "--replay",
            metavar="RUN_JSON",
            help="re-run from a recorded run manifest and verify output digests",
        )

    p = sub.add_parser("project", help="project a view to a lower dimension")
    need("project", p, "--in", dest="input", metavar="VIEW_EMB", help="input view file")
    need("project", p, "--out", metavar="VIEW_EMB", help="output view file")
    p.add_argument("--dim", type=_positive_int, default=256)
    p.add_argument("--seed", type=_seed, default=0)
    add_replay(p)

    p = sub.add_parser("audit", help="cosine-preservation audit between two views")
    need("audit", p, "--hi", metavar="VIEW_EMB", help="high-dimensional view")
    need("audit", p, "--lo", metavar="VIEW_EMB", help="projected view")
    p.add_argument("--pairs", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("compact-targets", help="k-means compaction of target embeddings")
    need("compact-targets", p, "--targets", metavar="DIR", help="targets directory")
    p.add_argument("--k", type=_positive_int, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    need("compact-targets", p, "--out", metavar="DIR", help="output targets directory")
    add_replay(p)

    p = sub.add_parser("select", help="select a duration-budgeted subset")
    need("select", p, "--corpus", metavar="DIR", help="corpus directory")
    p.add_argument("--targets", metavar="DIR", help="targets directory")
    p.add_argument("--method", choices=("mmr", "random", "duration"), default="mmr")
    p.add_argument("--lambda", type=_float_in(0.0, 1.0), default=0.7)
    p.add_argument("--alpha", type=_float_in(0.0, 1.0, lo_open=True), default=0.05)
    p.add_argument("--rho", type=_float_in(0.0, 1.0, lo_open=True), default=0.15)
    p.add_argument("--batch", type=_positive_int, default=1024)
    p.add_argument("--weights", type=_weights_arg, default=None, metavar="NAME=W,...")
    p.add_argument("--aggregate", choices=("max", "mean"), default="max")
    p.add_argument("--seed", type=_seed, default=0)
    need("select", p, "--out", metavar="JSONL", help="selection output file")
    p.add_argument("--threads", type=_positive_int, default=available_cpus())
    add_replay(p)

    p = sub.add_parser("probe", help="cross-view predictability probe")
    need("probe", p, "--corpus", metavar="DIR", help="corpus directory")
    p.add_argument("--views", type=_views_arg, default=None, metavar="NAME,...")
    p.add_argument("--clusters", type=_positive_int, default=100)
    p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("stats", help="corpus statistics or synthetic fixture generation")
    need("stats", p, "--corpus", metavar="DIR", help="corpus directory to summarize")
    p.add_argument("--make-fixture", action="store_true", help="generate a synthetic fixture")
    need("stats --make-fixture", p, "--out", metavar="DIR", help="fixture corpus directory")
    need("stats --make-fixture", p, "--targets-out", metavar="DIR", help="fixture targets directory")
    p.add_argument("--utterances", type=_positive_int, default=2000)
    p.add_argument("--views", dest="view_dims", type=_view_dims_arg, default=None, metavar="NAME:DIM,...")
    p.add_argument("--clusters", type=_positive_int, default=10)
    p.add_argument("--target-rows", type=_positive_int, default=120)
    p.add_argument("--seed", type=_seed, default=0)

    return parser, (sub.choices, required)


def _config_argv(subparser: argparse.ArgumentParser, config: dict) -> list[str]:
    """A recorded config as the flags that make it: `--flag=value` for each
    key the subcommand declares as a dest. None values are left out."""
    argv = []
    for action in subparser._actions:  # argparse has no public list of a parser's flags
        value = config.get(action.dest)
        if value is None:
            continue
        if isinstance(value, dict):  # --weights, the inverse of _weights_arg
            value = ",".join(f"{name}={weight}" for name, weight in value.items())
        elif isinstance(value, list):  # --views
            value = ",".join(map(str, value))
        argv.append(f"{action.option_strings[0]}={value}")
    return argv


def _flags_given(subparser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """The flags besides --replay that `argv`, a subcommand's arguments, sets, also at their defaults."""
    unset = object()
    args = subparser.parse_args(argv, argparse.Namespace(**{a.dest: unset for a in subparser._actions}))
    given = [a for a in subparser._actions if getattr(args, a.dest) is not unset and a.dest != "replay"]
    return [a.option_strings[0] for a in given]


def _config_from_args(args: argparse.Namespace, required: dict[str, list[argparse.Action]]) -> dict:
    """The fully resolved, JSON-able run config: every flag under its dest."""
    config = {k: v for k, v in vars(args).items() if k not in ("subcommand", "replay")}
    row = "stats --make-fixture" if config.get("make_fixture") else args.subcommand
    for action in required[row]:
        if config[action.dest] is None:
            raise UsageError(f"argument {action.option_strings[0]} is required")
    if config.get("make_fixture") and config["view_dims"] is None:
        config["view_dims"] = dict(FixtureSpec().view_dims)
    method = config.get("method")
    if method in ("mmr", "duration") and config["targets"] is None:
        raise UsageError(f"argument --targets is required for method {method!r}")
    return config


# ---------- handlers ----------

def _cmd_project(config: dict) -> dict[str, float]:
    t0 = time.perf_counter()
    with ViewFile(config["input"]) as view:
        (n, d), dim = view.shape, config["dim"]
        matrix = make_projection(ProjectionSpec(d, dim, config["seed"]))
        # each block is read, projected and written before the next is read
        images = project_view((block for _, block in view.blocks()), matrix)
        _write_view(config["out"], True, n, dim, images)
    print(f"projected {n} rows: {d} -> {dim} dims")
    return {"total_s": time.perf_counter() - t0}


def _cmd_audit(config: dict) -> dict[str, float]:
    t0 = time.perf_counter()
    with contextlib.ExitStack() as stack:
        views = []
        for path in (config["hi"], config["lo"]):
            # one checking pass per file, --hi first, before any row is gathered
            views.append(stack.enter_context(ViewFile(path)))
            for _ in views[-1].blocks():
                pass
        corr = audit_cosine_preservation(*views, config["pairs"], config["seed"])
    print(f"{corr:.6f}")
    return {"total_s": time.perf_counter() - t0}


def _cmd_compact(config: dict) -> dict[str, float]:
    t0 = time.perf_counter()
    targets = load_targets(config["targets"])
    t1 = time.perf_counter()
    report: list[dict] = []
    compacted = compact_targets(
        targets, KMeansConfig(k=config["k"], seed=config["seed"]), report=report
    )
    t2 = time.perf_counter()
    out_dir = Path(config["out"])
    save_targets(compacted, out_dir)
    lines = [
        f"{row['dataset']}/{row['view']}: {row['rows_before']} -> {row['rows_after']} rows, "
        f"inertia {row['inertia']:.6f}, {row['iterations']} iterations"
        for row in report
    ]
    text = "\n".join(lines) + "\n"
    _atomic_bytes(out_dir / "report.txt", [text.encode("utf-8")])
    print(text, end="")
    t3 = time.perf_counter()
    return {"load_s": t1 - t0, "compact_s": t2 - t1, "write_s": t3 - t2, "total_s": t3 - t0}


def _write_selection(result, ids: list[str], out: Path) -> None:
    rows = (
        {
            "rank": pick.rank,
            "id": ids[pick.index],
            "relevance": pick.relevance,
            "diversity": pick.diversity,
            "mmr": pick.mmr,
            "cumulative_duration_s": pick.cumulative_duration_s,
        }
        for pick in result.picks
    )
    footer = {
        "budget_s": result.budget_s,
        "total_selected_s": result.total_selected_s,
        "pool_size": result.pool_size,
        "rounds": result.rounds,
        "exhausted": result.exhausted,
    }
    lines = (json.dumps(row).encode("utf-8") + b"\n" for row in itertools.chain(rows, [footer]))
    _atomic_bytes(out, lines)


def _cmd_select(config: dict) -> dict[str, float]:
    t0 = time.perf_counter()
    method = config["method"]
    weights = FusionWeights(config["weights"]) if config["weights"] else None
    view_names = weights.names if weights is not None else None
    manifest_path = Path(config["corpus"]) / "manifest.jsonl"
    with contextlib.ExitStack() as stack:
        if method == "mmr":
            # corpus views stay on disk: the selector screens them a block at a time
            corpus = stack.enter_context(open_corpus(config["corpus"], views=view_names))
            manifest, views = corpus.manifest, corpus.views
            targets = load_targets(config["targets"], views={name: view.shape[1] for name, view in views.items()})
        else:
            manifest = load_manifest(manifest_path)
            if method == "duration":
                target_durations = load_target_durations(config["targets"])
        if not len(manifest):
            raise EmptyCorpus(f"no candidates to select from: {manifest_path} is empty")
        t1 = time.perf_counter()

        if method == "mmr":
            cfg = SelectionConfig(
                alpha=config["alpha"],
                lam=config["lambda"],
                rho=config["rho"],
                batch_size=config["batch"],
                weights=weights,
                aggregation=AggregationMode.from_name(config["aggregate"]),
            )
            result = batched_mmr(manifest.durations, views, targets, cfg, threads=config["threads"])
        elif method == "random":
            result = random_baseline(manifest.durations, config["alpha"], config["seed"])
        else:
            result = duration_baseline(manifest.durations, target_durations, config["alpha"], config["seed"])
        t2 = time.perf_counter()

    _write_selection(result, manifest.ids, Path(config["out"]))
    t3 = time.perf_counter()
    hours = result.total_selected_s / 3600.0
    print(
        f"selected {len(result.picks)} of {len(manifest)} utterances "
        f"({hours:.2f} h, budget {result.budget_s / 3600.0:.2f} h, "
        f"pool {result.pool_size}, {result.rounds} rounds)"
    )
    return {"load_s": t1 - t0, "select_s": t2 - t1, "write_s": t3 - t2, "total_s": t3 - t0}


def _cmd_probe(config: dict) -> dict[str, float]:
    t0 = time.perf_counter()
    corpus = load_corpus(config["corpus"], views=config["views"])
    t1 = time.perf_counter()
    reports = probe_matrix(corpus.views, ProbeConfig(clusters=config["clusters"], seed=config["seed"]))
    t2 = time.perf_counter()

    names = list(corpus.views)
    by_pair = {(r.source, r.target): r for r in reports}
    width = max(len(n) for n in names) + 2
    header = "source\\target".ljust(max(width, 14)) + "".join(n.rjust(width) for n in names)
    print(header)
    for source in names:
        cells = "".join(
            f"{by_pair[(source, target)].accuracy * 100.0:.1f}".rjust(width)
            for target in names
        )
        print(source.ljust(max(width, 14)) + cells)
    chance = max(r.chance for r in reports)
    print(f"chance level: {chance * 100.0:.1f}%")
    return {"load_s": t1 - t0, "probe_s": t2 - t1, "total_s": t2 - t0}


def _cmd_stats(config: dict) -> dict[str, float]:
    t0 = time.perf_counter()
    if config["make_fixture"]:
        spec = FixtureSpec(
            utterances=config["utterances"],
            view_dims=config["view_dims"],
            clusters=config["clusters"],
            cluster_spread=_FIXTURE_SPREAD,
            target_rows=config["target_rows"],
            seed=config["seed"],
        )
        summary = make_fixture(config["out"], config["targets_out"], spec)
        print(json.dumps(summary, indent=2))
        return {"total_s": time.perf_counter() - t0}

    # each view's flag and D come from its header; the payload is not read
    with open_corpus(config["corpus"]) as corpus:
        manifest, views = corpus.manifest, corpus.views
    t1 = time.perf_counter()
    print(f"utterances: {len(manifest)}")
    print(f"total-hours: {manifest.durations.sum() / 3600.0:.2f}")
    print("datasets:")
    tags, tag_of = np.unique(manifest.datasets, return_inverse=True)
    counts = np.bincount(tag_of, minlength=tags.size)
    seconds = np.bincount(tag_of, weights=manifest.durations, minlength=tags.size)
    for tag, count, total in zip(tags, counts, seconds):
        print(f"  {tag}  {count}  {total / 3600.0:.2f}h")
    print("views:")
    for name, view in views.items():
        flag = "normalized" if view.normalized else "raw"
        print(f"  {name}  {view.shape[1]} dims  {flag}")
    return {"total_s": t1 - t0}


_HANDLERS = {
    "project": _cmd_project,
    "audit": _cmd_audit,
    "compact-targets": _cmd_compact,
    "select": _cmd_select,
    "probe": _cmd_probe,
    "stats": _cmd_stats,
}


def _sidecar_path(config: dict, written: dict[str, dict]) -> Path | None:
    """A run that wrote files: `run.json` in its `--out` directory, else `<out>.run.json`."""
    if not written:
        return None
    out = Path(config["out"])
    return out / "run.json" if out.is_dir() else out.with_name(out.name + ".run.json")


def _replay_manifest(path: Path) -> dict:
    """The run manifest at `path`: a JSON object with an object `config`, whose
    `inputs` and `outputs`, where present, map paths to objects with a string
    `sha256`. Anything else raises DataError naming the file."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        entries = [*manifest.get("inputs", {}).values(), *manifest.get("outputs", {}).values()]
        if isinstance(manifest["config"], dict) and all(isinstance(e["sha256"], str) for e in entries):
            return manifest
    except (ValueError, AttributeError, KeyError, TypeError):  # not JSON, or not of that shape
        pass
    raise DataError(f"not a run manifest: {path}")


def run(argv: list[str]) -> int:
    """Parse argv, dispatch, and map errors to exit codes."""
    parser, (subparsers, required) = _build_parser()
    try:
        args = parser.parse_args(argv)
        sub, own = subparsers[args.subcommand], argv[argv.index(args.subcommand) + 1 :]
        replay_manifest = None
        replay_path = getattr(args, "replay", None)
        if replay_path is not None:
            given = _flags_given(sub, own)
            if given:
                raise UsageError(f"--replay takes its flags from the manifest; drop {', '.join(given)}")
            replay_manifest = _replay_manifest(Path(replay_path))
            recorded = replay_manifest.get("subcommand")
            if recorded != args.subcommand:
                raise UsageError(f"--replay manifest records subcommand {recorded!r}, not {args.subcommand!r}")
            args = parser.parse_args([args.subcommand, *_config_argv(sub, replay_manifest["config"])])
        if args.subcommand == "stats":  # a summary takes --corpus alone, a fixture every other flag
            stray = [flag for flag in _flags_given(sub, own) if (flag == "--corpus") == args.make_fixture]
            if stray:
                mode = "with" if args.make_fixture else "without"
                raise UsageError(f"stats {mode} --make-fixture does not take {', '.join(stray)}")
        config = _config_from_args(args, required)

        with recorded_files(replay_manifest) as files, warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            phases = _HANDLERS[args.subcommand](config)

        if replay_manifest is not None:
            print("replay: outputs match recorded digests")
        sidecar = _sidecar_path(config, files["written"])
        # a replay never writes over the manifest it replays
        if sidecar is not None and not (
            replay_path is not None and sidecar.resolve() == Path(replay_path).resolve()
        ):
            emit_run_manifest(sidecar, args.subcommand, config, files, phases)
        return 0
    except SystemExit as exc:  # argparse has printed the usage error, help or version
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
