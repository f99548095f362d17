"""Command-line orchestration of the panel -> taxonomy pipeline.

Every subcommand that reads a panel is a view of one staged pipeline
(``_run_stages``): it runs the stages its artifacts need, in order, and
makes their text, both read from one table (``_ARTIFACTS``). Every file
and all standard output leave through one all-or-nothing writer (``_write_artifacts``).

Exit codes: 0 success, 1 bad command line, 2 data/domain error (bad
input file, degenerate series, unknown label, unreadable path),
3 unexpected internal failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence

from .correlation import census, pearson_matrix
from .distance import DistanceMatrix, to_distance
from .dynamics import TreeSequence, WindowSpec, rolling_trees
from .errors import CorrTreeError, GeneratorSpecError
from .export import export_dot, export_graphml, export_newick, matrix_csv, survival_csv
from .hierarchy import single_linkage, subdominant_ultrametric
from .mst import build_mst
from .panel import TimeSeriesPanel, load_panel
from .synth import FactorModelSpec, generate, parse_group_spec
from .transforms import log_returns, rank_signal, raw_signal, rebase

_SIGNALS: dict[str, Callable[[TimeSeriesPanel], TimeSeriesPanel]] = {
    "log-return": log_returns,
    "raw": raw_signal,
    "rank": rank_signal,
}

_STAGES = ("returns", "corr", "dist", "tree", "dendrogram")


def _distance_csv(dist: DistanceMatrix) -> str:
    return matrix_csv(dist.assets, dist.d)


# artifact file name -> (its ``run --formats`` entry, the last stage its text reads, its text);
# each text looks its functions up as module globals when it is called
_ARTIFACTS: dict[str, tuple[str, str, Callable[[dict[str, Any]], str]]] = {
    "mst.dot": ("dot", "tree", lambda s: export_dot(s["tree"])),
    "mst.graphml": ("graphml", "tree", lambda s: export_graphml(s["tree"])),
    "dendrogram.nwk": ("newick", "dendrogram", lambda s: export_newick(s["dendrogram"])),
    "corr.csv": ("csv", "corr", lambda s: matrix_csv(s["corr"].assets, s["corr"].rho)),
    "dist.csv": ("csv", "dist", lambda s: _distance_csv(s["dist"])),
    "ultrametric.csv": ("csv", "dendrogram", lambda s: _distance_csv(subdominant_ultrametric(s["dendrogram"]))),
    "census.json": ("json", "corr", lambda s: census(s["corr"]).to_json() + "\n"),
}

EXPORT_FORMATS = tuple(dict.fromkeys(fmt for fmt, _, _ in _ARTIFACTS.values()))
_TREE_FORMATS = tuple(fmt for fmt, stage, _ in _ARTIFACTS.values() if stage == "tree")  # also the file suffix


def _run_stages(args: argparse.Namespace, last: str) -> dict[str, Any]:
    """Run load -> rebase -> signal -> correlation -> distance -> tree -> dendrogram.

    Stops after the stage named ``last`` (one of :data:`_STAGES`) and
    returns every stage's result by name. Each stage function is looked
    up as a module global when it is called.
    """
    stop = _STAGES.index(last)
    panel = load_panel(args.input, delimiter=args.delimiter, missing_markers=("", args.missing))
    if args.rebase is not None:
        panel = rebase(panel, args.rebase, numeraire=args.numeraire)
    stages: dict[str, Any] = {"returns": _SIGNALS[args.signal](panel)}
    del panel  # unless the signal is the panel itself, free the raw values before the n x n stages
    if stop >= 1:
        stages["corr"] = pearson_matrix(stages["returns"], min_overlap=args.min_overlap)
    if stop >= 2:
        stages["dist"] = to_distance(stages["corr"])
    if stop >= 3:
        stages["tree"] = build_mst(stages["dist"])
    if stop >= 4:
        stages["dendrogram"] = single_linkage(stages["tree"])
    return stages


def _window_artifacts(
    directory: Path, sequence: TreeSequence, formats: Collection[str]
) -> Iterator[tuple[Path, str]]:
    yield directory / "survival.csv", survival_csv(sequence)
    pad = max(3, len(str(len(sequence) - 1)))
    texts = [(fmt, _ARTIFACTS[f"mst.{fmt}"][2]) for fmt in _TREE_FORMATS if fmt in formats]
    for k, tree in enumerate(sequence.trees):
        for fmt, text in texts:
            yield directory / f"tree_{k:0{pad}d}.{fmt}", text({"tree": tree})


def _write_artifacts(outputs: Iterable[tuple[str | Path, str]]) -> None:
    """Write ``(destination, text)`` pairs all-or-nothing, taking one text at a time; ``-`` is stdout.

    A file text goes to a temporary file beside its target (past symlinks), or in place to a device
    or pipe, and is dropped before the next pair is taken. The renames follow, then the ``-`` texts,
    in order. An exception before the renames removes what this call made; one among them keeps those done.
    """
    made: list[Path] = []  # directories this call creates, innermost first
    staged: dict[Path, Path] = {}  # target -> its temporary file
    printed: list[str] = []  # the texts for standard output, in order
    try:
        for destination, text in outputs:
            if destination == "-":
                printed.append(text)
                continue
            path = Path(destination)
            made[:0] = [d for d in path.parents if not d.is_dir()]
            path.parent.mkdir(parents=True, exist_ok=True)
            temp = path
            if not path.exists() or path.is_file():  # a device or pipe cannot be renamed over
                target = Path(os.path.realpath(path))
                temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
                staged[target] = temp
            with open(temp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            del text  # so it is freed before the next text is made
        for target, temp in staged.items():
            os.replace(temp, target)
    except BaseException:
        for temp in staged.values():
            with contextlib.suppress(OSError):
                temp.unlink()
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    sys.stdout.write("".join(printed))


# ---------------------------------------------------------------- commands


def _cmd_view(args: argparse.Namespace) -> int:
    """The five views: each artifact to its destination, or to stdout in option order if ``-``."""
    name = f"mst.{args.format}" if args.command == "mst" else args.artifact
    paths = {name: args.out}
    if getattr(args, "ultrametric", None) is not None:
        paths["ultrametric.csv"] = args.ultrametric
        same = os.path.realpath(args.out)
        if "-" not in paths.values() and os.path.realpath(args.ultrametric) == same:
            print(f"error: --out and --ultrametric both name {same}", file=sys.stderr)
            return 1
    stages = _run_stages(args, max((_ARTIFACTS[n][1] for n in paths), key=_STAGES.index))
    _write_artifacts((path, _ARTIFACTS[n][2](stages)) for n, path in paths.items())
    return 0


def _cmd_dynamics(args: argparse.Namespace) -> int:
    returns = _run_stages(args, "returns")["returns"]
    sequence = rolling_trees(returns, WindowSpec(args.width, args.step), min_overlap=args.min_overlap)
    _write_artifacts(_window_artifacts(Path(args.outdir), sequence, (args.format,)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """Every artifact of ``--formats`` (and the windows), then the census record on standard output.

    Every stage runs before the first text is made; a failing stage, text or write leaves no output.
    """
    window = WindowSpec(args.width, args.step) if args.width is not None else None
    # the whole chain runs for every --formats, so its errors do not depend on them
    stages = _run_stages(args, _STAGES[-1])
    out = Path(args.outdir)
    outputs = ((out / name, text(stages)) for name, (fmt, _, text) in _ARTIFACTS.items() if fmt in args.formats)
    if window is not None:
        sequence = rolling_trees(stages["returns"], window, min_overlap=args.min_overlap)
        outputs = itertools.chain(outputs, _window_artifacts(out / "windows", sequence, args.formats))
    _write_artifacts(itertools.chain(outputs, [("-", _ARTIFACTS["census.json"][2](stages))]))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = FactorModelSpec(
        groups=args.groups,
        factor_loading=args.loading,
        noise_sigma=args.noise,
        length=args.length,
        seed=args.seed,
        global_loading=args.global_loading,
    )
    _write_artifacts([(args.out, generate(spec).to_csv(delimiter=args.delimiter, missing_marker=args.missing))])
    return 0


# ------------------------------------------------------------------ parser


def _int_at_least(minimum: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _one_character(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"expected exactly one character, got {text!r}")
    return text


def _groups_argument(text: str) -> tuple[tuple[str, int], ...]:
    try:
        return parse_group_spec(text)
    except GeneratorSpecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _formats_argument(text: str) -> tuple[str, ...]:
    formats = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = set(formats).difference(EXPORT_FORMATS)
    if not formats or unknown:
        raise argparse.ArgumentTypeError(
            f"expected a comma list drawn from {','.join(EXPORT_FORMATS)}, got {text!r}"
        )
    return formats


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", type=Path, help="delimited panel file")
    parser.add_argument(
        "--signal",
        choices=tuple(_SIGNALS),
        default="log-return",
        help="transform applied to the raw panel (default: %(default)s)",
    )
    parser.add_argument(
        "--rebase",
        metavar="LABEL",
        default=None,
        help="re-express all quotes in this asset before transforming",
    )
    parser.add_argument(
        "--numeraire",
        metavar="LABEL",
        default="USD",
        help="name for the implicit unit column introduced by --rebase (default: %(default)s)",
    )
    parser.add_argument("--delimiter", type=_one_character, default=",", help="field separator (default: ',')")
    parser.add_argument(
        "--missing",
        metavar="MARKER",
        default="NA",
        help="missing-value marker in addition to empty cells (default: %(default)s)",
    )
    parser.add_argument(
        "--min-overlap",
        type=_int_at_least(2),
        default=3,
        metavar="N",
        help="minimum joint observations per pair (default: %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrtree",
        description="Correlation-based hierarchical taxonomies of time-series panels.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    for command, artifact, summary, what in (
        ("corr", "corr.csv", "write the correlation matrix as CSV", "matrix CSV"),
        ("dist", "dist.csv", "write the distance matrix as CSV", "matrix CSV"),
        ("mst", None, "write the minimal spanning tree", "graph"),
        ("dendro", "dendrogram.nwk", "write the single-linkage dendrogram as Newick", "Newick tree"),
        ("census", "census.json", "print correlation-level counts as JSON", "JSON record"),
    ):
        p = sub.add_parser(command, help=summary)
        _add_input_options(p)
        if command == "mst":
            p.add_argument("--format", choices=_TREE_FORMATS, default="dot")
        p.add_argument("--out", default="-", metavar="PATH", help=f"{what} destination ('-' for stdout)")
        if command == "dendro":
            p.add_argument("--ultrametric", metavar="PATH", default=None,
                           help="also write the subdominant ultrametric matrix CSV here")
        p.set_defaults(func=_cmd_view, artifact=artifact)

    p = sub.add_parser("dynamics", help="rolling-window trees and edge survival")
    _add_input_options(p)
    p.add_argument("--width", type=_int_at_least(3), required=True, help="window width in observations")
    p.add_argument("--step", type=_int_at_least(1), default=1, help="window step (default: %(default)s)")
    p.add_argument("--format", choices=_TREE_FORMATS, default="dot")
    p.add_argument("--outdir", required=True, metavar="DIR", help="directory for per-window files")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("synth", help="generate a deterministic factor-model panel")
    p.add_argument("--groups", type=_groups_argument, required=True, metavar="SPEC",
                   help="group layout, e.g. '3x10' or '10,5,5'")
    p.add_argument("--loading", type=float, required=True, help="common-factor loading in (0,1)")
    p.add_argument("--noise", type=float, required=True, help="idiosyncratic noise sigma >= 0")
    p.add_argument("--length", type=_int_at_least(2), required=True, help="observations per asset")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="generator seed (default: %(default)s)")
    p.add_argument("--global-loading", type=float, default=0.0, metavar="X",
                   help="optional market-wide factor loading (default: %(default)s)")
    p.add_argument("--delimiter", type=_one_character, default=",", help="field separator (default: ',')")
    p.add_argument("--missing", metavar="MARKER", default="NA",
                   help="missing-value marker (default: %(default)s)")
    p.add_argument("--out", required=True, metavar="PATH", help="panel CSV destination")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="full pipeline: matrices, tree, dendrogram, census")
    _add_input_options(p)
    p.add_argument("--outdir", required=True, metavar="DIR", help="artifact directory")
    p.add_argument("--formats", type=_formats_argument, default=EXPORT_FORMATS, metavar="LIST",
                   help=f"comma list from {{{','.join(EXPORT_FORMATS)}}} (default: all)")
    p.add_argument("--width", type=_int_at_least(3), default=None,
                   help="optional rolling window width; enables per-window outputs")
    p.add_argument("--step", type=_int_at_least(1), default=1,
                   help="rolling window step (default: %(default)s)")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (CorrTreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
