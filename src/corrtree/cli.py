"""Command-line orchestration of the panel -> taxonomy pipeline.

Every subcommand that reads a panel is a view of one staged pipeline
(``_run_stages``): it runs the stages its artifacts need, in order, and
writes their text (``_artifact_text``).

Exit codes: 0 success, 1 bad command line, 2 data/domain error (bad
input file, degenerate series, unknown label, unreadable path),
3 unexpected internal failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, Collection, Sequence

from .correlation import census, pearson_matrix
from .distance import to_distance
from .dynamics import TreeSequence, WindowSpec, rolling_trees
from .errors import CorrTreeError, GeneratorSpecError
from .export import export_dot, export_graphml, export_newick, matrix_csv, survival_csv
from .hierarchy import single_linkage, subdominant_ultrametric
from .mst import build_mst
from .panel import TimeSeriesPanel, dump_panel, load_panel
from .synth import FactorModelSpec, generate, parse_group_spec
from .transforms import log_returns, rank_signal, raw_signal, rebase, zscore

_SIGNALS: dict[str, Callable[[TimeSeriesPanel], TimeSeriesPanel]] = {
    "log-return": log_returns,
    "raw": raw_signal,
    "rank": rank_signal,
    "zscore": zscore,
}

EXPORT_FORMATS = ("dot", "graphml", "newick", "csv", "json")

_STAGES = ("returns", "corr", "dist", "tree", "dendrogram")

# artifact file name -> the last pipeline stage its text reads
_ARTIFACT_STAGE = {
    "corr.csv": "corr",
    "dist.csv": "dist",
    "ultrametric.csv": "dendrogram",
    "mst.dot": "tree",
    "mst.graphml": "tree",
    "dendrogram.nwk": "dendrogram",
    "census.json": "corr",
}

# ``run --formats`` entry -> the artifacts it selects
_FORMAT_ARTIFACTS = {
    "csv": ("corr.csv", "dist.csv", "ultrametric.csv"),
    "dot": ("mst.dot",),
    "graphml": ("mst.graphml",),
    "newick": ("dendrogram.nwk",),
    "json": ("census.json",),
}


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


def _artifact_text(name: str, stages: dict[str, Any]) -> str:
    """Text of the artifact file ``name`` (a key of :data:`_ARTIFACT_STAGE`)."""
    if name == "corr.csv":
        return matrix_csv(stages["corr"].assets, stages["corr"].rho)
    if name == "dist.csv":
        return matrix_csv(stages["dist"].assets, stages["dist"].d)
    if name == "ultrametric.csv":
        dhat = subdominant_ultrametric(stages["dendrogram"])
        return matrix_csv(dhat.assets, dhat.d)
    if name == "mst.dot":
        return export_dot(stages["tree"])
    if name == "mst.graphml":
        return export_graphml(stages["tree"])
    if name == "dendrogram.nwk":
        return export_newick(stages["dendrogram"])
    return census(stages["corr"]).to_json() + "\n"  # census.json


def _window_artifacts(
    directory: Path, sequence: TreeSequence, formats: Collection[str]
) -> dict[Path, str]:
    artifacts = {directory / "survival.csv": survival_csv(sequence)}
    pad = max(3, len(str(len(sequence) - 1)))
    for k, tree in enumerate(sequence.trees):
        stem = f"tree_{k:0{pad}d}"
        if "dot" in formats:
            artifacts[directory / f"{stem}.dot"] = export_dot(tree)
        if "graphml" in formats:
            artifacts[directory / f"{stem}.graphml"] = export_graphml(tree)
    return artifacts


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------- commands


def _cmd_view(args: argparse.Namespace) -> int:
    """``corr``, ``dist``, ``mst``, ``dendro`` and ``census``: one artifact to ``--out``."""
    name = f"mst.{args.format}" if args.command == "mst" else args.artifact
    stages = _run_stages(args, _ARTIFACT_STAGE[name])
    text = _artifact_text(name, stages)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write_text(Path(args.out), text)
    if getattr(args, "ultrametric", None) is not None:
        _write_text(Path(args.ultrametric), _artifact_text("ultrametric.csv", stages))
    return 0


def _cmd_dynamics(args: argparse.Namespace) -> int:
    returns = _run_stages(args, "returns")["returns"]
    sequence = rolling_trees(
        returns, WindowSpec(args.width, args.step), min_overlap=args.min_overlap
    )
    for path, text in _window_artifacts(Path(args.outdir), sequence, (args.format,)).items():
        _write_text(path, text)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """Every artifact of ``--formats`` (and the windows) composed in memory, then written.

    A failing stage therefore leaves no partial output. The census
    record goes to standard output either way.
    """
    window = WindowSpec(args.width, args.step) if args.width is not None else None
    # the whole chain runs for every --formats, so its errors do not depend on them
    stages = _run_stages(args, "dendrogram")
    line = _artifact_text("census.json", stages)
    out = Path(args.outdir)
    artifacts = {
        out / name: line if name == "census.json" else _artifact_text(name, stages)
        for fmt, names in _FORMAT_ARTIFACTS.items()
        if fmt in args.formats
        for name in names
    }
    if window is not None:
        sequence = rolling_trees(stages["returns"], window, min_overlap=args.min_overlap)
        artifacts.update(_window_artifacts(out / "windows", sequence, args.formats))
    for path, text in artifacts.items():
        _write_text(path, text)
    sys.stdout.write(line)
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
    dump_panel(generate(spec), args.out, delimiter=args.delimiter, missing_marker=args.missing)
    return 0


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


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


def _add_out_option(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--out", default="-", metavar="PATH", help=f"{what} destination ('-' for stdout)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="corrtree",
        description="Correlation-based hierarchical taxonomies of time-series panels.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("corr", help="write the correlation matrix as CSV")
    _add_input_options(p)
    _add_out_option(p, "matrix CSV")
    p.set_defaults(func=_cmd_view, artifact="corr.csv")

    p = sub.add_parser("dist", help="write the distance matrix as CSV")
    _add_input_options(p)
    _add_out_option(p, "matrix CSV")
    p.set_defaults(func=_cmd_view, artifact="dist.csv")

    p = sub.add_parser("mst", help="write the minimal spanning tree")
    _add_input_options(p)
    p.add_argument("--format", choices=("dot", "graphml"), default="dot")
    _add_out_option(p, "graph")
    p.set_defaults(func=_cmd_view)

    p = sub.add_parser("dendro", help="write the single-linkage dendrogram as Newick")
    _add_input_options(p)
    _add_out_option(p, "Newick tree")
    p.add_argument(
        "--ultrametric",
        metavar="PATH",
        default=None,
        help="also write the subdominant ultrametric matrix CSV here",
    )
    p.set_defaults(func=_cmd_view, artifact="dendrogram.nwk")

    p = sub.add_parser("census", help="print correlation-level counts as JSON")
    _add_input_options(p)
    _add_out_option(p, "JSON record")
    p.set_defaults(func=_cmd_view, artifact="census.json")

    p = sub.add_parser("dynamics", help="rolling-window trees and edge survival")
    _add_input_options(p)
    p.add_argument("--width", type=_int_at_least(3), required=True, help="window width in observations")
    p.add_argument("--step", type=_int_at_least(1), default=1, help="window step (default: %(default)s)")
    p.add_argument("--format", choices=("dot", "graphml"), default="dot")
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
    p.add_argument(
        "--formats",
        type=_formats_argument,
        default=EXPORT_FORMATS,
        metavar="LIST",
        help=f"comma list from {{{','.join(EXPORT_FORMATS)}}} (default: all)",
    )
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
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except CorrTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
