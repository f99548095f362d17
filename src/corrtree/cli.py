"""Command-line orchestration of the panel -> taxonomy pipeline.

Exit codes: 0 success, 1 bad command line, 2 data/domain error (bad
input file, degenerate series, unknown label, unreadable path),
3 unexpected internal failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .correlation import CorrelationCensus, census, pearson_matrix
from .distance import to_distance
from .dynamics import TreeSequence, WindowSpec, rolling_trees
from .errors import CorrTreeError, GeneratorSpecError, SchemaError
from .export import export_dot, export_graphml, export_newick, matrix_csv, survival_csv
from .hierarchy import single_linkage, subdominant_ultrametric
from .mst import build_mst
from .panel import TimeSeriesPanel, dump_panel, load_panel
from .synth import FactorModelSpec, generate, parse_group_spec
from .transforms import ReturnsMatrix, log_returns, rank_signal, raw_signal, rebase, zscore

_SIGNALS: dict[str, Callable[[TimeSeriesPanel], ReturnsMatrix]] = {
    "log-return": log_returns,
    "raw": raw_signal,
    "rank": rank_signal,
    "zscore": zscore,
}

EXPORT_FORMATS = ("dot", "graphml", "newick", "csv", "json")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the full pipeline run needs, validated up front."""

    input_path: Path
    output_dir: Path
    signal: str = "log-return"
    rebase_to: str | None = None
    numeraire: str = "USD"
    window: WindowSpec | None = None
    formats: frozenset[str] = frozenset(EXPORT_FORMATS)
    delimiter: str = ","
    missing_marker: str = "NA"
    min_overlap: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_path", Path(self.input_path))
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        object.__setattr__(self, "formats", frozenset(self.formats))
        if not self.formats:
            raise SchemaError("need at least one export format")
        unknown = self.formats.difference(EXPORT_FORMATS)
        if unknown:
            raise SchemaError(f"unknown export format(s): {sorted(unknown)}")
        if self.signal not in _SIGNALS:
            raise SchemaError(
                f"unknown signal {self.signal!r}; expected one of {sorted(_SIGNALS)}"
            )
        if self.min_overlap < 2:
            raise SchemaError(f"min_overlap must be >= 2, got {self.min_overlap}")


def _load_returns(cfg: PipelineConfig) -> ReturnsMatrix:
    panel = load_panel(
        cfg.input_path,
        delimiter=cfg.delimiter,
        missing_markers=("", cfg.missing_marker),
    )
    if cfg.rebase_to is not None:
        panel = rebase(panel, cfg.rebase_to, numeraire=cfg.numeraire)
    return _SIGNALS[cfg.signal](panel)


def _window_pad(count: int) -> int:
    return max(3, len(str(count - 1)))


def run_pipeline(cfg: PipelineConfig) -> int:
    """Run panel -> correlation -> distance -> tree -> dendrogram, write artifacts.

    All artifacts are composed in memory before anything touches disk,
    so a failing stage leaves no partial output. The census record is
    printed to standard output either way.
    """
    returns = _load_returns(cfg)
    corr = pearson_matrix(returns, min_overlap=cfg.min_overlap)
    dist = to_distance(corr)
    tree = build_mst(dist)
    dendrogram = single_linkage(tree)
    counts = census(corr)

    out = cfg.output_dir
    artifacts: dict[Path, str] = {}
    if "csv" in cfg.formats:
        artifacts[out / "corr.csv"] = matrix_csv(corr.assets, corr.rho)
        artifacts[out / "dist.csv"] = matrix_csv(dist.assets, dist.d)
        dhat = subdominant_ultrametric(tree)
        artifacts[out / "ultrametric.csv"] = matrix_csv(dhat.assets, dhat.d)
    if "dot" in cfg.formats:
        artifacts[out / "mst.dot"] = export_dot(tree)
    if "graphml" in cfg.formats:
        artifacts[out / "mst.graphml"] = export_graphml(tree)
    if "newick" in cfg.formats:
        artifacts[out / "dendrogram.nwk"] = export_newick(dendrogram)
    if "json" in cfg.formats:
        artifacts[out / "census.json"] = _census_line(counts)
    if cfg.window is not None:
        sequence = rolling_trees(returns, cfg.window, min_overlap=cfg.min_overlap)
        artifacts.update(_window_artifacts(out / "windows", sequence, cfg.formats))

    for path, text in artifacts.items():
        _write_text(path, text)
    sys.stdout.write(_census_line(counts))
    return 0


def _window_artifacts(
    directory: Path, sequence: TreeSequence, formats: frozenset[str]
) -> dict[Path, str]:
    artifacts = {directory / "survival.csv": survival_csv(sequence)}
    pad = _window_pad(len(sequence))
    for k, tree in enumerate(sequence.trees):
        stem = f"tree_{k:0{pad}d}"
        if "dot" in formats:
            artifacts[directory / f"{stem}.dot"] = export_dot(tree)
        if "graphml" in formats:
            artifacts[directory / f"{stem}.graphml"] = export_graphml(tree)
    return artifacts


def _census_line(counts: CorrelationCensus) -> str:
    return counts.to_json() + "\n"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit(target: str, text: str) -> None:
    if target == "-":
        sys.stdout.write(text)
    else:
        _write_text(Path(target), text)


# ---------------------------------------------------------------- commands


def _config_from_args(args: argparse.Namespace, **overrides: object) -> PipelineConfig:
    return PipelineConfig(
        input_path=args.input,
        output_dir=overrides.pop("output_dir", Path(".")),
        signal=args.signal,
        rebase_to=args.rebase,
        numeraire=args.numeraire,
        delimiter=args.delimiter,
        missing_marker=args.missing,
        min_overlap=args.min_overlap,
        **overrides,
    )


def _cmd_corr(args: argparse.Namespace) -> int:
    corr = pearson_matrix(_load_returns(_config_from_args(args)), min_overlap=args.min_overlap)
    _emit(args.out, matrix_csv(corr.assets, corr.rho))
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    corr = pearson_matrix(_load_returns(_config_from_args(args)), min_overlap=args.min_overlap)
    dist = to_distance(corr)
    _emit(args.out, matrix_csv(dist.assets, dist.d))
    return 0


def _cmd_mst(args: argparse.Namespace) -> int:
    corr = pearson_matrix(_load_returns(_config_from_args(args)), min_overlap=args.min_overlap)
    tree = build_mst(to_distance(corr))
    text = export_dot(tree) if args.format == "dot" else export_graphml(tree)
    _emit(args.out, text)
    return 0


def _cmd_dendro(args: argparse.Namespace) -> int:
    corr = pearson_matrix(_load_returns(_config_from_args(args)), min_overlap=args.min_overlap)
    tree = build_mst(to_distance(corr))
    _emit(args.out, export_newick(single_linkage(tree)))
    if args.ultrametric is not None:
        dhat = subdominant_ultrametric(tree)
        _write_text(Path(args.ultrametric), matrix_csv(dhat.assets, dhat.d))
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    corr = pearson_matrix(_load_returns(_config_from_args(args)), min_overlap=args.min_overlap)
    _emit(args.out, _census_line(census(corr)))
    return 0


def _cmd_dynamics(args: argparse.Namespace) -> int:
    returns = _load_returns(_config_from_args(args))
    sequence = rolling_trees(
        returns, WindowSpec(args.width, args.step), min_overlap=args.min_overlap
    )
    artifacts = _window_artifacts(Path(args.outdir), sequence, frozenset((args.format,)))
    for path, text in artifacts.items():
        _write_text(path, text)
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
    returns = generate(spec)
    panel = TimeSeriesPanel(
        returns.assets,
        tuple(range(returns.observations.shape[0])),
        returns.observations,
    )
    dump_panel(panel, args.out, delimiter=args.delimiter, missing_marker=args.missing)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    window = WindowSpec(args.width, args.step) if args.width is not None else None
    cfg = _config_from_args(
        args,
        output_dir=Path(args.outdir),
        window=window,
        formats=frozenset(args.formats),
    )
    return run_pipeline(cfg)


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
    p.set_defaults(func=_cmd_corr)

    p = sub.add_parser("dist", help="write the distance matrix as CSV")
    _add_input_options(p)
    _add_out_option(p, "matrix CSV")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("mst", help="write the minimal spanning tree")
    _add_input_options(p)
    p.add_argument("--format", choices=("dot", "graphml"), default="dot")
    _add_out_option(p, "graph")
    p.set_defaults(func=_cmd_mst)

    p = sub.add_parser("dendro", help="write the single-linkage dendrogram as Newick")
    _add_input_options(p)
    _add_out_option(p, "Newick tree")
    p.add_argument(
        "--ultrametric",
        metavar="PATH",
        default=None,
        help="also write the subdominant ultrametric matrix CSV here",
    )
    p.set_defaults(func=_cmd_dendro)

    p = sub.add_parser("census", help="print correlation-level counts as JSON")
    _add_input_options(p)
    _add_out_option(p, "JSON record")
    p.set_defaults(func=_cmd_census)

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
