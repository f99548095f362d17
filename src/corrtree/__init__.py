"""Correlation-based hierarchical taxonomies of time-series panels.

Pipeline: load a panel of signals, transform to returns, estimate the
Pearson correlation matrix, map it to the metric distance
d = sqrt(2 (1 - rho)), extract the minimal spanning tree, and read off
the single-linkage / subdominant-ultrametric dendrogram. Extras:
correlation censuses, rolling-window tree dynamics, a deterministic
factor-model panel generator, and deterministic exporters.
"""

from .correlation import (
    STRONG_THRESHOLD,
    CorrelationCensus,
    CorrelationMatrix,
    census,
    pearson_matrix,
)
from .distance import DistanceMatrix, to_distance
from .dynamics import (
    TreeSequence,
    edge_survival,
    rolling_trees,
    split_compare,
)
from .errors import (
    ComparisonError,
    CorrTreeError,
    DegenerateAssetError,
    DomainError,
    GeneratorSpecError,
    InsufficientDataError,
    PanelParseError,
    SchemaError,
    SizeError,
    UnknownAssetError,
)
from .export import export_dot, export_graphml, export_newick, matrix_csv, survival_csv
from .hierarchy import Dendrogram, Merge, single_linkage, subdominant_ultrametric
from .mst import SpanningTree, TreeEdge, build_mst, spans_connected_subtree
from .panel import TimeSeriesPanel, load_panel
from .synth import FactorModelSpec, generate, parse_group_spec
from .transforms import log_returns, rank_signal, rebase

__version__ = "0.1.0"

__all__ = [
    "ComparisonError",
    "CorrTreeError",
    "CorrelationCensus",
    "CorrelationMatrix",
    "Dendrogram",
    "DegenerateAssetError",
    "DistanceMatrix",
    "DomainError",
    "FactorModelSpec",
    "GeneratorSpecError",
    "InsufficientDataError",
    "Merge",
    "PanelParseError",
    "STRONG_THRESHOLD",
    "SchemaError",
    "SizeError",
    "SpanningTree",
    "TimeSeriesPanel",
    "TreeEdge",
    "TreeSequence",
    "UnknownAssetError",
    "build_mst",
    "census",
    "edge_survival",
    "export_dot",
    "export_graphml",
    "export_newick",
    "generate",
    "load_panel",
    "log_returns",
    "matrix_csv",
    "parse_group_spec",
    "pearson_matrix",
    "rank_signal",
    "rebase",
    "rolling_trees",
    "single_linkage",
    "spans_connected_subtree",
    "split_compare",
    "subdominant_ultrametric",
    "survival_csv",
    "to_distance",
]
