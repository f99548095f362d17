"""The public surface: exactly these names, each importable."""

import importlib
import importlib.util
from pathlib import Path

import corrtree

PUBLIC = [
    "ComparisonError",
    "CorrTreeError",
    "CorrelationCensus",
    "CorrelationMatrix",
    "DegenerateAssetError",
    "Dendrogram",
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
    "WindowSpec",
    "build_mst",
    "census",
    "dump_panel",
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
    "raw_signal",
    "rebase",
    "rolling_trees",
    "single_linkage",
    "spans_connected_subtree",
    "split_compare",
    "subdominant_ultrametric",
    "survival_csv",
    "to_distance",
    "zscore",
]

REMOVED = [
    "AlignmentError",
    "AxiomViolation",
    "ReturnsMatrix",
    "SIGNAL_KINDS",
    "ShapeError",
    "SplitComparison",
    "align_panels",
    "check_metric_axioms",
    "cophenetic_matrix",
    "tree_degrees",
]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 46
    assert sorted(corrtree.__all__) == sorted(PUBLIC)


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(corrtree, name) is not None, name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(corrtree, name), name
    assert not hasattr(corrtree.SpanningTree, "construction_order")
    assert not hasattr(corrtree.Dendrogram, "partition_at")


def test_benchmark_hooks_resolve():
    """Every library name the benchmark's tracer wraps still exists and is callable."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.HOOKS
    for targets in tracer.HOOKS.values():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            if attr == tracer.SIGNALS:
                assert module._SIGNALS and all(map(callable, module._SIGNALS.values()))
            else:
                assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
