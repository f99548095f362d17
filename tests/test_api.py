"""The public surface: exactly these names, each importable."""

import importlib
import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import corrtree
import corrtree.cli

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

REMOVED = [
    "AlignmentError",
    "AxiomViolation",
    "ReturnsMatrix",
    "SIGNAL_KINDS",
    "ShapeError",
    "SplitComparison",
    "WindowSpec",
    "align_panels",
    "check_metric_axioms",
    "cophenetic_matrix",
    "dump_panel",
    "raw_signal",
    "tree_degrees",
    "zscore",
]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 42
    assert sorted(corrtree.__all__) == sorted(PUBLIC)


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(corrtree, name) is not None, name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(corrtree, name), name
    assert not hasattr(corrtree.SpanningTree, "construction_order")
    assert not hasattr(corrtree.Dendrogram, "partition_at")


def _tracer():
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_hooks_resolve():
    """Every library name the benchmark's tracer wraps still exists and is callable."""
    tracer = _tracer()
    assert tracer.HOOKS
    for targets in tracer.HOOKS.values():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            if attr == tracer.SIGNALS:
                assert module._SIGNALS and all(map(callable, module._SIGNALS.values()))
            else:
                assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_cli_calls_the_hooked_names(tmp_path, monkeypatch):
    """A windowed all-format ``run`` calls every ``corrtree.cli`` name the tracer wraps.

    A run without ``csv`` (the distance written over the correlation) still
    calls ``to_distance`` and ``census`` once each. The wrappers replace the
    module attributes, as the tracer does, so a caller holding a function
    object taken at import time bypasses them.
    """
    tracer = _tracer()
    calls = {}

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        return wrapper

    for targets in tracer.HOOKS.values():
        for module_name, attr in targets:
            if module_name != "corrtree.cli":
                continue
            calls[attr] = 0
            if attr == tracer.SIGNALS:
                for key, fn in corrtree.cli._SIGNALS.items():
                    monkeypatch.setitem(corrtree.cli._SIGNALS, key, counted(attr, fn))
            else:
                monkeypatch.setattr(corrtree.cli, attr, counted(attr, getattr(corrtree.cli, attr)))
    panel = tmp_path / "panel.csv"
    synth = ["synth", "--groups", "2x4", "--loading", "0.8", "--noise", "0.6", "--length", "120"]
    assert corrtree.cli.main([*synth, "--out", str(panel)]) == 0
    args = ["run", str(panel), "--signal", "raw", "--width", "40", "--step", "20"]
    with redirect_stdout(io.StringIO()):
        assert corrtree.cli.main([*args, "--outdir", str(tmp_path / "out")]) == 0
    assert calls and all(calls.values()), calls
    calls.update(dict.fromkeys(calls, 0))
    with redirect_stdout(io.StringIO()):
        assert corrtree.cli.main([*args, "--formats", "dot,newick,json", "--outdir", str(tmp_path / "trees")]) == 0
    assert calls["to_distance"] == calls["census"] == 1, calls
