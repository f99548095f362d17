"""Traced child: run ``corrtree.cli.main`` with a span around every cross-layer call.

    python3 benchmark/tracer.py SPANS_JSON RUN_ID -- run INPUT --outdir DIR ...

The wrappers replace the function references that ``corrtree.cli`` and
``corrtree.dynamics`` hold (and the entries of ``cli._SIGNALS``), so no
library file changes. Spans are kept in memory and written to SPANS_JSON,
tagged with RUN_ID, when ``main`` returns; the exit code is ``main``'s.

Importing this module touches nothing: the benchmark's parent imports it
for the span and counter names.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from typing import Any, Callable

SIGNALS = "_SIGNALS[*]"  # every entry of the module's _SIGNALS table

# span name -> (module, attribute) references that lead into that layer
HOOKS: dict[str, list[tuple[str, str]]] = {
    "panel.load_panel": [("corrtree.cli", "load_panel")],
    "transforms.signal": [("corrtree.cli", SIGNALS)],
    "correlation.pearson_matrix": [("corrtree.cli", "pearson_matrix"), ("corrtree.dynamics", "pearson_matrix")],
    "correlation.census": [("corrtree.cli", "census")],
    "distance.to_distance": [("corrtree.cli", "to_distance"), ("corrtree.dynamics", "to_distance")],
    "mst.build_mst": [("corrtree.cli", "build_mst"), ("corrtree.dynamics", "build_mst")],
    "hierarchy.single_linkage": [("corrtree.cli", "single_linkage")],
    "hierarchy.subdominant_ultrametric": [("corrtree.cli", "subdominant_ultrametric")],
    "export.matrix_csv": [("corrtree.cli", "matrix_csv")],
    "export.graph": [
        ("corrtree.cli", "export_dot"),
        ("corrtree.cli", "export_graphml"),
        ("corrtree.cli", "export_newick"),
        ("corrtree.cli", "survival_csv"),
    ],
    "dynamics.rolling_trees": [("corrtree.cli", "rolling_trees")],
}
SPAN_NAMES = ("cli.main", *HOOKS)
COUNTERS = ("panel.bytes_read", "panel.cells", "export.matrix_csv.bytes", "dynamics.windows")

# span record fields, in order
NAME, PARENT, START, END, RSS_BEFORE_KB, RSS_AFTER_KB, ERROR = range(7)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _count(name: str, args: tuple, result: Any, counters: dict[str, int]) -> None:
    if name == "panel.load_panel":
        counters["panel.bytes_read"] += os.path.getsize(args[0])
        counters["panel.cells"] += result.values.size
    elif name == "export.matrix_csv":
        counters["export.matrix_csv.bytes"] += len(result.encode("utf-8"))
    elif name == "dynamics.rolling_trees":
        counters["dynamics.windows"] += len(result)


class Recorder:
    """In-memory spans of one process; the parent of a span is the one open when it began."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, self._open[-1] if self._open else -1, time.monotonic(), None, _maxrss_kb(), None, False]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.monotonic()
                span[RSS_AFTER_KB] = _maxrss_kb()
                self._open.pop()
            _count(name, args, result, self.counters)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every hook; return the references that no longer exist."""
        missing = []
        for name, targets in HOOKS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                if attr == SIGNALS and isinstance(getattr(module, "_SIGNALS", None), dict):
                    for key, fn in module._SIGNALS.items():
                        module._SIGNALS[key] = self.wrap(name, fn)
                elif attr != SIGNALS and callable(getattr(module, attr, None)):
                    setattr(module, attr, self.wrap(name, getattr(module, attr)))
                else:
                    missing.append(f"{module_name}.{attr}")
        return missing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON RUN_ID -- CORRTREE_ARGS...", file=sys.stderr)
        return 64
    recorder = Recorder()
    missing = recorder.install()
    cli = importlib.import_module("corrtree.cli")
    try:
        return recorder.wrap("cli.main", cli.main)(argv[3:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            doc = {"run_id": argv[1], "missing_hooks": missing, "spans": recorder.spans, "counters": recorder.counters}
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
