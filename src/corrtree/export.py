"""Deterministic text serializations of trees, dendrograms and matrices.

Every function maps equal inputs to byte-identical output: fixed element
order, fixed float formatting, "\\n" line endings. Graph labels carry
4-decimal weights for readability; CSV cells keep full precision via
``repr`` so values round-trip exactly.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

import numpy as np

from .dynamics import TreeSequence
from .errors import SchemaError
from .hierarchy import Dendrogram
from .mst import SpanningTree


# xml.sax.saxutils' attribute rules, without the import: it pulls in urllib and email
_XML_ATTR = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"}
)


def _quoteattr(text: str) -> str:
    """The attribute quoted with '"', or with "'" when only that avoids escaping."""
    text = text.translate(_XML_ATTR)
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(tree: SpanningTree) -> str:
    """Undirected DOT graph: nodes sorted by label, edges in construction order."""
    quoted = {label: _dot_quote(label) for label in tree.assets}
    lines = ["graph mst {"]
    for label in sorted(tree.assets):
        lines.append(f"  {quoted[label]};")
    for e in tree.edges:
        lines.append(f"  {quoted[e.a]} -- {quoted[e.b]} [label=\"{e.weight:.4f}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graphml(tree: SpanningTree) -> str:
    """GraphML with a double-typed edge weight attribute, full precision."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="w" for="edge" attr.name="weight" attr.type="double"/>',
        '  <graph id="mst" edgedefault="undirected">',
    ]
    quoted = {label: _quoteattr(label) for label in tree.assets}
    for label in sorted(tree.assets):
        lines.append(f"    <node id={quoted[label]}/>")
    for e in tree.edges:
        lines.append(f"    <edge source={quoted[e.a]} target={quoted[e.b]}>")
        lines.append(f'      <data key="w">{float(e.weight)!r}</data>')
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


_NEWICK_UNSAFE = set(" \t\n(),:;'[]")


def _newick_label(label: str) -> str:
    if label and not _NEWICK_UNSAFE.intersection(label):
        return label
    return "'" + label.replace("'", "''") + "'"


def export_newick(dendrogram: Dendrogram) -> str:
    """Rooted Newick string with ultrametric branch lengths.

    A cluster merged at height h sits at depth h/2, so the leaf-to-leaf
    path length through the tree equals the cophenetic distance. The
    root carries length 0. Each merge lists first the child holding the
    smaller label, so the text does not depend on the order of the leaves.
    """
    n = dendrogram.n_leaves
    text: dict[int, str] = {i: _newick_label(lab) for i, lab in enumerate(dendrogram.leaves)}
    height: dict[int, float] = {i: 0.0 for i in range(n)}
    first = dict(enumerate(dendrogram.leaves))  # each cluster's smallest label
    for k, m in enumerate(dendrogram.merges):
        node = n + k
        first[node] = min(first[m.left], first[m.right])
        parts = []
        for child in sorted((m.left, m.right), key=first.pop):
            length = (m.height - height.pop(child)) / 2.0
            parts.append(f"{text.pop(child)}:{repr(float(length))}")
        text[node] = "(" + ",".join(parts) + ")"
        height[node] = m.height
    (root,) = text
    return text[root] + ":0.0;\n"


class _RowText:
    """A stand-in file: ``csv.writer(_RowText()).writerow`` returns the row's text."""

    def write(self, text: str) -> str:
        return text


def matrix_csv(labels: Sequence[str], values: np.ndarray) -> str:
    """Square matrix as CSV with a label header row and column."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(labels), len(labels)):
        raise SchemaError(f"matrix shape {values.shape} does not match {len(labels)} labels")
    row_text = csv.writer(_RowText(), lineterminator="\n").writerow
    lines = [row_text(["", *labels])]
    for label, row in zip(labels, values):
        # the label cell with csv's quoting and its comma; repr texts need no quoting
        lines.append(row_text([label, ""])[:-1] + ",".join(map(repr, row.tolist())) + "\n")
    return "".join(lines)


def survival_csv(sequence: TreeSequence) -> str:
    """Per-window survival series; the first window has no predecessor."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["window_index", "start", "end", "survival_vs_previous"])
    survival = sequence.survival_vs_previous()
    for k, ((start, end), s) in enumerate(zip(sequence.windows, survival)):
        writer.writerow([k, start, end, "" if s is None else repr(float(s))])
    return buffer.getvalue()
