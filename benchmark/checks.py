"""Validity checks of one `corrtree run` artifact directory against the reference.

Standard library only: the benchmark's parent process must stay small (see
prepare.py). Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

from workloads import Workload

GRAPHML_RTOL = 1e-9  # graphml weights carry full precision
DOT_HALF_ULP = 0.5e-4  # DOT labels round each weight to 4 decimals
_GRAPHML = "{http://graphml.graphdrawing.org/xmlns}"
_DOT_NODE = re.compile(r'^  "((?:[^"\\]|\\.)*)";$')
_DOT_EDGE = re.compile(r'^  "((?:[^"\\]|\\.)*)" -- "((?:[^"\\]|\\.)*)" \[label="([^"]*)"\];$')
_NEWICK_LEAF = re.compile(r"[(,]([^(),:;']+):")


def expected_files(w: Workload) -> set[str]:
    names = {
        "dot": ["mst.dot"],
        "graphml": ["mst.graphml"],
        "newick": ["dendrogram.nwk"],
        "csv": ["corr.csv", "dist.csv", "ultrametric.csv"],
        "json": ["census.json"],
    }
    files = {f for fmt in w.formats for f in names[fmt]}
    if w.window is not None:
        count = w.window_count
        pad = max(3, len(str(count - 1)))
        files.add("windows/survival.csv")
        for fmt in ("dot", "graphml"):
            if fmt in w.formats:
                files |= {f"windows/tree_{k:0{pad}d}.{fmt}" for k in range(count)}
    return files


def artifact_files(outdir: Path) -> dict[str, Path]:
    return {p.relative_to(outdir).as_posix(): p for p in sorted(outdir.rglob("*")) if p.is_file()}


def artifact_digest(outdir: Path) -> str:
    """SHA-256 over every artifact's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for rel, path in artifact_files(outdir).items():
        h.update(rel.encode() + b"\0")
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def _unescape_dot(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text)


def parse_dot(text: str) -> tuple[list[str], list[tuple[str, str, float]]]:
    lines = text.split("\n")
    if lines[0] != "graph mst {" or lines[-2:] != ["}", ""]:
        raise ValueError("not a corrtree DOT graph")
    nodes, edges = [], []
    for line in lines[1:-2]:
        if m := _DOT_NODE.match(line):
            nodes.append(_unescape_dot(m.group(1)))
        elif m := _DOT_EDGE.match(line):
            edges.append((_unescape_dot(m.group(1)), _unescape_dot(m.group(2)), float(m.group(3))))
        else:
            raise ValueError(f"unexpected DOT line {line[:80]!r}")
    return nodes, edges


def parse_graphml(text: str) -> tuple[list[str], list[tuple[str, str, float]]]:
    graph = ET.fromstring(text).find(f"{_GRAPHML}graph")
    if graph is None:
        raise ValueError("no <graph> element")
    nodes = [node.get("id") for node in graph.iter(f"{_GRAPHML}node")]
    edges = [
        (e.get("source"), e.get("target"), float(e.find(f"{_GRAPHML}data").text))
        for e in graph.iter(f"{_GRAPHML}edge")
    ]
    return nodes, edges


def tree_problems(
    where: str,
    nodes: list[str],
    edges: list[tuple[str, str, float]],
    labels: list[str],
    weight: float,
    tol: float,
) -> list[str]:
    """A spanning tree over exactly ``labels`` whose total weight is ``weight`` +- ``tol``."""
    if sorted(nodes) != sorted(labels):
        return [f"{where}: node set differs from the panel's labels"]
    if len(edges) != len(labels) - 1:
        return [f"{where}: {len(edges)} edges for {len(labels)} nodes"]
    root = {label: label for label in labels}

    def find(x: str) -> str:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a, b, _ in edges:
        if a not in root or b not in root:
            return [f"{where}: edge {a!r} -- {b!r} has an unknown endpoint"]
        ra, rb = find(a), find(b)
        if ra == rb:
            return [f"{where}: edge {a!r} -- {b!r} closes a cycle"]
        root[ra] = rb
    total = math.fsum(w for _, _, w in edges)
    if not abs(total - weight) <= tol:
        return [f"{where}: tree weight {total!r} differs from the reference {weight!r} by more than {tol:.3g}"]
    return []


def _dot_tol(n: int, weight: float) -> float:
    return (n - 1) * DOT_HALF_ULP + GRAPHML_RTOL * weight


def census_problems(where: str, text: str, ref: dict) -> list[str]:
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{where}: not JSON ({exc})"]
    n = len(ref["labels"])
    want = ref["census"]
    if not isinstance(got, dict) or set(got) != {"n", "strong", "weak", "negative"}:
        return [f"{where}: unexpected census record {text[:80]!r}"]
    problems = []
    if got["n"] != n:
        problems.append(f"{where}: n = {got['n']}, expected {n}")
    if got["strong"] + got["weak"] + got["negative"] != n * (n - 1) // 2:
        problems.append(f"{where}: census counts do not sum to n(n-1)/2")
    for key in ("strong", "weak", "negative"):
        if abs(got[key] - want[key]) > want["slack"]:
            problems.append(f"{where}: {key} = {got[key]}, reference {want[key]}")
    return problems


def newick_problems(where: str, text: str, labels: list[str]) -> list[str]:
    if not text.endswith(";\n") or text.count("(") != text.count(")"):
        return [f"{where}: not a complete Newick tree"]
    if sorted(_NEWICK_LEAF.findall(text)) != sorted(labels):
        return [f"{where}: leaves are not the panel's labels, each exactly once"]
    return []


def survival_problems(where: str, text: str, windows: int) -> list[str]:
    rows = list(csv.reader(text.splitlines()))
    if rows[:1] != [["window_index", "start", "end", "survival_vs_previous"]]:
        return [f"{where}: unexpected header"]
    if len(rows) - 1 != windows:
        return [f"{where}: {len(rows) - 1} window rows, expected {windows}"]
    for k, row in enumerate(rows[1:]):
        if len(row) != 4 or row[0] != str(k) or (k == 0) != (row[3] == ""):
            return [f"{where}: malformed row {k}"]
        if k and not 0.0 <= float(row[3]) <= 1.0:
            return [f"{where}: survival {row[3]} outside [0, 1]"]
    return []


def matrix_problems(where: str, path: Path, labels: list[str]) -> list[str]:
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
        rows = sum(1 for _ in fh)
    if header != ["", *labels] or rows != len(labels):
        return [f"{where}: not a {len(labels)}x{len(labels)} labelled matrix"]
    return []


def run_problems(w: Workload, outdir: Path, stdout: str, ref: dict) -> list[str]:
    """Everything wrong with one successful-exit run's outputs."""
    files = artifact_files(outdir)
    problems = []
    if set(files) != expected_files(w):
        missing = sorted(expected_files(w) - set(files))
        extra = sorted(set(files) - expected_files(w))
        problems.append(f"artifact set wrong: missing {missing[:3]}, unexpected {extra[:3]}")
    labels = ref["labels"]
    n = len(labels)
    weight = ref["mst_weight"]

    def read(rel: str) -> str | None:
        return files[rel].read_text(encoding="utf-8") if rel in files else None

    problems += census_problems("stdout", stdout, ref)
    try:
        if (text := read("census.json")) is not None and text != stdout:
            problems.append("census.json differs from the census line on stdout")
        if (text := read("mst.graphml")) is not None:
            problems += tree_problems("mst.graphml", *parse_graphml(text), labels, weight, GRAPHML_RTOL * weight)
        if (text := read("mst.dot")) is not None:
            problems += tree_problems("mst.dot", *parse_dot(text), labels, weight, _dot_tol(n, weight))
        if (text := read("dendrogram.nwk")) is not None:
            problems += newick_problems("dendrogram.nwk", text, labels)
        for rel in ("corr.csv", "dist.csv", "ultrametric.csv"):
            if rel in files:
                problems += matrix_problems(rel, files[rel], labels)
        if (text := read("windows/survival.csv")) is not None:
            problems += survival_problems("windows/survival.csv", text, w.window_count)
        for rel in sorted(files):
            if rel.startswith("windows/tree_") and rel.endswith(".dot"):
                k = int(rel[len("windows/tree_"):-len(".dot")])
                if k >= len(ref["window_weights"]):
                    continue  # already reported as an unexpected artifact
                wk = ref["window_weights"][k]
                problems += tree_problems(rel, *parse_dot(read(rel)), labels, wk, _dot_tol(n, wk))
    except (ValueError, TypeError, AttributeError, ET.ParseError, UnicodeDecodeError) as exc:
        problems.append(f"unparseable artifact: {exc!r}")
    return problems
