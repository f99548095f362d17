"""Serialization: DOT, GraphML, Newick, matrix CSV, survival CSV."""

import csv
import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from corrtree import (
    Dendrogram,
    Merge,
    SchemaError,
    SpanningTree,
    TreeEdge,
    build_mst,
    export_dot,
    export_graphml,
    export_newick,
    matrix_csv,
    rolling_trees,
    single_linkage,
    subdominant_ultrametric,
    survival_csv,
    to_distance,
    pearson_matrix,
)
from helpers import random_data_distance, returns
from oracles import partition_at


def two_node_tree(weight=0.8):
    return SpanningTree(("A", "B"), (TreeEdge("A", "B", weight),))


class TestDot:
    def test_two_node_frame(self):
        text = export_dot(two_node_tree())
        assert text == 'graph mst {\n  "A";\n  "B";\n  "A" -- "B" [label="0.8000"];\n}\n'

    def test_nodes_sorted_edges_in_construction_order(self):
        tree = SpanningTree(
            ("C", "A", "B"),
            (TreeEdge("B", "C", 0.5), TreeEdge("A", "B", 0.7)),
        )
        lines = export_dot(tree).splitlines()
        assert lines[1:4] == ['  "A";', '  "B";', '  "C";']
        assert lines[4].startswith('  "B" -- "C"')

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        tree = build_mst(random_data_distance(rng, 10))
        assert export_dot(tree) == export_dot(tree)

    def test_edge_count_matches_tree(self):
        rng = np.random.default_rng(2)
        tree = build_mst(random_data_distance(rng, 30))
        edge_lines = [l for l in export_dot(tree).splitlines() if " -- " in l]
        assert len(edge_lines) == 29

    def test_label_quoting(self):
        tree = SpanningTree(('A"x', "B"), (TreeEdge('A"x', "B", 1.0),))
        text = export_dot(tree)
        assert '"A\\"x"' in text


class TestGraphml:
    def test_round_trip_edge_set_and_weights(self):
        rng = np.random.default_rng(3)
        tree = build_mst(random_data_distance(rng, 12))
        root = ET.fromstring(export_graphml(tree))
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        nodes = {el.get("id") for el in root.findall(".//g:node", ns)}
        assert nodes == set(tree.assets)
        parsed = {}
        for el in root.findall(".//g:edge", ns):
            weight = float(el.find("g:data", ns).text)
            parsed[(el.get("source"), el.get("target"))] = weight
        assert parsed == {(e.a, e.b): e.weight for e in tree.edges}

    def test_deterministic(self):
        tree = two_node_tree(0.125)
        assert export_graphml(tree) == export_graphml(tree)

    def test_weight_full_precision(self):
        tree = two_node_tree(0.7483314773547883)
        assert ">0.7483314773547883<" in export_graphml(tree)

    def test_attribute_escaping(self):
        tree = SpanningTree(("A&<>", "B"), (TreeEdge("A&<>", "B", 1.0),))
        text = export_graphml(tree)
        assert "&amp;" in text and "<node id=\"A&amp;&lt;&gt;\"/>" in text
        ET.fromstring(text)  # well-formed

    def test_escaping_matches_saxutils(self):
        from itertools import product
        from xml.sax.saxutils import quoteattr

        from corrtree.export import _quoteattr

        specials = "&<>\"'\n\r\t"
        texts = ["", "plain", "é€", "&amp;", "&#10;"]
        texts += ["".join(p) for k in (1, 2, 3) for p in product(specials + "x", repeat=k)]
        for text in texts:
            assert _quoteattr(text) == quoteattr(text), text

    def test_special_labels_golden(self):
        from xml.sax.saxutils import quoteattr

        labels = ("A&B", "<C>", 'say "hi"', "it's", 'both "\'', "tab\tnew\nret\r")
        edges = tuple(TreeEdge(*sorted((a, b)), 0.5) for a, b in zip(labels, labels[1:]))
        text = export_graphml(SpanningTree(labels, edges))
        nodes = [line for line in text.splitlines() if line.startswith("    <node ")]
        assert nodes == [f"    <node id={quoteattr(label)}/>" for label in sorted(labels)]
        assert f"<edge source={quoteattr(edges[0].a)} target={quoteattr(edges[0].b)}>" in text
        parsed = ET.fromstring(text)
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        assert [node.get("id") for node in parsed.iter(ns + "node")] == sorted(labels)


def parse_newick(text):
    """Minimal reader for the emitted subset: ``(a:1,b:2):0.0;``."""
    text = text.strip()
    pos = 0

    def node():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            children = [node()]
            while text[pos] == ",":
                pos += 1
                children.append(node())
            assert text[pos] == ")"
            pos += 1
            name = None
        else:
            start = pos
            while text[pos] not in ":,();":
                pos += 1
            name = text[start:pos]
            children = []
        assert text[pos] == ":"
        pos += 1
        start = pos
        while text[pos] not in ",();":
            pos += 1
        return {"name": name, "children": children, "length": float(text[start:pos])}

    root = node()
    assert text[pos] == ";"
    return root


def leaf_sets(node, acc):
    if not node["children"]:
        leaves = frozenset([node["name"]])
    else:
        leaves = frozenset()
        for child in node["children"]:
            leaves |= leaf_sets(child, acc)
        acc.append(leaves)
    return leaves


def leaf_depths(node, depth, out):
    depth += node["length"]
    if not node["children"]:
        out[node["name"]] = depth
    for child in node["children"]:
        leaf_depths(child, depth, out)


class TestNewick:
    def test_single_merge_frozen(self):
        dg = Dendrogram(("A", "B"), (Merge(0, 1, 0.2),))
        assert export_newick(dg) == "(A:0.1,B:0.1):0.0;\n"

    def test_nested_structure(self):
        # dyadic heights keep every branch length exact in binary64
        dg = Dendrogram(("A", "B", "C"), (Merge(0, 1, 0.25), Merge(2, 3, 0.75)))
        text = export_newick(dg)
        assert text == "((A:0.125,B:0.125):0.25,C:0.375):0.0;\n"

    def test_parse_back_recovers_merge_partitions(self):
        rng = np.random.default_rng(4)
        dist = random_data_distance(rng, 9)
        dg = single_linkage(build_mst(dist))
        acc = []
        leaf_sets(parse_newick(export_newick(dg)), acc)

        # the heights are distinct, so every merge's cluster is a block of
        # the partition at its height
        expected = {
            block for m in dg.merges for block in partition_at(dg, m.height) if len(block) > 1
        }
        assert len({m.height for m in dg.merges}) == len(dg.merges)
        assert len(acc) == len(dg.merges)
        assert set(acc) == expected

    def test_leaf_to_leaf_path_equals_cophenetic(self):
        rng = np.random.default_rng(5)
        dist = random_data_distance(rng, 7)
        dg = single_linkage(build_mst(dist))
        coph = subdominant_ultrametric(dg)
        index = {a: i for i, a in enumerate(coph.assets)}
        root = parse_newick(export_newick(dg))
        depths = {}
        leaf_depths(root, 0.0, depths)
        top = max(m.height for m in dg.merges)
        for depth in depths.values():
            assert abs(depth - top / 2.0) <= 1e-12

        def walk(node, depth):
            depth += node["length"]
            if not node["children"]:
                return {node["name"]: depth}
            sides = [walk(child, depth) for child in node["children"]]
            for a, da in sides[0].items():
                for b, db in sides[1].items():
                    got = da + db - 2.0 * depth
                    assert abs(coph.d[index[a], index[b]] - got) <= 1e-12
            return sides[0] | sides[1]

        walk(root, 0.0)

    def test_label_quoting(self):
        dg = Dendrogram(("A B", "C'd"), (Merge(0, 1, 0.2),))
        text = export_newick(dg)
        assert "'A B'" in text
        assert "'C''d'" in text

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        dg = single_linkage(build_mst(random_data_distance(rng, 8)))
        assert export_newick(dg) == export_newick(dg)


class TestMatrixCsv:
    def test_layout_and_precision(self):
        d = np.array([[0.0, 1.0 / 3.0], [1.0 / 3.0, 0.0]])
        text = matrix_csv(("A", "B"), d)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["", "A", "B"]
        assert rows[1][0] == "A"
        assert float(rows[1][2]) == 1.0 / 3.0  # repr round-trips exactly

    def test_label_with_delimiter_quoted(self):
        d = np.zeros((2, 2))
        text = matrix_csv(("A,x", "B"), d)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][1] == "A,x"

    def test_bytes_equal_csv_writer(self):
        """Labels that need quoting, -0.0, NaN, subnormal and integer cells."""
        labels = ["a,b", 'q"q', "n\nl", "c\rr", "t\tb", " lead", "\u00e9", ""]
        n = len(labels)
        d = np.random.default_rng(9).standard_normal((n, n))
        d[0, 1], d[1, 0], d[2, 3] = -0.0, np.nan, 5e-324
        for values in (d, np.arange(n * n).reshape(n, n)):
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(["", *labels])
            for label, row in zip(labels, values):
                writer.writerow([label, *(repr(float(v)) for v in row)])
            assert matrix_csv(labels, values) == buffer.getvalue()

    @pytest.mark.parametrize(
        "labels, values, message",
        [
            (("a",), np.eye(2), r"^matrix shape \(2, 2\) does not match 1 labels$"),
            (("a", "b", "c"), np.eye(2), r"^matrix shape \(2, 2\) does not match 3 labels$"),
            (("a", "b"), np.ones((2, 3)), r"^matrix shape \(2, 3\) does not match 2 labels$"),
            (("a", "b"), np.ones(2), r"^matrix shape \(2,\) does not match 2 labels$"),
        ],
        ids=["too-few-labels", "too-many-labels", "non-square", "one-dimensional"],
    )
    def test_shape_must_match_labels(self, labels, values, message):
        with pytest.raises(SchemaError, match=message):
            matrix_csv(labels, values)


class TestSurvivalCsv:
    def test_header_and_blank_first_entry(self):
        rng = np.random.default_rng(7)
        r = returns(rng.standard_normal((30, 4)))
        seq = rolling_trees(r, 10, 10)
        text = survival_csv(seq)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["window_index", "start", "end", "survival_vs_previous"]
        assert rows[1] == ["0", "0", "10", ""]
        assert rows[2][0] == "1"
        assert 0.0 <= float(rows[2][3]) <= 1.0

    def test_matches_pairwise_survival(self):
        from corrtree import edge_survival

        rng = np.random.default_rng(8)
        r = returns(rng.standard_normal((40, 5)))
        seq = rolling_trees(r, 20, 5)
        text = survival_csv(seq)
        rows = list(csv.reader(io.StringIO(text)))[2:]
        for k, row in enumerate(rows, start=1):
            expected = edge_survival(seq.trees[k - 1], seq.trees[k])
            assert float(row[3]) == expected
