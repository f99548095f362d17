"""Greedy spanning tree construction against the exhaustive oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrtree import (
    DistanceMatrix,
    DomainError,
    SchemaError,
    SizeError,
    SpanningTree,
    TreeEdge,
    UnknownAssetError,
    build_mst,
    spans_connected_subtree,
    to_distance,
)
from helpers import corr_from_pairs, peak_bytes, random_data_distance
from oracles import mst_oracle


def distance_from(labels, entries):
    n = len(labels)
    d = np.zeros((n, n))
    index = {a: i for i, a in enumerate(labels)}
    for (a, b), w in entries.items():
        d[index[a], index[b]] = d[index[b], index[a]] = float(w)
    return DistanceMatrix(tuple(labels), d)


BANK_CORR = {
    ("C", "JPM"): 0.72,
    ("AXP", "C"): 0.68,
    ("AXP", "JPM"): 0.65,
    ("AXP", "GE"): 0.61,
    ("C", "GE"): 0.30,
    ("GE", "JPM"): 0.25,
}


class TestBuildMst:
    def test_three_node_chain(self):
        dist = distance_from("ABC", {("A", "B"): 1.0, ("B", "C"): 2.0, ("A", "C"): 3.0})
        tree = build_mst(dist)
        assert tree.edge_set() == {("A", "B"), ("B", "C")}
        assert tree.total_weight() == 3.0

    def test_construction_trace_on_bank_panel(self):
        dist = to_distance(corr_from_pairs(("AXP", "C", "GE", "JPM"), BANK_CORR))
        tree = build_mst(dist)
        order = {(e.a, e.b): k for k, e in enumerate(tree.edges)}
        assert order[("C", "JPM")] == 0
        assert order[("AXP", "C")] == 1
        assert order[("AXP", "GE")] == 2
        # the third-strongest pair would close a cycle and must be absent
        assert ("AXP", "JPM") not in tree.edge_set()

    def test_tie_break_is_lexicographic(self):
        dist = distance_from("ABC", {("A", "B"): 1.0, ("B", "C"): 1.0, ("A", "C"): 1.0})
        tree = build_mst(dist)
        assert tree.edges[0][:2] == ("A", "B")
        assert tree.edges[1][:2] == ("A", "C")

    def test_edges_in_ascending_weight(self):
        rng = np.random.default_rng(2)
        tree = build_mst(random_data_distance(rng, 12))
        weights = [e.weight for e in tree.edges]
        assert weights == sorted(weights)

    def test_single_asset_rejected(self):
        with pytest.raises(SizeError):
            build_mst(DistanceMatrix(("A",), np.zeros((1, 1))))

    def test_non_finite_distance_rejected(self):
        d = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(DomainError):
            build_mst(DistanceMatrix(("A", "B"), d))

    def test_determinism(self):
        rng = np.random.default_rng(3)
        dist = random_data_distance(rng, 10)
        assert build_mst(dist).edges == build_mst(dist).edges

    def test_peak_memory(self):
        """Prim keeps O(n) scratch and reads the matrix in place: a copy would cost 1.0."""
        dist = random_data_distance(np.random.default_rng(14), 1200, 250)
        tree, peak = peak_bytes(build_mst, dist)
        assert tree.n_assets == 1200
        assert peak <= 0.1 * dist.d.nbytes


class TestSpanningTreeValidation:
    def test_edge_count_enforced(self):
        with pytest.raises(SchemaError):
            SpanningTree(("A", "B", "C"), (TreeEdge("A", "B", 1.0),))

    @pytest.mark.parametrize(
        "assets, edges",
        [
            (("A",), ()),
            (("A", "A", "B"), (TreeEdge("A", "B", 1.0), TreeEdge("A", "B", 1.0))),
        ],
        ids=["one-asset", "duplicate-assets"],
    )
    def test_needs_two_distinct_assets(self, assets, edges):
        with pytest.raises(SchemaError, match=r"^a spanning tree needs at least 2 uniquely labelled assets$"):
            SpanningTree(assets, edges)

    def test_cycle_rejected(self):
        edges = (TreeEdge("A", "B", 1.0), TreeEdge("A", "B", 2.0))
        with pytest.raises(SchemaError, match="cycle"):
            SpanningTree(("A", "B", "C"), edges)

    def test_unknown_endpoint(self):
        edges = (TreeEdge("A", "Z", 1.0), TreeEdge("B", "C", 1.0))
        with pytest.raises(SchemaError, match="unknown"):
            SpanningTree(("A", "B", "C"), edges)

    def test_endpoint_ordering_enforced(self):
        edges = (TreeEdge("B", "A", 1.0), TreeEdge("B", "C", 1.0))
        with pytest.raises(SchemaError, match="a < b"):
            SpanningTree(("A", "B", "C"), edges)

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, -1.0, -5e-324])
    def test_weight_must_be_finite_and_non_negative(self, weight):
        edges = (TreeEdge("A", "B", 1.0), TreeEdge("B", "C", weight))
        with pytest.raises(DomainError, match="'B' -- 'C': weight must be finite and >= 0"):
            SpanningTree(("A", "B", "C"), edges)

    def test_weight_checked_after_ordering_and_before_cycle(self):
        with pytest.raises(SchemaError, match="a < b"):
            SpanningTree(("A", "B"), (TreeEdge("B", "A", np.nan),))
        edges = (TreeEdge("A", "B", 1.0), TreeEdge("A", "B", np.nan))
        with pytest.raises(DomainError, match="weight"):
            SpanningTree(("A", "B", "C"), edges)

    def test_negative_zero_weight_accepted(self):
        tree = SpanningTree(("A", "B"), (TreeEdge("A", "B", -0.0),))
        assert np.signbit(tree.edges[0].weight)


class TestOracle:
    def test_two_assets(self):
        dist = distance_from("AB", {("A", "B"): 0.4})
        tree = mst_oracle(dist)
        assert tree.edges == (TreeEdge("A", "B", 0.4),)

    def test_size_bound(self):
        rng = np.random.default_rng(4)
        with pytest.raises(SizeError):
            mst_oracle(random_data_distance(rng, 9))

    def test_agrees_with_greedy_on_random_instances(self):
        rng = np.random.default_rng(5)
        for trial in range(60):
            n = int(rng.integers(3, 8))
            dist = random_data_distance(rng, n)
            assert build_mst(dist).total_weight() == mst_oracle(dist).total_weight()

    def test_agrees_under_heavy_ties(self):
        # quantized weights force many equal-weight trees
        rng = np.random.default_rng(6)
        for trial in range(40):
            n = int(rng.integers(3, 7))
            labels = tuple(f"S{i:02d}" for i in range(n))
            w = rng.integers(1, 5, size=(n, n)) / 4.0
            d = np.triu(w, 1)
            d = d + d.T
            dist = DistanceMatrix(labels, d)
            greedy = build_mst(dist)
            exact = mst_oracle(dist)
            assert greedy.total_weight() == exact.total_weight()

    @settings(max_examples=30)
    @given(st.integers(0, 2**31 - 1))
    def test_greedy_never_beaten_by_random_tree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        dist = random_data_distance(rng, n)
        greedy_total = build_mst(dist).total_weight()
        labels = dist.assets
        # random spanning tree from a random leaf-attachment sequence
        order = rng.permutation(n)
        total = 0.0
        for pos in range(1, n):
            parent = order[int(rng.integers(0, pos))]
            total += dist.d[order[pos], parent]
        assert greedy_total <= total + 1e-12


class TestTreeUtilities:
    def test_degree_sum(self):
        rng = np.random.default_rng(7)
        tree = build_mst(random_data_distance(rng, 9))
        degrees = {a: 0 for a in tree.assets}
        for e in tree.edges:
            degrees[e.a] += 1
            degrees[e.b] += 1
        assert sum(degrees.values()) == 2 * (tree.n_assets - 1)
        assert min(degrees.values()) >= 1

    def test_subtree_connectivity(self):
        dist = distance_from(
            "ABCD",
            {
                ("A", "B"): 1.0,
                ("B", "C"): 1.0,
                ("C", "D"): 1.0,
                ("A", "C"): 5.0,
                ("A", "D"): 5.0,
                ("B", "D"): 5.0,
            },
        )
        tree = build_mst(dist)  # path A-B-C-D
        assert spans_connected_subtree(tree, ["A", "B"])
        assert spans_connected_subtree(tree, ["A", "B", "C"])
        assert not spans_connected_subtree(tree, ["A", "C"])
        assert spans_connected_subtree(tree, ["B"])

    def test_subtree_unknown_label(self):
        dist = distance_from("AB", {("A", "B"): 1.0})
        with pytest.raises(UnknownAssetError):
            spans_connected_subtree(build_mst(dist), ["A", "Z"])

    def test_subtree_needs_a_label(self):
        dist = distance_from("AB", {("A", "B"): 1.0})
        with pytest.raises(SizeError, match=r"^need at least one label$"):
            spans_connected_subtree(build_mst(dist), [])
