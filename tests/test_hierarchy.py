"""Dendrograms read off the spanning tree, against agglomeration and scipy."""

import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
import scipy.spatial.distance as ssd
from hypothesis import given, settings
from hypothesis import strategies as st

from corrtree import (
    Dendrogram,
    DomainError,
    Merge,
    SchemaError,
    SizeError,
    SpanningTree,
    TreeEdge,
    build_mst,
    single_linkage,
    subdominant_ultrametric,
)
from helpers import random_data_distance
from oracles import agglomerate_full_argmin, partition_at
from test_mst import distance_from


class TestSingleLinkage:
    def test_three_asset_merge_sequence(self):
        dist = distance_from(
            "ABC", {("A", "B"): 0.2, ("A", "C"): 0.9, ("B", "C"): 0.7}
        )
        dg = single_linkage(build_mst(dist))
        assert dg.merges == (Merge(0, 1, 0.2), Merge(2, 3, 0.7))

    def test_needs_two_assets(self):
        from corrtree import DistanceMatrix

        with pytest.raises(SizeError):
            single_linkage(build_mst(DistanceMatrix(("A",), np.zeros((1, 1)))))

    def test_heights_non_decreasing(self):
        rng = np.random.default_rng(1)
        dg = single_linkage(build_mst(random_data_distance(rng, 10)))
        heights = [m.height for m in dg.merges]
        assert heights == sorted(heights)

    def test_matches_scipy_cophenetic(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(3, 12))
            dist = random_data_distance(rng, n)
            ours = subdominant_ultrametric(single_linkage(build_mst(dist))).d
            link = sch.linkage(ssd.squareform(dist.d, checks=False), method="single")
            theirs = ssd.squareform(sch.cophenet(link))
            assert np.max(np.abs(ours - theirs)) <= 1e-12

    def test_non_finite_rejected(self):
        from corrtree import DistanceMatrix

        d = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(DomainError):
            single_linkage(build_mst(DistanceMatrix(("A", "B"), d)))
        with pytest.raises(DomainError):
            single_linkage(SpanningTree(("A", "B"), (TreeEdge("A", "B", np.inf),)))


class TestSubdominantUltrametric:
    def test_max_edge_on_path(self):
        dist = distance_from(
            "ABCD",
            {
                ("A", "B"): 0.1,
                ("B", "C"): 0.5,
                ("C", "D"): 0.2,
                ("A", "C"): 0.9,
                ("A", "D"): 0.9,
                ("B", "D"): 0.9,
            },
        )
        dhat = subdominant_ultrametric(single_linkage(build_mst(dist)))
        idx = {a: i for i, a in enumerate(dhat.assets)}
        assert dhat.d[idx["A"], idx["B"]] == 0.1
        assert dhat.d[idx["A"], idx["D"]] == 0.5
        assert dhat.d[idx["C"], idx["D"]] == 0.2

    def test_dominated_by_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dist = random_data_distance(rng, int(rng.integers(3, 10)))
            dhat = subdominant_ultrametric(single_linkage(build_mst(dist))).d
            assert np.all(dhat <= dist.d + 1e-12)

    def test_strong_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dist = random_data_distance(rng, int(rng.integers(3, 10)))
            u = subdominant_ultrametric(single_linkage(build_mst(dist))).d
            # u[i,j] <= max(u[i,k], u[k,j]) for every k, using symmetry
            lhs = u[:, :, None]
            rhs = np.maximum(u[:, None, :], u[None, :, :])
            assert np.all(lhs <= rhs + 1e-12)

    def test_equals_single_linkage_cophenetic(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            dist = random_data_distance(rng, int(rng.integers(3, 12)))
            dhat = subdominant_ultrametric(single_linkage(build_mst(dist))).d
            coph = subdominant_ultrametric(agglomerate_full_argmin(dist)).d
            assert np.max(np.abs(dhat - coph)) <= 1e-12


class TestDendrogram:
    def test_partition_coarsens_with_height(self):
        dist = distance_from(
            "ABC", {("A", "B"): 0.2, ("A", "C"): 0.9, ("B", "C"): 0.7}
        )
        dg = single_linkage(build_mst(dist))
        assert partition_at(dg, 0.1) == [
            frozenset({"A"}),
            frozenset({"B"}),
            frozenset({"C"}),
        ]
        assert partition_at(dg, 0.2) == [frozenset({"A", "B"}), frozenset({"C"})]
        assert partition_at(dg, 1.0) == [frozenset({"A", "B", "C"})]

    def test_merge_count_enforced(self):
        with pytest.raises(SchemaError):
            Dendrogram(("A", "B", "C"), (Merge(0, 1, 0.5),))

    def test_child_reuse_rejected(self):
        merges = (Merge(0, 1, 0.5), Merge(1, 3, 0.6))
        with pytest.raises(SchemaError):
            Dendrogram(("A", "B", "C"), merges)

    def test_decreasing_heights_rejected(self):
        merges = (Merge(0, 1, 0.5), Merge(2, 3, 0.4))
        with pytest.raises(SchemaError):
            Dendrogram(("A", "B", "C"), merges)

    def test_negative_height_rejected(self):
        with pytest.raises(DomainError):
            Dendrogram(("A", "B"), (Merge(0, 1, -0.5),))

    def test_forward_reference_rejected(self):
        with pytest.raises(SchemaError):
            Dendrogram(("A", "B", "C"), (Merge(0, 3, 0.5), Merge(1, 2, 0.6)))

    @pytest.mark.parametrize(
        "leaves, merges, message",
        [
            (("A",), (), r"^a dendrogram needs at least 2 uniquely labelled leaves$"),
            (("A", "A"), (Merge(0, 1, 0.5),), r"^a dendrogram needs at least 2 uniquely labelled leaves$"),
            (("A", "B"), (Merge(1, 0, 0.5),), r"^merge 0: child ids must satisfy left < right$"),
            (("A", "B"), (Merge(0.9, 1.2, 0.5),), r"^merge 0 left must be an integer, got 0\.9$"),
            (("A", "B", "C"), (Merge(0, 1, 0.5), Merge(2, 3.5, 0.6)), r"^merge 1 right must be an integer, got 3\.5$"),
            (("A", "B"), (Merge("0", 1, 0.5),), r"^merge 0 left must be an integer, got '0'$"),
        ],
        ids=["one-leaf", "duplicate-leaves", "left-after-right", "fractional-left", "fractional-right",
             "string-left"],
    )
    def test_leaves_and_child_order(self, leaves, merges, message):
        with pytest.raises(SchemaError, match=message):
            Dendrogram(leaves, merges)

    def test_whole_number_child_ids_become_ints(self):
        (merge,) = Dendrogram(("A", "B"), (Merge(np.int32(0), 1.0, 0.5),)).merges
        assert merge == (0, 1, 0.5)
        assert type(merge.left) is int and type(merge.right) is int


@settings(max_examples=40)
@given(st.integers(0, 2**31 - 1))
def test_gower_ross_equivalence(seed):
    rng = np.random.default_rng(seed)
    dist = random_data_distance(rng, int(rng.integers(3, 9)))
    dhat = subdominant_ultrametric(single_linkage(build_mst(dist))).d
    coph = subdominant_ultrametric(agglomerate_full_argmin(dist)).d
    assert np.max(np.abs(dhat - coph)) <= 1e-12
