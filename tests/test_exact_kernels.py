"""The vectorised kernels against their straightforward forms, bit for bit."""

import numpy as np
import pytest

import corrtree.distance as distance_module
from corrtree import (
    DistanceMatrix,
    SpanningTree,
    TimeSeriesPanel,
    build_mst,
    check_metric_axioms,
    rank_signal,
    single_linkage,
    subdominant_ultrametric,
)
from helpers import random_data_distance
from oracles import (
    agglomerate_full_argmin,
    bfs_ultrametric,
    kruskal_mst,
    mean_ranks_loop,
    metric_axioms_unchunked,
)


def tied_distance(rng: np.random.Generator, n: int) -> DistanceMatrix:
    """Random matrix over permuted labels; most draws are heavily tied.

    Tied draws hold exact zeros, some of them -0.0 on one side of the
    diagonal.
    """
    levels = int(rng.integers(0, 6))
    if levels:
        d = rng.integers(0, levels, size=(n, n)) * 0.25
    else:
        d = rng.random((n, n))
    d = np.triu(d, 1)
    d = d + d.T
    if rng.random() < 0.25:
        zeros = np.triu(d == 0.0, 1)
        d[zeros if rng.random() < 0.5 else zeros.T] = -0.0
    labels = tuple(f"A{v}" for v in rng.permutation(n))
    return DistanceMatrix(labels, d)


def assert_kernels_exact(dist: DistanceMatrix) -> None:
    tree = build_mst(dist)
    assert tree.edges == kruskal_mst(dist).edges
    assert single_linkage(dist).merges == agglomerate_full_argmin(dist).merges
    fast, slow = subdominant_ultrametric(tree).d, bfs_ultrametric(tree).d
    assert np.array_equal(fast, slow)
    assert fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_small_instances_match_oracles(seed):
    rng = np.random.default_rng(seed)
    for _ in range(300):
        assert_kernels_exact(tied_distance(rng, int(rng.integers(2, 14))))


@pytest.mark.parametrize("seed", range(3))
def test_large_instances_match_oracles(seed):
    rng = np.random.default_rng(100 + seed)
    if seed == 0:
        assert_kernels_exact(tied_distance(rng, 300))
    else:
        assert_kernels_exact(random_data_distance(rng, 290 + 5 * seed, t=250))


def test_ultrametric_ignores_edge_order():
    rng = np.random.default_rng(7)
    tree = build_mst(tied_distance(rng, 12))
    shuffled = SpanningTree(tree.assets, tuple(reversed(tree.edges)))
    assert np.array_equal(subdominant_ultrametric(shuffled).d, bfs_ultrametric(tree).d)


def test_rank_signal_matches_row_loop():
    rng = np.random.default_rng(11)
    pools = (
        lambda shape: rng.standard_normal(shape),
        lambda shape: rng.integers(-2, 3, shape).astype(float),
        lambda shape: rng.choice([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf], shape),
        lambda shape: np.round(rng.standard_normal(shape), 1),
    )
    for k in range(400):
        shape = (int(rng.integers(1, 12)), int(rng.integers(2, 15)))
        values = pools[k % len(pools)](shape)
        panel = TimeSeriesPanel(
            tuple(f"A{i}" for i in range(shape[1])), tuple(range(shape[0])), values
        )
        expected = np.array([mean_ranks_loop(row) for row in values])
        assert rank_signal(panel).observations.tobytes() == expected.tobytes()


def planted_violations(rng: np.random.Generator, n: int) -> np.ndarray:
    """Data distances (all <= 2) with one pair at zero and two beyond any detour."""
    d = random_data_distance(rng, n).d.copy()
    for value in (0.0, 4.5, 4.5):
        i, j = rng.choice(n, size=2, replace=False)
        d[i, j] = d[j, i] = value
    return d


def test_axiom_scan_blocks_match_one_scan():
    rng = np.random.default_rng(13)
    # n = 120 spans several row blocks at the default block size
    for n in (3, 17, 120):
        d = planted_violations(rng, n)
        violations = check_metric_axioms(d)
        assert violations
        assert violations == metric_axioms_unchunked(d)


def test_axiom_scan_one_row_blocks(monkeypatch):
    monkeypatch.setattr(distance_module, "_TRIANGLE_BLOCK_BYTES", 1)
    rng = np.random.default_rng(17)
    for n in (3, 6, 11):
        d = rng.random((n, n)) * 2.0
        violations = check_metric_axioms(d)
        assert violations
        assert violations == metric_axioms_unchunked(d)


def test_axiom_scan_skips_degenerate_triangles():
    # a negative diagonal makes d[i,j] exceed d[i,i] + d[i,j]; triangles with
    # k in {i, j} are not triangles and must not be reported
    rng = np.random.default_rng(19)
    for n in (3, 9, 120):
        d = planted_violations(rng, n) - 0.5 * np.eye(n)
        violations = check_metric_axioms(d)
        assert violations == metric_axioms_unchunked(d)
        assert all(len(set(v.indices)) == 3 for v in violations if v.axiom == "triangle")
