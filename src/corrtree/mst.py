"""Minimal spanning trees over asset distance matrices.

``build_mst`` is Prim's algorithm over the dense matrix, O(n^2) time and
O(n) scratch memory. Edges are compared by the strict total order
(distance, smaller label, larger label), under which the minimal
spanning tree is unique; the accepted edges are then sorted by that key,
which is exactly the order in which greedy shortest-edge-first
construction (Kruskal) would accept them.

``mst_oracle`` is the brute-force cross-check: it enumerates every
labelled spanning tree through its Prufer sequence (n^(n-2) of them) and
returns one of minimum total weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .distance import DistanceMatrix
from .errors import DomainError, SchemaError, SizeError, UnknownAssetError

ORACLE_MAX_ASSETS = 8


class TreeEdge(NamedTuple):
    a: str
    b: str
    weight: float


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """n-1 weighted edges connecting all assets, stored in construction order.

    Endpoints within each edge are ordered ``a < b`` lexicographically.
    """

    assets: tuple[str, ...]
    edges: tuple[TreeEdge, ...]

    def __post_init__(self) -> None:
        assets = tuple(self.assets)
        edges = tuple(TreeEdge(e[0], e[1], float(e[2])) for e in self.edges)
        object.__setattr__(self, "assets", assets)
        object.__setattr__(self, "edges", edges)
        n = len(assets)
        if n < 2 or len(set(assets)) != n:
            raise SchemaError("a spanning tree needs at least 2 uniquely labelled assets")
        if len(edges) != n - 1:
            raise SchemaError(f"expected {n - 1} edges for {n} assets, got {len(edges)}")
        index = {a: i for i, a in enumerate(assets)}
        uf = _UnionFind(n)
        for e in edges:
            if e.a not in index or e.b not in index:
                raise SchemaError(f"edge {e.a!r} -- {e.b!r} references an unknown asset")
            if not e.a < e.b:
                raise SchemaError(f"edge endpoints must satisfy a < b, got {e.a!r} -- {e.b!r}")
            if not uf.union(index[e.a], index[e.b]):
                raise SchemaError(f"edge {e.a!r} -- {e.b!r} closes a cycle")

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def construction_order(self) -> dict[tuple[str, str], int]:
        """Acceptance rank of each endpoint pair."""
        return {(e.a, e.b): k for k, e in enumerate(self.edges)}

    def edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset((e.a, e.b) for e in self.edges)

    def total_weight(self) -> float:
        # fsum over sorted weights: exact and independent of edge order
        return math.fsum(sorted(e.weight for e in self.edges))


class _UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]
        return True


def _check_offdiag_finite(dist: DistanceMatrix) -> None:
    d = dist.d
    finite = np.isfinite(d)
    np.fill_diagonal(finite, True)
    bad = np.argwhere(~finite)
    if bad.size:
        i, j = bad[0]
        raise DomainError(
            f"non-finite distance {d[i, j]!r} between "
            f"{dist.assets[i]!r} and {dist.assets[j]!r}"
        )


def build_mst(dist: DistanceMatrix) -> SpanningTree:
    """Greedy shortest-edge-first spanning tree construction.

    Candidate edges are ordered by (distance, smaller label, larger
    label); the edges come out in the order a shortest-edge-first scan
    that skips edges closing a cycle would accept them. Output is
    deterministic for identical input bytes.
    """
    n = dist.n_assets
    if n < 2:
        raise SizeError(f"need at least 2 assets to build a tree, got {n}")
    _check_offdiag_finite(dist)

    labels = dist.assets
    d = dist.d
    lexrank = np.empty(n, dtype=np.int64)
    lexrank[sorted(range(n), key=labels.__getitem__)] = np.arange(n)

    def pair_key(u: np.ndarray | int, v: np.ndarray) -> np.ndarray:
        # (smaller lex-rank, larger lex-rank) folded into one integer
        ru, rv = lexrank[u], lexrank[v]
        return np.minimum(ru, rv) * n + np.maximum(ru, rv)

    # Vertices outside the tree, kept compact by swap-removal, with the
    # weight and tree endpoint of each one's best edge into the tree.
    outside = np.arange(1, n)
    best_w = d[0, 1:].copy()
    best_from = np.zeros(n - 1, dtype=np.intp)
    heads = np.empty(n - 1, dtype=np.intp)
    tails = np.empty(n - 1, dtype=np.intp)
    for last in range(n - 2, -1, -1):  # outside[: last + 1] are still outside
        w = best_w[: last + 1]
        k = int(np.argmin(w))
        ties = np.flatnonzero(w == w[k])
        if ties.size > 1:
            k = int(ties[np.argmin(pair_key(best_from[ties], outside[ties]))])
        u = int(outside[k])
        heads[last], tails[last] = best_from[k], u
        outside[k], best_w[k], best_from[k] = outside[last], best_w[last], best_from[last]
        out, w, src = outside[:last], best_w[:last], best_from[:last]
        row = d[u, out]
        better = row < w
        equal = np.flatnonzero(row == w)
        if equal.size:
            v = out[equal]
            better[equal[pair_key(u, v) < pair_key(src[equal], v)]] = True
        np.copyto(w, row, where=better)
        src[better] = u

    i, j = np.minimum(heads, tails), np.maximum(heads, tails)
    weights = d[i, j]
    order = np.lexsort((pair_key(i, j), weights))
    edges: list[TreeEdge] = []
    for k in order:
        a, b = sorted((labels[i[k]], labels[j[k]]))
        edges.append(TreeEdge(a, b, float(weights[k])))
    return SpanningTree(labels, tuple(edges))


def _decode_prufer(seq: Iterable[int], n: int) -> list[tuple[int, int]]:
    seq = list(seq)
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges: list[tuple[int, int]] = []
    for x in seq:
        leaf = degree.index(1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u = degree.index(1)
    v = degree.index(1, u + 1)
    edges.append((u, v))
    return edges


def _all_tree_weights(d: np.ndarray, seqs: np.ndarray) -> np.ndarray:
    """Total weight of the tree encoded by each Prufer sequence, decoded in lock-step."""
    count, slots = seqs.shape
    n = d.shape[0]
    degree = np.ones((count, n), dtype=np.int64)
    rows = np.arange(count)
    for k in range(slots):
        np.add.at(degree, (rows, seqs[:, k]), 1)
    cols = np.arange(n)
    total = np.zeros(count)
    for k in range(slots):
        leaf = np.where(degree == 1, cols, n).min(axis=1)
        v = seqs[:, k]
        total += d[leaf, v]
        degree[rows, leaf] -= 1
        degree[rows, v] -= 1
    lo = np.where(degree == 1, cols, n).min(axis=1)
    hi = np.where(degree == 1, cols, -1).max(axis=1)
    return total + d[lo, hi]


def mst_oracle(dist: DistanceMatrix) -> SpanningTree:
    """Exhaustive minimum spanning tree by Prufer-sequence enumeration.

    Bounded to n <= 8 (n^(n-2) labelled trees). Ties on total weight are
    broken by the lexicographically smallest sorted edge list.
    """
    n = dist.n_assets
    if n < 2:
        raise SizeError(f"need at least 2 assets, got {n}")
    if n > ORACLE_MAX_ASSETS:
        raise SizeError(f"enumeration bounded to {ORACLE_MAX_ASSETS} assets, got {n}")
    _check_offdiag_finite(dist)
    labels = dist.assets
    d = dist.d
    if n == 2:
        a, b = sorted(labels)
        return SpanningTree(labels, (TreeEdge(a, b, float(d[0, 1])),))

    count = n ** (n - 2)
    seqs = np.indices((n,) * (n - 2)).reshape(n - 2, count).T.copy()
    totals = _all_tree_weights(d, seqs)

    # Refine near-minimal candidates with exact summation before tie-breaking.
    near = np.flatnonzero(totals <= totals.min() + 1e-9)
    best_weight = math.inf
    best_edges: list[tuple[str, str, float]] | None = None
    for idx in near:
        pairs = _decode_prufer(seqs[idx], n)
        named = sorted(
            (*sorted((labels[u], labels[v])), float(d[u, v])) for u, v in pairs
        )
        weight = math.fsum(sorted(w for _, _, w in named))
        key = [(a, b) for a, b, _ in named]
        if weight < best_weight or (
            weight == best_weight and best_edges is not None and key < [(a, b) for a, b, _ in best_edges]
        ):
            best_weight = weight
            best_edges = named
    assert best_edges is not None
    ordered = sorted(best_edges, key=lambda e: (e[2], e[0], e[1]))
    return SpanningTree(labels, tuple(TreeEdge(a, b, w) for a, b, w in ordered))


def tree_degrees(tree: SpanningTree) -> dict[str, int]:
    """Node degree per asset label; degrees always sum to 2(n-1)."""
    degrees = {a: 0 for a in tree.assets}
    for e in tree.edges:
        degrees[e.a] += 1
        degrees[e.b] += 1
    return degrees


def spans_connected_subtree(tree: SpanningTree, labels: Iterable[str]) -> bool:
    """True when ``labels`` induce a connected subtree of ``tree``.

    The induced subgraph of a tree is a forest, so connectivity is
    equivalent to it having exactly ``len(labels) - 1`` edges.
    """
    members = set(labels)
    unknown = members.difference(tree.assets)
    if unknown:
        raise UnknownAssetError(f"label(s) not in tree: {sorted(unknown)}")
    if not members:
        raise SizeError("need at least one label")
    induced = sum(1 for e in tree.edges if e.a in members and e.b in members)
    return induced == len(members) - 1
