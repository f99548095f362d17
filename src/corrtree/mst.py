"""Minimal spanning trees over asset distance matrices.

``build_mst`` is Prim's algorithm over the dense matrix, O(n^2) time and
O(n) scratch memory. Edges are compared by the strict total order
(distance, smaller label, larger label), under which the minimal
spanning tree is unique; the accepted edges are then sorted by that key,
which is exactly the order in which greedy shortest-edge-first
construction (Kruskal) would accept them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .distance import DistanceMatrix
from .errors import DomainError, SchemaError, SizeError, UnknownAssetError


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
