"""Minimal spanning trees over asset distance matrices.

``build_mst`` is Prim's algorithm over the dense matrix, O(n^2) time and
O(n) scratch memory. The same kernel runs on a stack of matrices at
once, one Prim step across every matrix per iteration, which is how
rolling windows build their trees. Edges are compared by the strict
total order (distance, smaller label, larger label), under which the
minimal spanning tree is unique; the accepted edges are then sorted by
that key, which is exactly the order in which greedy shortest-edge-first
construction (Kruskal) would accept them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .distance import DistanceMatrix
from .errors import DomainError, SchemaError, SizeError, UnknownAssetError
from .panel import _adopt


class TreeEdge(NamedTuple):
    a: str
    b: str
    weight: float


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """n-1 weighted edges connecting all assets, stored in construction order.

    Endpoints within each edge are ordered ``a < b`` lexicographically, and
    each weight is finite and non-negative (``-0.0`` included).
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
            if not 0.0 <= e.weight < math.inf:
                raise DomainError(f"edge {e.a!r} -- {e.b!r}: weight must be finite and >= 0, got {e.weight!r}")
            if not uf.union(index[e.a], index[e.b]):
                raise SchemaError(f"edge {e.a!r} -- {e.b!r} closes a cycle")

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    def edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset((e.a, e.b) for e in self.edges)

    def total_weight(self) -> float:
        # fsum is exact, so the sum does not depend on edge order
        return math.fsum(e.weight for e in self.edges)


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


def build_mst(dist: DistanceMatrix) -> SpanningTree:
    """Prim's algorithm: the batched kernel on a stack of one matrix.

    Edges come out in the order Kruskal's algorithm would accept them
    under the key (distance, smaller label, larger label). Output is
    deterministic for identical input bytes.
    """
    n = dist.n_assets
    if n < 2:
        raise SizeError(f"need at least 2 assets to build a tree, got {n}")
    return _prim_trees(dist.assets, dist.d[None])[0]


def _prim_trees(labels: tuple[str, ...], stack: np.ndarray) -> list[SpanningTree]:
    """The spanning tree of each matrix in a (W, n, n) stack over shared labels.

    Each matrix must hold the entries of a valid :class:`DistanceMatrix`,
    so its tree needs no check; :func:`build_mst` is the one-matrix case.
    """
    n = len(labels)
    lexrank = np.empty(n, dtype=np.int64)
    lexrank[sorted(range(n), key=labels.__getitem__)] = np.arange(n)
    heads, tails = _prim(stack, lexrank)
    # Index order first: a DistanceMatrix may hold -0.0 and +0.0 across the
    # diagonal, and the weight bytes must not depend on which end joined first.
    weights = stack[np.arange(len(stack))[:, None], np.minimum(heads, tails), np.maximum(heads, tails)]
    a = np.where(lexrank[heads] < lexrank[tails], heads, tails)  # the end whose label sorts first
    b = heads + tails - a
    order = np.lexsort((lexrank[a] * n + lexrank[b], weights), axis=-1)
    a, b, weights = (np.take_along_axis(x, order, axis=-1) for x in (a, b, weights))
    name = labels.__getitem__
    return [
        _adopt(SpanningTree, labels, tuple(map(TreeEdge, map(name, ea), map(name, eb), w)))
        for ea, eb, w in zip(a.tolist(), b.tolist(), weights.tolist())
    ]


def _prim(stack: np.ndarray, lexrank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prim's algorithm on every matrix of a (W, n, n) stack in lockstep.

    Each step picks, in every window, the outside vertex whose best edge
    into the tree is least under the key, then lowers the best edges of
    the remaining outside vertices. Equal-weight edges (p, v) and (f, v)
    compare as the label ranks of p and f, whichever side of v's rank
    they fall on. Returns the (tree end, new vertex) pairs, each (W, n - 1).
    """
    n_win, n = stack.shape[:2]
    win = np.arange(n_win)
    # Per window: which vertices are outside the tree, and the weight and
    # tree endpoint of each outside vertex's best edge (inf once inside).
    outside = np.ones((n_win, n), dtype=bool)
    outside[:, 0] = False
    best_w = stack[:, 0, :].copy()
    best_w[:, 0] = np.inf
    best_from = np.zeros((n_win, n), dtype=np.intp)
    heads = np.empty((n_win, n - 1), dtype=np.intp)
    tails = np.empty((n_win, n - 1), dtype=np.intp)
    for step in range(n - 1):
        pick = best_w.argmin(axis=1)
        ties = best_w == best_w[win, pick][:, None]
        if np.count_nonzero(ties) > n_win:
            tied = np.flatnonzero(np.count_nonzero(ties, axis=1) > 1)
            rf = lexrank[best_from[tied]]  # (smaller rank, larger rank) folded into one integer
            keys = np.where(ties[tied], np.minimum(rf, lexrank) * n + np.maximum(rf, lexrank), n * n)
            pick[tied] = keys.argmin(axis=1)
        heads[:, step], tails[:, step] = best_from[win, pick], pick
        outside[win, pick] = False
        best_w[win, pick] = np.inf
        row = stack[win, pick]
        better = row < best_w
        better &= outside
        equal = row == best_w  # never true inside the tree: rows are finite
        if equal.any():
            better |= equal & (lexrank[pick][:, None] < lexrank[best_from])
        np.copyto(best_w, row, where=better)
        np.copyto(best_from, pick[:, None], where=better)
    return heads, tails


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
