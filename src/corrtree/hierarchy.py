"""Hierarchical organisation of assets, read off a spanning tree.

The single-linkage hierarchy and the minimal spanning tree are one
object (Gower & Ross 1969): replaying the tree's edges in ascending
weight joins clusters exactly as single-linkage agglomeration would.
``single_linkage`` records those joins as a dendrogram, and
``subdominant_ultrametric`` reads that dendrogram's cophenetic matrix,
whose value at a pair is the largest edge weight on the tree path
between them. Both take O(n^2) time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distance import DistanceMatrix
from .errors import DomainError, SchemaError
from .mst import SpanningTree, _UnionFind
from .panel import _adopt, _whole


class Merge(NamedTuple):
    """One agglomeration step.

    ``left``/``right`` are cluster ids: 0..n-1 for singleton leaves, and
    n+k for the cluster created by the k-th merge. ``left < right``.
    """

    left: int
    right: int
    height: float


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """n-1 merges at non-decreasing heights over n labelled leaves."""

    leaves: tuple[str, ...]
    merges: tuple[Merge, ...]

    def __post_init__(self) -> None:
        leaves = tuple(self.leaves)
        merges = tuple(
            Merge(
                _whole(f"merge {k} left", m[0], error=SchemaError),
                _whole(f"merge {k} right", m[1], error=SchemaError),
                float(m[2]),
            )
            for k, m in enumerate(self.merges)
        )
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "merges", merges)
        n = len(leaves)
        if n < 2 or len(set(leaves)) != n:
            raise SchemaError("a dendrogram needs at least 2 uniquely labelled leaves")
        if len(merges) != n - 1:
            raise SchemaError(f"expected {n - 1} merges for {n} leaves, got {len(merges)}")
        used: set[int] = set()
        prev = -np.inf
        for k, m in enumerate(merges):
            if not m.left < m.right:
                raise SchemaError(f"merge {k}: child ids must satisfy left < right")
            for child in (m.left, m.right):
                if not 0 <= child < n + k:
                    raise SchemaError(f"merge {k}: child id {child} out of range")
                if child in used:
                    raise SchemaError(f"merge {k}: child id {child} already consumed")
                used.add(child)
            if not np.isfinite(m.height) or m.height < 0:
                raise DomainError(f"merge {k}: height must be finite and >= 0, got {m.height!r}")
            if m.height < prev:
                raise SchemaError(f"merge {k}: heights must be non-decreasing")
            prev = m.height

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)


def single_linkage(tree: SpanningTree) -> Dendrogram:
    """Replay the tree's edges in ascending weight as merges.

    The sort is stable, so a tree from :func:`build_mst` keeps its
    construction order and tied weights merge in it: (weight, smaller
    label, larger label). Merge k joins the clusters holding the edge's
    endpoints at the edge's weight and creates cluster id n + k. A valid
    tree makes a valid dendrogram, so it is handed over unchecked.
    """
    labels = tree.assets
    n = len(labels)
    index = {a: i for i, a in enumerate(labels)}
    uf = _UnionFind(n)
    cluster_id = list(range(n))  # union-find root -> current cluster id
    merges: list[Merge] = []
    for k, e in enumerate(sorted(tree.edges, key=lambda e: e.weight)):
        ra, rb = uf.find(index[e.a]), uf.find(index[e.b])
        left, right = sorted((cluster_id[ra], cluster_id[rb]))
        # + 0.0 turns a -0.0 weight into 0.0, so no height and no
        # ultrametric entry is a negative zero
        merges.append(Merge(left, right, e.weight + 0.0))
        uf.union(ra, rb)
        cluster_id[uf.find(ra)] = n + k
    return _adopt(Dendrogram, labels, tuple(merges))


def subdominant_ultrametric(dendrogram: Dendrogram) -> DistanceMatrix:
    """Cophenetic matrix: the height of the merge that first joins each pair.

    For ``single_linkage(tree)`` this is the largest edge weight on the
    tree path between the pair, the subdominant ultrametric of any
    distance matrix whose minimal spanning tree ``tree`` is.
    """
    n = dendrogram.n_leaves
    members = {i: np.array([i]) for i in range(n)}
    dhat = np.zeros((n, n))
    for k, m in enumerate(dendrogram.merges):
        left, right = members.pop(m.left), members.pop(m.right)
        dhat[left[:, None], right] = m.height
        dhat[right[:, None], left] = m.height
        members[n + k] = np.concatenate((left, right))
    return _adopt(DistanceMatrix, dendrogram.leaves, dhat)
