"""Hierarchical organisation of assets from a distance matrix.

Two independent routes to the same taxonomy:

* ``subdominant_ultrametric`` reads it off a spanning tree: the
  ultrametric distance between two assets is the largest edge weight on
  the unique tree path connecting them.
* ``single_linkage`` builds it by agglomeration: repeatedly merge the
  two closest clusters, where cluster distance is the minimum pairwise
  distance across them.

For the shortest-edge-first tree the two coincide exactly; tests hold
them to each other at 1e-12. Both kernels take O(n^2) time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distance import DistanceMatrix
from .errors import DomainError, SchemaError, SizeError
from .mst import SpanningTree


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
        merges = tuple(Merge(int(m[0]), int(m[1]), float(m[2])) for m in self.merges)
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

    def partition_at(self, height: float) -> list[frozenset[str]]:
        """Clusters obtained by applying all merges with height <= ``height``.

        Returned blocks are sorted by their smallest member label.
        """
        n = len(self.leaves)
        members: dict[int, set[str]] = {i: {lab} for i, lab in enumerate(self.leaves)}
        for k, m in enumerate(self.merges):
            if m.height > height:
                break
            merged = members.pop(m.left) | members.pop(m.right)
            members[n + k] = merged
        blocks = [frozenset(s) for s in members.values()]
        return sorted(blocks, key=min)


def subdominant_ultrametric(tree: SpanningTree) -> DistanceMatrix:
    """Max edge weight along the unique tree path between each pair.

    Edges are replayed in ascending weight (stable, so a tree from
    :func:`build_mst` keeps its construction order) through a union-find;
    each edge joins two components, and its weight is the path maximum
    for every pair across them.
    """
    labels = tree.assets
    n = len(labels)
    index = {a: i for i, a in enumerate(labels)}
    root = np.arange(n)
    members = [np.array([i]) for i in range(n)]
    dhat = np.zeros((n, n))
    for e in sorted(tree.edges, key=lambda e: e.weight):
        ra, rb = root[index[e.a]], root[index[e.b]]
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
        big, small = members[ra], members[rb]
        # + 0.0 turns a -0.0 weight into 0.0, the value a path maximum
        # started from zero takes
        dhat[big[:, None], small] = e.weight + 0.0
        dhat[small[:, None], big] = e.weight + 0.0
        root[small] = ra
        members[ra] = np.concatenate((big, small))
    return DistanceMatrix(labels, dhat)


def single_linkage(dist: DistanceMatrix) -> Dendrogram:
    """Agglomerate by minimum inter-cluster distance.

    Ties on the current minimum are resolved by first occurrence in
    row-major order over the working matrix, which keeps the procedure
    deterministic. Each row's minimum and the column where it first
    occurs are cached, so a merge rescans one row instead of the matrix.
    """
    n = dist.n_assets
    if n < 2:
        raise SizeError(f"need at least 2 assets, got {n}")
    if not np.isfinite(dist.d).all():
        raise DomainError("single linkage requires finite distances")

    work = dist.d.copy()
    np.fill_diagonal(work, np.inf)
    row_arg = np.argmin(work, axis=1)
    row_min = work[np.arange(n), row_arg]
    cluster_id = list(range(n))  # slot -> current cluster id, inf-row when retired
    merges: list[Merge] = []
    for k in range(n - 1):
        # first row holding the global minimum, then its first such column:
        # the first occurrence in row-major order
        p = int(np.argmin(row_min))
        q = int(row_arg[p])
        height = float(work[p, q])
        left, right = sorted((cluster_id[p], cluster_id[q]))
        merges.append(Merge(left, right, height))
        # fold slot q into slot p, retire q
        np.minimum(work[p], work[q], out=work[p])
        work[:, p] = work[p]
        work[p, p] = np.inf
        work[q, :] = np.inf
        work[:, q] = np.inf
        cluster_id[p] = n + k
        # A row whose new entry at p beats its minimum, or ties it at an
        # earlier column, moves to p. That includes every row whose minimum
        # sat at q: it finds the same value at p < q. Other rows only lost
        # column q, which did not hold their minimum.
        col = work[p]  # equals column p: the matrix stays symmetric
        take = (col < row_min) | ((col == row_min) & (row_arg > p))
        row_min[take] = col[take]
        row_arg[take] = p
        row_arg[p] = np.argmin(work[p])
        row_min[p] = work[p, row_arg[p]]
        row_min[q] = np.inf
    return Dendrogram(dist.assets, tuple(merges))


def cophenetic_matrix(dendrogram: Dendrogram) -> DistanceMatrix:
    """Merge height at which each leaf pair first joins a common cluster."""
    n = dendrogram.n_leaves
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    coph = np.zeros((n, n))
    for k, m in enumerate(dendrogram.merges):
        left = members.pop(m.left)
        right = members.pop(m.right)
        li = np.asarray(left)[:, None]
        ri = np.asarray(right)[None, :]
        coph[li, ri] = m.height
        coph[ri.T, li.T] = m.height
        members[n + k] = left + right
    return DistanceMatrix(dendrogram.leaves, coph)
