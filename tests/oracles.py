"""Reference implementations the shipped kernels are held to exactly.

These are the straightforward forms of the library's kernels: Kruskal
over every candidate pair, exhaustive enumeration of spanning trees
through their Prufer sequences, agglomeration by a full ``argmin`` over
the working matrix at each step, a replay of the tree's edges that finds
each endpoint's cluster by a linear search, a breadth-first walk from
every root for the ultrametric, row-by-row ranking, and the
pairwise-complete correlation one pair at a time. They are slow and
memory-hungry by design; tests compare the vectorised kernels with them
bit for bit, not within a tolerance, except the correlation, whose
summation order changed and which is held to 1e-12 and to identical
errors. The metric-axiom check, an n x n x n triangle scan, has no
library counterpart; the tests use it on data-derived distances.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from corrtree import DistanceMatrix, Dendrogram, Merge, ReturnsMatrix, SpanningTree, TreeEdge
from corrtree.errors import (
    DegenerateAssetError,
    DomainError,
    InsufficientDataError,
    SizeError,
)
from corrtree.mst import _check_offdiag_finite, _UnionFind

ORACLE_MAX_ASSETS = 8


def kruskal_mst(dist: DistanceMatrix) -> SpanningTree:
    """Greedy shortest-edge-first tree: Kruskal over the lexsorted upper triangle."""
    n = dist.n_assets
    if n < 2:
        raise SizeError(f"need at least 2 assets to build a tree, got {n}")
    _check_offdiag_finite(dist)

    labels = dist.assets
    lexrank = np.empty(n, dtype=np.int64)
    lexrank[sorted(range(n), key=labels.__getitem__)] = np.arange(n)

    iu, ju = np.triu_indices(n, k=1)
    weights = dist.d[iu, ju]
    ra = np.minimum(lexrank[iu], lexrank[ju])
    rb = np.maximum(lexrank[iu], lexrank[ju])
    order = np.lexsort((rb, ra, weights))

    uf = _UnionFind(n)
    edges: list[TreeEdge] = []
    for k in order:
        i, j = int(iu[k]), int(ju[k])
        if uf.union(i, j):
            a, b = sorted((labels[i], labels[j]))
            edges.append(TreeEdge(a, b, float(weights[k])))
            if len(edges) == n - 1:
                break
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

def replay_merges(dist: DistanceMatrix) -> Dendrogram:
    """Kruskal's edges in acceptance order as merges, clusters kept as member sets."""
    tree = kruskal_mst(dist)
    n = tree.n_assets
    index = {a: i for i, a in enumerate(tree.assets)}
    clusters: dict[int, frozenset[int]] = {i: frozenset([i]) for i in range(n)}
    merges: list[Merge] = []
    for k, e in enumerate(tree.edges):
        ca = next(c for c, members in clusters.items() if index[e.a] in members)
        cb = next(c for c, members in clusters.items() if index[e.b] in members)
        clusters[n + k] = clusters.pop(ca) | clusters.pop(cb)
        left, right = sorted((ca, cb))
        merges.append(Merge(left, right, e.weight + 0.0))
    return Dendrogram(tree.assets, tuple(merges))


def agglomerate_full_argmin(dist: DistanceMatrix) -> Dendrogram:
    """Single linkage that rescans the whole working matrix at every merge."""
    n = dist.n_assets
    if n < 2:
        raise SizeError(f"need at least 2 assets, got {n}")
    if not np.isfinite(dist.d).all():
        raise DomainError("single linkage requires finite distances")

    work = dist.d.copy()
    np.fill_diagonal(work, np.inf)
    cluster_id = list(range(n))  # slot -> current cluster id, inf-row when retired
    merges: list[Merge] = []
    for k in range(n - 1):
        flat = int(np.argmin(work))
        p, q = divmod(flat, n)
        if p > q:
            p, q = q, p
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
    return Dendrogram(dist.assets, tuple(merges))


def bfs_ultrametric(tree: SpanningTree) -> DistanceMatrix:
    """Max edge weight on each tree path, by a breadth-first walk from every root."""
    labels = tree.assets
    n = len(labels)
    index = {a: i for i, a in enumerate(labels)}
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for e in tree.edges:
        i, j = index[e.a], index[e.b]
        adjacency[i].append((j, e.weight))
        adjacency[j].append((i, e.weight))

    dhat = np.zeros((n, n))
    for root in range(n):
        seen = [False] * n
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, w in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    dhat[root, v] = max(dhat[root, u], w)
                    queue.append(v)
    dhat = np.maximum(dhat, dhat.T)
    return DistanceMatrix(labels, dhat)


@dataclass(frozen=True)
class AxiomViolation:
    """One failed metric-axiom instance.

    ``axiom`` is ``"identity"``, ``"symmetry"`` or ``"triangle"``;
    ``indices`` holds the offending row/column positions.
    """

    axiom: str
    indices: tuple[int, ...]
    detail: str


def metric_axioms_unchunked(
    matrix: DistanceMatrix | np.ndarray, tol: float = 1e-9
) -> list[AxiomViolation]:
    """Report every violation of the three metric axioms, up to ``tol``.

    Checks identity of indiscernibles (zero diagonal, nonzero
    off-diagonal), symmetry, and the triangle inequality in its
    non-strict form ``d[i,j] <= d[i,k] + d[k,j]`` (equality is legal for
    collinear configurations) over one n x n x n triangle-excess array.
    An empty list means the matrix passed.
    """
    d = matrix.d if isinstance(matrix, DistanceMatrix) else np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {d.shape}")
    n = d.shape[0]
    violations: list[AxiomViolation] = []

    for i in range(n):
        if abs(d[i, i]) > tol:
            violations.append(
                AxiomViolation("identity", (i, i), f"d[{i},{i}] = {d[i, i]!r}, expected 0")
            )
    for i in range(n):
        for j in range(i + 1, n):
            if abs(d[i, j]) <= tol:
                violations.append(
                    AxiomViolation(
                        "identity", (i, j), f"distinct items at zero distance: d[{i},{j}] = {d[i, j]!r}"
                    )
                )
            gap = abs(d[i, j] - d[j, i])
            if gap > tol:
                violations.append(
                    AxiomViolation("symmetry", (i, j), f"|d[{i},{j}] - d[{j},{i}]| = {gap!r}")
                )

    if n >= 3:
        # excess[i,j,k] = d[i,j] - (d[i,k] + d[k,j])
        excess = d[:, :, None] - (d[:, None, :] + d.T[None, :, :])
        for i, j, k in np.argwhere(excess > tol):
            if i < j and k != i and k != j:
                violations.append(
                    AxiomViolation(
                        "triangle",
                        (int(i), int(j), int(k)),
                        f"d[{i},{j}] = {d[i, j]!r} exceeds "
                        f"d[{i},{k}] + d[{k},{j}] = {d[i, k] + d[k, j]!r}",
                    )
                )

    violations.sort(key=lambda v: (v.axiom, v.indices))
    return violations


def mean_ranks_loop(row: np.ndarray) -> np.ndarray:
    """Descending ranks of one row, tie groups sharing their mean rank."""
    order = np.argsort(-row, kind="stable")
    ranks = np.empty(row.shape, dtype=float)
    sorted_vals = row[order]
    i = 0
    n = len(row)
    while i < n:
        j = i
        while j < n and sorted_vals[j] == sorted_vals[i]:
            j += 1
        # positions i+1 .. j occupied by a tie group -> mean rank
        ranks[order[i:j]] = (i + 1 + j) / 2.0
        i = j
    return ranks


def pairwise_complete_loop(returns: ReturnsMatrix, min_overlap: int) -> np.ndarray:
    """Correlation of each pair over its joint rows, one pair at a time in (i, j) order."""
    obs = returns.observations
    n = returns.n_assets
    present = ~np.isnan(obs)
    rho = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            joint = present[:, i] & present[:, j]
            count = int(joint.sum())
            pair = f"({returns.assets[i]!r}, {returns.assets[j]!r})"
            if count < min_overlap:
                raise InsufficientDataError(
                    f"pair {pair} has {count} joint observations; need {min_overlap}"
                )
            xi = obs[joint, i]
            xj = obs[joint, j]
            xi = xi - xi.mean()
            xi -= xi.mean()
            xj = xj - xj.mean()
            xj -= xj.mean()
            vi = np.mean(xi**2)
            vj = np.mean(xj**2)
            if vi == 0.0 or vj == 0.0:
                asset = returns.assets[i] if vi == 0.0 else returns.assets[j]
                raise DegenerateAssetError(
                    f"asset {asset!r} has zero variance on the overlap of pair {pair}"
                )
            rho[i, j] = rho[j, i] = np.mean(xi * xj) / np.sqrt(vi * vj)
    return rho
