"""Reference implementations the shipped kernels are held to exactly.

These are the straightforward forms of the library's kernels: Kruskal
over every candidate pair, agglomeration by a full ``argmin`` over the
working matrix at each step, a breadth-first walk from every root for
the ultrametric, the n x n x n triangle scan, row-by-row ranking, and
the pairwise-complete correlation one pair at a time. They are slow and
memory-hungry by design; tests compare the vectorised kernels with them
bit for bit, not within a tolerance, except the correlation, whose
summation order changed and which is held to 1e-12 and to identical
errors.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from corrtree import DistanceMatrix, Dendrogram, Merge, ReturnsMatrix, SpanningTree, TreeEdge
from corrtree.distance import AxiomViolation
from corrtree.errors import (
    DegenerateAssetError,
    DomainError,
    InsufficientDataError,
    ShapeError,
    SizeError,
)
from corrtree.mst import _check_offdiag_finite, _UnionFind


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


def metric_axioms_unchunked(
    matrix: DistanceMatrix | np.ndarray, tol: float = 1e-9
) -> list[AxiomViolation]:
    """Metric axiom check over one n x n x n triangle-excess array."""
    d = matrix.d if isinstance(matrix, DistanceMatrix) else np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {d.shape}")
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
