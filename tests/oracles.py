"""Reference implementations the shipped kernels are held to exactly.

These are the straightforward forms of the library's kernels: Kruskal
over every candidate pair, Prim on one matrix at a time (alone, per
rolling window and per split segment), exhaustive enumeration of
spanning trees through their Prufer sequences, agglomeration by a full
``argmin`` over the working matrix at each step, a replay of the tree's
edges that finds each endpoint's cluster by a linear search, a
breadth-first walk from every root for the ultrametric, row-by-row ranking, the
masked Gram summed row by row, the pairwise-complete correlation one pair
at a time, and the census over the upper triangle. They are slow and
memory-hungry by design; tests compare the vectorised kernels with them
bit for bit, not within a tolerance, except the correlation, whose
summation order changed and which is held to 1e-12 and to identical
errors. The metric-axiom check, an n x n x n triangle scan, and a
dendrogram's partition at a height have no library counterpart; the
tests use them on data-derived distances and trees. The two-pass panel
loader reads the whole file before it checks any cell; it gives the same
panel or the same error as the streaming loader on files with at most
one fault. ``revalidate`` puts a library output through the public
constructor whose checks its producer skipped.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import re
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from corrtree import (
    STRONG_THRESHOLD,
    CorrelationCensus,
    CorrelationMatrix,
    DistanceMatrix,
    Dendrogram,
    Merge,
    SpanningTree,
    TimeSeriesPanel,
    TreeEdge,
    TreeSequence,
    build_mst,
    edge_survival,
    pearson_matrix,
    to_distance,
)
from corrtree.errors import (
    CorrTreeError,
    DegenerateAssetError,
    DomainError,
    InsufficientDataError,
    PanelParseError,
    SchemaError,
    SizeError,
)
from corrtree.mst import _UnionFind
from corrtree.panel import Timestamp, _coerce_keys

ORACLE_MAX_ASSETS = 8


# The finiteness check the tree oracles ran before DistanceMatrix made it.
def _check_offdiag_finite(dist: DistanceMatrix) -> None:
    d = dist.d
    finite = np.isfinite(d)
    np.fill_diagonal(finite, True)
    bad = np.argwhere(~finite)
    if bad.size:
        i, j = bad[0]
        raise DomainError(
            f"non-finite distance {float(d[i, j])!r} between "
            f"{dist.assets[i]!r} and {dist.assets[j]!r}"
        )


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


# The tree kernel before it ran on stacks: Prim on one matrix, the
# vertices outside the tree kept compact by swap-removal.
def prim_mst_compacted(dist: DistanceMatrix) -> SpanningTree:
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


def span_distance(returns: TimeSeriesPanel, k: int, start: int, end: int, min_overlap: int) -> DistanceMatrix:
    """The distance matrix of rows [start, end); an error names span ``k`` and its first and last timestamps."""
    sub = TimeSeriesPanel(returns.assets, returns.timestamps[start:end], returns.values[start:end])
    try:
        return to_distance(pearson_matrix(sub, min_overlap=min_overlap))
    except CorrTreeError as exc:
        raise type(exc)(f"window {k} (timestamps {sub.timestamps[0]} to {sub.timestamps[-1]}): {exc}") from exc


# Rolling windows before they were batched: one tree built per window.
def rolling_trees_loop(
    returns: TimeSeriesPanel, width: int, step: int = 1, *, min_overlap: int = 3
) -> TreeSequence:
    """One spanning tree per window [k*step, k*step + width), for valid integers.

    Window count is floor((T - width) / step) + 1; trailing observations
    that do not fill a window are dropped.
    """
    n_obs = returns.n_obs
    if n_obs < width:
        raise SizeError(f"window width {width} exceeds series length {n_obs}")
    count = (n_obs - width) // step + 1
    spans: list[tuple[int, int]] = []
    trees: list[SpanningTree] = []
    for k in range(count):
        start = k * step
        end = start + width
        trees.append(prim_mst_compacted(span_distance(returns, k, start, end, min_overlap)))
        spans.append((start, end))
    return TreeSequence(returns.assets, tuple(spans), tuple(trees))


# Splits before they shared the span path of rolling windows: one
# build_mst call per segment.
def split_compare_pair(
    returns: TimeSeriesPanel, split_index: int, *, min_overlap: int = 3
) -> tuple[SpanningTree, SpanningTree, float]:
    """Trees for the segments [0, split) and [split, T) plus their edge survival."""
    n_obs = returns.n_obs
    if split_index < 3 or n_obs - split_index < 3:
        raise SizeError(
            f"split at {split_index} leaves a segment shorter than 3 of {n_obs} observations"
        )
    before = build_mst(span_distance(returns, 0, 0, split_index, min_overlap))
    after = build_mst(span_distance(returns, 1, split_index, n_obs, min_overlap))
    return before, after, edge_survival(before, after)


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


def partition_at(dendrogram: Dendrogram, height: float) -> list[frozenset[str]]:
    """Clusters obtained by applying all merges with height <= ``height``.

    Returned blocks are sorted by their smallest member label.
    """
    n = len(dendrogram.leaves)
    members: dict[int, set[str]] = {i: {lab} for i, lab in enumerate(dendrogram.leaves)}
    for k, m in enumerate(dendrogram.merges):
        if m.height > height:
            break
        merged = members.pop(m.left) | members.pop(m.right)
        members[n + k] = merged
    blocks = [frozenset(s) for s in members.values()]
    return sorted(blocks, key=min)


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


def pairwise_complete_loop(returns: TimeSeriesPanel, min_overlap: int) -> np.ndarray:
    """Correlation of each pair over its joint rows, one pair at a time in (i, j) order."""
    obs = returns.values
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


# The masked path's cross products before they were one einsum.
def masked_gram_loop(x: np.ndarray) -> np.ndarray:
    """``x.T @ x``, summed row by row in time order with elementwise numpy."""
    n = x.shape[1]
    p = np.zeros((n, n))
    outer = np.empty((n, n))
    for row in x:
        np.multiply(row[:, None], row, out=outer)
        p += outer
    return p


# The census before it counted over the whole matrix.
def census_triu(corr: CorrelationMatrix) -> CorrelationCensus:
    """Bucket the entries above the diagonal, one per unordered pair."""
    iu, ju = np.triu_indices(corr.n_assets, k=1)
    vals = corr.rho[iu, ju]
    strong = int((vals >= STRONG_THRESHOLD).sum())
    negative = int((vals < 0.0).sum())
    weak = int(vals.size - strong - negative)
    return CorrelationCensus(corr.n_assets, strong, weak, negative)


def _undecodable_byte(path: Path) -> PanelParseError:
    """Name the first byte of ``path`` that is not UTF-8 and its line, counted in the bytes before it."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(re.findall(rb"\r\n|\r|\n", data[: exc.start])) + 1
        return PanelParseError(f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not valid UTF-8")
    raise AssertionError(f"{path} decodes as UTF-8")


# The panel loader before it streamed its rows: the whole file as a list
# of rows, then a finiteness check through the positions of marker cells.
def load_panel_two_pass(
    path: str | Path,
    *,
    delimiter: str = ",",
    missing_markers: Sequence[str] = ("", "NA"),
    has_timestamps: bool = True,
) -> TimeSeriesPanel:
    """Load a delimited file into a :class:`TimeSeriesPanel`.

    Parameters
    ----------
    path : str or Path
        File to read (UTF-8; a BOM is tolerated).
    delimiter : str
        Field separator, default comma.
    missing_markers : sequence of str
        Cell contents (after stripping whitespace) treated as missing.
    has_timestamps : bool
        When True (default) the first column is the timestamp key; when
        False every column is an asset and rows are indexed 0..T-1.

    Raises
    ------
    PanelParseError
        Malformed row width, a row the CSV reader rejects (such as a
        cell past its field size limit), an unparseable value cell or
        undecodable bytes; the message names the offending line.
    SchemaError
        Duplicate asset labels, fewer than two assets, duplicate
        timestamps, or no data rows.
    """
    path = Path(path)
    markers = {m.strip() for m in missing_markers} | {""}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            try:
                # each row with the file line it ends on; blank lines still count
                rows = [(reader.line_num, r) for r in reader if r]
            except csv.Error as exc:
                raise PanelParseError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise _undecodable_byte(path) from None
    if not rows:
        raise PanelParseError(f"{path}: empty file")

    header = rows[0][1]
    labels = [c.strip() for c in (header[1:] if has_timestamps else header)]
    if any(not lab for lab in labels):
        raise SchemaError(f"{path}: empty asset label in header")
    if len(set(labels)) != len(labels):
        dup = sorted({lab for lab in labels if labels.count(lab) > 1})
        raise SchemaError(f"{path}: duplicate asset label(s): {dup}")
    if len(labels) < 2:
        raise SchemaError(f"{path}: need at least 2 asset columns, got {len(labels)}")

    raw_keys: list[str] = []
    data: list[list[float]] = []
    marked: list[int] = []  # row-major positions of missing-marker cells
    width = len(header)
    for lineno, row in rows[1:]:
        if len(row) != width:
            raise PanelParseError(
                f"{path}: line {lineno}: expected {width} fields, got {len(row)}"
            )
        cells = row[1:] if has_timestamps else row
        if has_timestamps:
            raw_keys.append(row[0].strip())
        parsed: list[float] = []
        for lab, cell in zip(labels, cells):
            text = cell.strip()
            if text in markers:
                marked.append(len(data) * len(labels) + len(parsed))
                parsed.append(np.nan)
                continue
            try:
                parsed.append(float(text))
            except ValueError:
                raise PanelParseError(
                    f"{path}: line {lineno}: cannot parse {cell!r} for asset {lab!r}"
                ) from None
        data.append(parsed)
    if not data:
        raise SchemaError(f"{path}: no data rows")
    values = np.array(data, dtype=float).reshape(-1)
    # A parsed 'nan' or 'inf' literal is an error; only marker cells are
    # missing. With the markers zeroed, min and max are finite exactly when
    # every other cell is, and a good file allocates nothing for the check.
    values[marked] = 0.0
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        k, col = divmod(int(np.flatnonzero(~np.isfinite(values))[0]), len(labels))
        lineno, row = rows[k + 1]
        cell = row[col + 1 if has_timestamps else col]
        raise PanelParseError(
            f"{path}: line {lineno}: non-finite value {cell!r} for asset {labels[col]!r}"
        )
    values[marked] = np.nan
    values = values.reshape(-1, len(labels))

    keys: list[Timestamp]
    if has_timestamps:
        keys = list(_coerce_keys(raw_keys))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        keys = [keys[i] for i in order]
        values = values[order]
        for prev, cur in zip(keys, keys[1:]):
            if prev == cur:
                raise SchemaError(f"{path}: duplicate timestamp {cur!r}")
    else:
        keys = list(range(len(values)))

    return TimeSeriesPanel(tuple(labels), tuple(keys), values)


# Library producers hand their outputs over without the public checks;
# every output must pass them unchanged.
def revalidate(obj: object) -> object:
    """Rebuild a container through its public constructor, which runs every check.

    Asserts that each rebuilt field equals ``obj``'s in type, bytes
    (signed zeros and NaN payloads included) and C-contiguity, and that
    ``obj``'s arrays are read-only; a TreeSequence's trees are
    revalidated too. Returns ``obj``.
    """
    given = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    rebuilt = type(obj)(*given)
    for value, field in zip(given, dataclasses.fields(rebuilt)):
        _assert_same(value, getattr(rebuilt, field.name))
    if isinstance(obj, TreeSequence):
        for tree in obj.trees:
            revalidate(tree)
    return obj


def _assert_same(value: object, checked: object) -> None:
    assert type(value) is type(checked), (value, checked)
    if isinstance(value, np.ndarray):
        assert not value.flags.writeable
        assert (value.dtype, value.shape) == (checked.dtype, checked.shape)
        assert value.flags.c_contiguous == checked.flags.c_contiguous
        assert value.tobytes() == checked.tobytes()
    elif isinstance(value, tuple):
        assert len(value) == len(checked)
        for a, b in zip(value, checked):
            _assert_same(a, b)
    else:
        assert value is checked or repr(value) == repr(checked), (value, checked)
