"""Rolling-window tree dynamics.

Re-runs the correlation -> distance -> tree pipeline over row spans of a
panel (sliding windows, or the two segments of a split) and quantifies
topology change between trees by edge survival: the fraction of
endpoint pairs two trees share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import pearson_matrix
from .distance import to_distance
from .errors import ComparisonError, CorrTreeError, SchemaError, SizeError
from .mst import SpanningTree, _prim_trees
from .mst import build_mst  # noqa: F401  (benchmark/tracer.py hooks dynamics.build_mst)
from .panel import TimeSeriesPanel, _adopt, _whole

# Byte budget of the distance-matrix stack one batched tree run takes
# (16 windows at n = 300); a larger stack saves little time and adds RSS.
_STACK_BYTES = 12_000_000


@dataclass(frozen=True, eq=False)
class TreeSequence:
    """Trees built per row span, aligned with their (start, end) index spans."""

    assets: tuple[str, ...]
    windows: tuple[tuple[int, int], ...]
    trees: tuple[SpanningTree, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assets", tuple(self.assets))
        windows = tuple(
            (_whole(f"window {k} start", s, error=SchemaError), _whole(f"window {k} end", e, error=SchemaError))
            for k, (s, e) in enumerate(self.windows)
        )
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "trees", tuple(self.trees))
        if len(self.windows) != len(self.trees):
            raise SchemaError(
                f"{len(self.windows)} windows but {len(self.trees)} trees"
            )
        if not self.trees:
            raise SchemaError("a tree sequence needs at least one window")
        expected = set(self.assets)
        for k, tree in enumerate(self.trees):
            if set(tree.assets) != expected:
                raise SchemaError(f"tree {k} does not cover the shared asset set")
        for k, (start, end) in enumerate(self.windows):
            if not 0 <= start < end:
                raise SchemaError(f"window {k} has invalid span ({start}, {end})")

    def __len__(self) -> int:
        return len(self.trees)

    def survival_vs_previous(self) -> tuple[float | None, ...]:
        """Edge survival of each tree against its predecessor; None for the first."""
        out: list[float | None] = [None]
        for prev, curr in zip(self.trees, self.trees[1:]):
            out.append(edge_survival(prev, curr))
        return tuple(out)


def rolling_trees(
    returns: TimeSeriesPanel, width: int, step: int = 1, *, min_overlap: int = 3
) -> TreeSequence:
    """One spanning tree per window [k*step, k*step + width).

    ``width`` >= 3 and ``step`` >= 1 are whole numbers (integral floats will do). Window count is
    floor((T - width) / step) + 1; trailing observations that do not fill a window are dropped.
    """
    width, step = _whole("window width", width, 3), _whole("window step", step, 1)
    n_obs = returns.n_obs
    if n_obs < width:
        raise SizeError(f"window width {width} exceeds series length {n_obs}")
    spans = [(start, start + width) for start in range(0, n_obs - width + 1, step)]
    return _span_trees(returns, spans, min_overlap)


def _span_trees(
    returns: TimeSeriesPanel, spans: list[tuple[int, int]], min_overlap: int
) -> TreeSequence:
    """The spanning tree of each row span [start, end), built in span order.

    The spans' distance matrices fill a bounded stack (16 spans at n = 300),
    and each full stack's trees come from one batched Prim run. A span's
    :class:`CorrTreeError` is raised again as its class, its message prefixed
    with the span's index and first and last timestamps.
    """
    n = returns.n_assets
    stack = np.empty((min(len(spans), max(1, _STACK_BYTES // (8 * n * n))), n, n))
    trees: list[SpanningTree] = []
    for k, (start, end) in enumerate(spans):
        rows = slice(start, end)
        sub = _adopt(TimeSeriesPanel, returns.assets, returns.timestamps[rows], returns.values[rows])
        try:
            dist = to_distance(pearson_matrix(sub, min_overlap=min_overlap))
        except CorrTreeError as exc:
            first, last = sub.timestamps[0], sub.timestamps[-1]
            raise type(exc)(f"window {k} (timestamps {first} to {last}): {exc}") from exc
        filled = k % len(stack)
        stack[filled] = dist.d
        if filled == len(stack) - 1 or k == len(spans) - 1:
            trees += _prim_trees(returns.assets, stack[: filled + 1])
    return _adopt(TreeSequence, returns.assets, tuple(spans), tuple(trees))


def edge_survival(a: SpanningTree, b: SpanningTree) -> float:
    """Fraction of endpoint pairs shared by two trees on the same assets.

    Weights are ignored; this compares topology only.
    """
    if set(a.assets) != set(b.assets):
        raise ComparisonError("edge survival requires identical asset sets")
    shared = a.edge_set() & b.edge_set()
    return len(shared) / (a.n_assets - 1)


def split_compare(
    returns: TimeSeriesPanel, split_index: int, *, min_overlap: int = 3
) -> TreeSequence:
    """Trees for the segments [0, split) and [split, T).

    ``split_index`` is a whole number (integral floats will do). ``before, after = split.trees``;
    their edge survival is ``split.survival_vs_previous()[1]``.
    """
    split_index, n_obs = _whole("split index", split_index), returns.n_obs
    if split_index < 3 or n_obs - split_index < 3:
        raise SizeError(
            f"split at {split_index} leaves a segment shorter than 3 of {n_obs} observations"
        )
    return _span_trees(returns, [(0, split_index), (split_index, n_obs)], min_overlap)
