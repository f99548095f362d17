"""The vectorised kernels against their straightforward forms, bit for bit."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrtree import (
    CorrTreeError,
    DegenerateAssetError,
    Dendrogram,
    DistanceMatrix,
    FactorModelSpec,
    InsufficientDataError,
    Merge,
    SpanningTree,
    TimeSeriesPanel,
    build_mst,
    export_dot,
    export_graphml,
    export_newick,
    generate,
    load_panel,
    log_returns,
    pearson_matrix,
    rank_signal,
    rebase,
    rolling_trees,
    single_linkage,
    split_compare,
    subdominant_ultrametric,
    to_distance,
)
from corrtree import dynamics
from corrtree.cli import _SIGNALS, main
from corrtree.mst import _prim_trees
from helpers import random_data_distance, returns
import oracles
from oracles import (
    agglomerate_full_argmin,
    bfs_ultrametric,
    kruskal_mst,
    mean_ranks_loop,
    prim_mst_compacted,
    replay_merges,
    revalidate,
    rolling_trees_loop,
    split_compare_pair,
)
from test_cli import numeric_panels, synth_args


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


def heights_bytes(dendrogram: Dendrogram) -> bytes:
    return np.array([m.height for m in dendrogram.merges]).tobytes()


def assert_kernels_exact(dist: DistanceMatrix) -> None:
    tree = build_mst(dist)
    assert tree.edges == kruskal_mst(dist).edges
    dendrogram = single_linkage(tree)
    replayed = replay_merges(dist)
    assert dendrogram.merges == replayed.merges
    assert heights_bytes(dendrogram) == heights_bytes(replayed)
    agglomerated = agglomerate_full_argmin(dist)
    weights = [e.weight for e in tree.edges]
    if len(set(weights)) == len(weights):
        assert dendrogram.merges == agglomerated.merges
    coph = subdominant_ultrametric(dendrogram).d.tobytes()
    # the agglomeration keeps a -0.0 distance as a -0.0 height; the replay
    # writes 0.0, as the ultrametric always has
    assert coph == (subdominant_ultrametric(agglomerated).d + 0.0).tobytes()
    assert coph == bfs_ultrametric(tree).d.tobytes()


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
    assert np.array_equal(subdominant_ultrametric(single_linkage(shuffled)).d, bfs_ultrametric(tree).d)


def test_tied_merges_follow_construction_order():
    # A-B, A-D and B-C tie at 0.5 and all enter the tree; they merge in
    # construction order (weight, smaller label, larger label)
    d = np.full((4, 4), 0.9)
    np.fill_diagonal(d, 0.0)
    for i, j in ((0, 1), (1, 2), (0, 3)):
        d[i, j] = d[j, i] = 0.5
    dendrogram = single_linkage(build_mst(DistanceMatrix(("A", "B", "C", "D"), d)))
    assert dendrogram.merges == (Merge(0, 1, 0.5), Merge(3, 4, 0.5), Merge(2, 5, 0.5))
    assert export_newick(dendrogram) == (
        "(((A:0.25,B:0.25):0.0,D:0.25):0.0,C:0.25):0.0;\n"
    )


def label_merges(dendrogram: Dendrogram) -> list[tuple[frozenset, float]]:
    """Each merge as the unordered pair of label sets it joins, with its height."""
    n = dendrogram.n_leaves
    members = {i: frozenset([label]) for i, label in enumerate(dendrogram.leaves)}
    merges = []
    for k, m in enumerate(dendrogram.merges):
        left, right = members.pop(m.left), members.pop(m.right)
        members[n + k] = left | right
        merges.append((frozenset((left, right)), m.height))
    return merges


def test_merges_ignore_column_order():
    rng = np.random.default_rng(23)
    for _ in range(600):
        dist = tied_distance(rng, int(rng.integers(3, 12)))
        perm = rng.permutation(dist.n_assets)
        permuted = DistanceMatrix(
            tuple(dist.assets[p] for p in perm), dist.d[np.ix_(perm, perm)]
        )
        assert label_merges(single_linkage(build_mst(permuted))) == label_merges(
            single_linkage(build_mst(dist))
        )


@pytest.mark.parametrize("signal", [log_returns, _SIGNALS["raw"]], ids=["log_returns", "raw_signal"])
def test_missing_data_pipeline_ignores_column_order(signal):
    # Complete panels are not covered: their BLAS Gram may round a
    # permuted column's entries differently in the last bits.
    spec = FactorModelSpec((("A", 10), ("B", 10), ("C", 10)), 0.7, 0.6, 300, 5)
    rng = np.random.default_rng(3)
    g = generate(spec)
    prices = np.exp(np.cumsum(0.02 * g.values, axis=0))
    prices[rng.random(prices.shape) < 0.01] = np.nan
    base = TimeSeriesPanel(g.assets, g.timestamps, prices)

    def pipeline(panel):
        corr = pearson_matrix(signal(panel))
        tree = build_mst(to_distance(corr))
        dendrogram = single_linkage(tree)
        return corr.rho, tree, dendrogram, subdominant_ultrametric(dendrogram).d

    rho, tree, dendrogram, ultra = pipeline(base)
    for _ in range(20):
        perm = rng.permutation(base.n_assets)
        back = np.ix_(np.argsort(perm), np.argsort(perm))
        permuted = TimeSeriesPanel(
            tuple(base.assets[p] for p in perm), base.timestamps, base.values[:, perm]
        )
        p_rho, p_tree, p_dendrogram, p_ultra = pipeline(permuted)
        assert export_dot(p_tree) == export_dot(tree)
        assert export_graphml(p_tree) == export_graphml(tree)
        assert p_rho[back].tobytes() == rho.tobytes()
        assert p_ultra[back].tobytes() == ultra.tobytes()
        assert label_merges(p_dendrogram) == label_merges(dendrogram)
        assert export_newick(p_dendrogram) == export_newick(dendrogram)


def masked_gram_inputs() -> dict[str, np.ndarray]:
    """C-ordered centred columns as the masked path makes them: 0 in every missing cell."""
    rng = np.random.default_rng(23)
    x = rng.standard_normal((250, 12))
    x[rng.random(x.shape) < 0.1] = 0.0
    signed = x.copy()
    signed[::3, 4] = -0.0
    signed[:, 7] = -0.0
    subnormal = x.copy()
    subnormal[:, 2] *= 5e-324  # a few units of the smallest subnormal, or 0
    subnormal[:, 9] *= 1e-310
    return {
        "zeroed-cells": x,
        "negative-zero": signed,
        "subnormal": subnormal,
        "1e-150-to-1e150": x * 10.0 ** np.linspace(-150, 150, 12),
        "one-row": x[:1],
        "one-row-negative-zero": signed[4:5],
        "two-columns": rng.standard_normal((1000, 2)),
    }


@pytest.mark.parametrize("case", list(masked_gram_inputs()))
def test_masked_gram_is_the_time_ordered_row_sum(case):
    """One einsum over a C-ordered array gives the row loop's bytes.

    This pins numpy's einsum to summation in time order, one rounded product
    at a time, without fused multiply-add and without BLAS. The masked path's
    cross products (``correlation._pairwise_complete``) are made this way, so
    the bytes of every missing-data artifact depend on it. With a single
    column, einsum takes a dot-product kernel that sums in another order; no
    panel has fewer than 2 assets.
    """
    x = masked_gram_inputs()[case]
    assert x.flags.c_contiguous
    assert np.einsum("ti,tj->ij", x, x).tobytes() == oracles.masked_gram_loop(x).tobytes()


def test_missing_data_run_bytes_are_pinned(tmp_path, capsys):
    """The matrix CSVs of a run on a panel with NA cells keep the bytes first written.

    The digests were taken when the masked Gram was still summed by the row loop.
    """
    path = tmp_path / "panel.csv"
    assert main(synth_args(path, groups="3x10", length="300", seed="5")) == 0
    rng = np.random.default_rng(17)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = [row.split(",") for row in rows]
    for row in cells:
        for k in np.flatnonzero(rng.random(len(row) - 1) < 0.02):
            row[k + 1] = "NA"
    path.write_text("\n".join([header, *map(",".join, cells)]) + "\n", encoding="utf-8")
    assert sum(row.count("NA") for row in cells) > 100
    out = tmp_path / "out"
    assert main(["run", str(path), "--signal", "raw", "--formats", "csv", "--outdir", str(out)]) == 0
    capsys.readouterr()
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("corr.csv", "dist.csv", "ultrametric.csv")
    }
    assert digests == {
        "corr.csv": "9f6f81c0828bf91c4258eddf8f12c61e1df8cc4aa39d8db4aae688bf5464f626",
        "dist.csv": "96535cde4c103b32525470089985375f3be59cde3324c845bddfb003a1f75a25",
        "ultrametric.csv": "fc4de23f0728b28f3227858f2c2edb520eef4dbda5f4209db6b8672dac28a3c8",
    }


def test_rank_signal_matches_row_loop():
    rng = np.random.default_rng(11)
    pools = (
        lambda shape: rng.standard_normal(shape),
        lambda shape: rng.integers(-2, 3, shape).astype(float),
        lambda shape: rng.choice([0.0, -0.0, 1.0, -1.0], shape),
        lambda shape: np.round(rng.standard_normal(shape), 1),
    )
    cases = [pools[k % len(pools)]((int(rng.integers(1, 12)), int(rng.integers(2, 15)))) for k in range(400)]
    cases.append(pools[-1]((50, 300)))  # one wide panel, many ties per row
    for values in cases:
        panel = TimeSeriesPanel(
            tuple(f"A{i}" for i in range(values.shape[1])), tuple(range(values.shape[0])), values
        )
        expected = np.array([mean_ranks_loop(row) for row in values])
        assert rank_signal(panel).values.tobytes() == expected.tobytes()


def tree_bytes(tree: SpanningTree) -> tuple:
    """The edges with their weights' bytes, so a -0.0 weight differs from 0.0."""
    return tree.edges, np.array([e.weight for e in tree.edges]).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_batched_kernel_matches_per_matrix_oracles(seed):
    rng = np.random.default_rng(300 + seed)
    for count in (1, 2, 3, 5, 8) * 20:
        n = int(rng.integers(2, 14))
        labels = tied_distance(rng, n).assets
        # tied and untied windows alternate, all over the same labels
        stack = np.stack([
            (tied_distance(rng, n) if k % 2 == 0 else random_data_distance(rng, n)).d
            for k in range(count)
        ])
        trees = _prim_trees(labels, stack)
        assert len(trees) == count
        for tree, d in zip(trees, stack):
            dist = DistanceMatrix(labels, d)
            assert tree_bytes(tree) == tree_bytes(prim_mst_compacted(dist))
            assert tree_bytes(tree) == tree_bytes(kruskal_mst(dist))


def tied_returns(rng: np.random.Generator, n_obs: int, n: int) -> TimeSeriesPanel:
    """Gaussian returns whose first half copies one column into two others.

    Windows in the first half hold zero distances and equal distances
    from the copies to every other asset; the rest are untied. Labels
    sort against column order, so the label tie-break decides.
    """
    y = rng.standard_normal((n_obs, n))
    y[: n_obs // 2, n - 2 :] = y[: n_obs // 2, :1]
    return TimeSeriesPanel(tuple(f"A{n - k}" for k in range(n)), tuple(range(n_obs)), y)


def window_bytes(n: int) -> int:
    return 8 * n * n


def assert_rolling_matches_loop(r, width, step):
    got, expected = rolling_trees(r, width, step), rolling_trees_loop(r, width, step)
    assert got.windows == expected.windows
    assert [tree_bytes(t) for t in got.trees] == [tree_bytes(t) for t in expected.trees]


@pytest.mark.parametrize("count", [1, 2, 3, 4, 7])  # 1, chunk - 1, chunk, chunk + 1, 2 chunk + 1
def test_rolling_chunks_match_per_window_loop(count, monkeypatch):
    rng = np.random.default_rng(40 + count)
    n, width, step = 7, 6, 3
    r = tied_returns(rng, width + (count - 1) * step, n)
    assert_rolling_matches_loop(r, width, step)  # one stack at the default budget
    monkeypatch.setattr(dynamics, "_STACK_BYTES", 3 * window_bytes(n) + window_bytes(n) // 2)
    assert_rolling_matches_loop(r, width, step)


@pytest.mark.parametrize("chunk", [1, 2, 100])
def test_rolling_error_in_middle_window_matches_loop(chunk, monkeypatch):
    rng = np.random.default_rng(9)
    y = rng.standard_normal((25, 5))
    y[10:15, 3] = 1.5  # zero variance in window 2 of 5
    r = returns(y)
    monkeypatch.setattr(dynamics, "_STACK_BYTES", chunk * window_bytes(5))
    outcomes = []
    for build in (rolling_trees, rolling_trees_loop):
        with pytest.raises(CorrTreeError) as info:
            build(r, 5, 5)
        outcomes.append((type(info.value), str(info.value)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == "window 2 (timestamps 10 to 14): asset 'S03' has zero variance"


def test_rolling_nonfinite_distance_in_middle_window_matches_loop(monkeypatch):
    def poison_third_window(real):
        calls = []

        def to_distance(corr):
            dist = real(corr)
            calls.append(dist)
            if len(calls) != 3:
                return dist
            d = dist.d.copy()
            d[0, 2] = d[2, 0] = np.inf
            return DistanceMatrix(dist.assets, d)

        return to_distance

    r = returns(np.random.default_rng(10).standard_normal((25, 5)))
    monkeypatch.setattr(dynamics, "_STACK_BYTES", 2 * window_bytes(5))
    outcomes = []
    for module, build in ((dynamics, rolling_trees), (oracles, rolling_trees_loop)):
        monkeypatch.setattr(module, "to_distance", poison_third_window(module.to_distance))
        with pytest.raises(CorrTreeError) as info:
            build(r, 5, 5)
        outcomes.append((type(info.value), str(info.value)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == "window 2 (timestamps 10 to 14): non-finite distance inf between 'S00' and 'S02'"


def split_panel(kind: str, n_obs: int) -> TimeSeriesPanel:
    rng = np.random.default_rng(60 + n_obs)
    if kind == "untied":
        return returns(rng.standard_normal((n_obs, 6)))
    r = tied_returns(rng, n_obs, 6)
    if kind == "tied":
        return r
    y = r.values.copy()
    y[rng.random(y.shape) < 0.08] = np.nan
    return TimeSeriesPanel(r.assets, r.timestamps, y)


@pytest.mark.parametrize("kind", ["tied", "untied", "missing"])
@pytest.mark.parametrize("n_obs", [23, 24])
def test_split_matches_per_segment_oracle(kind, n_obs, monkeypatch):
    r = split_panel(kind, n_obs)
    for budget in (dynamics._STACK_BYTES, window_bytes(6)):  # one stack; a stack per segment
        monkeypatch.setattr(dynamics, "_STACK_BYTES", budget)
        for split_index in (n_obs // 2, 7):
            got = split_compare(r, split_index)
            before, after, survival = split_compare_pair(r, split_index)
            assert got.windows == ((0, split_index), (split_index, n_obs))
            assert [tree_bytes(t) for t in got.trees] == [tree_bytes(before), tree_bytes(after)]
            assert got.survival_vs_previous()[1] == survival


@pytest.mark.parametrize("chunk", [1, 2])
def test_split_error_in_both_segments_is_the_heads(chunk, monkeypatch):
    y = np.random.default_rng(15).standard_normal((20, 5))
    y[:10, 3] = 1.5  # zero variance in the head
    y[10:18, 1] = np.nan  # S01 keeps 2 of the tail's 10 rows
    with pytest.raises(InsufficientDataError):
        pearson_matrix(returns(y[10:]))
    monkeypatch.setattr(dynamics, "_STACK_BYTES", chunk * window_bytes(5))
    outcomes = []
    for build in (split_compare, split_compare_pair):
        with pytest.raises(CorrTreeError) as info:
            build(returns(y), 10)
        outcomes.append((type(info.value), str(info.value)))
    assert outcomes[0] == outcomes[1] == (
        DegenerateAssetError, "window 0 (timestamps 0 to 9): asset 'S03' has zero variance"
    )


def stage_outputs(path, signal) -> list:
    """Every library output for one panel file; each chain stops at its first CorrTreeError."""
    outputs = []

    def chain(value, *steps):
        for step in steps:
            try:
                value = step(value)
            except CorrTreeError:
                return
            outputs.append(value)

    chain(path, load_panel, signal)
    if len(outputs) == 2:
        signal_panel = outputs[1]
        chain(signal_panel, lambda r: rolling_trees(r, 3))
        chain(signal_panel, lambda r: split_compare(r, 3))
        chain(
            signal_panel, pearson_matrix, to_distance, build_mst, single_linkage,
            subdominant_ultrametric,
        )
    if outputs:  # the loaded panel, rebased to its first asset
        chain(outputs[0], lambda panel: rebase(panel, "A", numeraire="USD"))
    return outputs


# The extreme cells stop most chains at the correlation; the other two
# families reach every stage, the first under every signal, the second
# with missing, signed, tied and subnormal cells.
STAGE_PANELS = st.one_of(
    numeric_panels(5, 12),
    numeric_panels(5, 12, st.floats(0.25, 4.0).map(repr)),
    numeric_panels(
        5, 12, st.one_of(st.floats(-3.0, 3.0).map(repr), st.sampled_from(["NA", "1", "2", "5e-324"]))
    ),
)


@settings(max_examples=300)
@given(
    body=STAGE_PANELS,
    signal=st.sampled_from(tuple(_SIGNALS.values())),
)
def test_adopted_outputs_pass_public_constructors(body, signal, tmp_path_factory):
    """Each stage's output, handed over unchecked, passes its public constructor unchanged."""
    path = tmp_path_factory.mktemp("adopt") / "panel.csv"
    path.write_bytes(body)
    for output in stage_outputs(path, signal):
        revalidate(output)
