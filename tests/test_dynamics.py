"""Rolling-window trees, edge survival, before/after splits."""

import numpy as np
import pytest

from corrtree import (
    ComparisonError,
    FactorModelSpec,
    InsufficientDataError,
    SchemaError,
    SizeError,
    SpanningTree,
    TimeSeriesPanel,
    TreeEdge,
    TreeSequence,
    build_mst,
    edge_survival,
    generate,
    pearson_matrix,
    rolling_trees,
    spans_connected_subtree,
    split_compare,
    to_distance,
)
from corrtree import dynamics
from helpers import labels, returns
from oracles import revalidate


def path_tree(labels, weights=None):
    weights = weights or [1.0] * (len(labels) - 1)
    edges = tuple(
        TreeEdge(*sorted((a, b)), w)
        for a, b, w in zip(labels, labels[1:], weights)
    )
    return SpanningTree(tuple(labels), edges)


class TestWindowArguments:
    def panel(self):
        return returns(np.random.default_rng(0).standard_normal((10, 4)))

    def test_validation(self):
        r = self.panel()
        with pytest.raises(SizeError, match=r"^window width must be an integer >= 3, got 2$"):
            rolling_trees(r, 2)
        with pytest.raises(SizeError, match=r"^window step must be an integer >= 1, got 0$"):
            rolling_trees(r, 5, 0)
        assert rolling_trees(r, 8).windows == ((0, 8), (1, 9), (2, 10))  # step defaults to 1

    @pytest.mark.parametrize(
        ("width", "step", "shown"),
        [
            (4.5, 1, "width must be an integer >= 3, got 4.5"),
            (5, 1.5, "step must be an integer >= 1, got 1.5"),
            (float("nan"), 1, "width must be an integer >= 3, got nan"),
            (float("inf"), 1, "width must be an integer >= 3, got inf"),
            (5, float("nan"), "step must be an integer >= 1, got nan"),
            (5, float("-inf"), "step must be an integer >= 1, got -inf"),
            (np.float64("nan"), 1, f"width must be an integer >= 3, got {np.float64('nan')!r}"),
            (2, 0, "width must be an integer >= 3, got 2"),
            ("5", 1, "width must be an integer >= 3, got '5'"),
        ],
        ids=["fraction", "fractional-step", "nan", "inf", "nan-step", "minus-inf-step",
             "numpy-nan", "width-first", "string"],
    )
    def test_bad_width_or_step_is_a_size_error(self, width, step, shown):
        with pytest.raises(SizeError) as info:
            rolling_trees(self.panel(), width, step)
        assert str(info.value) == f"window {shown}"

    @pytest.mark.parametrize(
        ("width", "step"),
        [(5.0, 2.0), (np.int64(5), np.int32(2)), (np.float64(5.0), np.uint8(2))],
        ids=["floats", "numpy-integers", "numpy-mixed"],
    )
    def test_accepts_whole_numbers(self, width, step):
        seq = rolling_trees(self.panel(), width, step)
        assert seq.windows == ((0, 5), (2, 7), (4, 9))
        assert all(type(k) is int for span in seq.windows for k in span)


class TestRollingTrees:
    def test_window_count_arithmetic(self):
        rng = np.random.default_rng(0)
        r = returns(rng.standard_normal((10, 4)))
        seq = rolling_trees(r, 5, 1)
        assert len(seq) == 6
        assert seq.windows[0] == (0, 5)
        assert seq.windows[-1] == (5, 10)

    def test_step_drops_partial_tail(self):
        rng = np.random.default_rng(1)
        r = returns(rng.standard_normal((11, 4)))
        seq = rolling_trees(r, 5, 3)
        assert seq.windows == ((0, 5), (3, 8), (6, 11))

    def test_single_window_equals_static_pipeline(self):
        rng = np.random.default_rng(2)
        r = returns(rng.standard_normal((30, 5)))
        seq = rolling_trees(r, 30)
        static = build_mst(to_distance(pearson_matrix(r)))
        assert len(seq) == 1
        assert seq.trees[0].edges == static.edges

    def test_each_window_is_the_pipeline_on_its_panel_slice(self, monkeypatch):
        rng = np.random.default_rng(6)
        y = rng.standard_normal((14, 4))
        y[3, 1] = np.nan  # the first window takes the missing-data path
        r = TimeSeriesPanel(labels(4), tuple(f"d{k:02d}" for k in range(14)), y)
        seen = []

        def recorded(sub, **kwargs):
            seen.append(sub)
            return pearson_matrix(sub, **kwargs)

        monkeypatch.setattr(dynamics, "pearson_matrix", recorded)
        seq = rolling_trees(r, 6, 4)
        assert len(seen) == len(seq) == 3
        for sub, (start, end), tree in zip(seen, seq.windows, seq.trees):
            part = TimeSeriesPanel(r.assets, r.timestamps[start:end], r.values[start:end])
            assert sub == part
            assert tree.edges == build_mst(to_distance(pearson_matrix(part))).edges

    def test_width_longer_than_series(self):
        rng = np.random.default_rng(3)
        r = returns(rng.standard_normal((5, 3)))
        with pytest.raises(SizeError):
            rolling_trees(r, 6)

    def test_short_window_propagates_insufficient_data(self):
        rng = np.random.default_rng(4)
        r = returns(rng.standard_normal((10, 3)))
        with pytest.raises(InsufficientDataError):
            rolling_trees(r, 3, min_overlap=4)

    def test_group_connectivity_is_stable_on_stationary_panel(self):
        spec = FactorModelSpec(
            groups=(("A", 6), ("B", 6)),
            factor_loading=0.8,
            noise_sigma=0.6,
            length=1000,
            seed=20,
        )
        r = generate(spec)
        seq = rolling_trees(r, 250, 25)
        members = spec.member_map()
        ok = sum(
            all(spans_connected_subtree(t, m) for m in members.values())
            for t in seq.trees
        )
        assert ok / len(seq) >= 0.95

    def test_overlapping_windows_survive_better_than_disjoint(self):
        # fixed factor structure; averaging over seeds separates the regimes
        overlap_means = []
        disjoint_means = []
        for seed in range(30):
            spec = FactorModelSpec(
                groups=(("A", 5), ("B", 5)),
                factor_loading=0.7,
                noise_sigma=0.7,
                length=360,
                seed=seed,
            )
            r = generate(spec)
            dense = rolling_trees(r, 120, 30)
            sparse = rolling_trees(r, 120, 120)
            overlap_means.extend(
                s for s in dense.survival_vs_previous() if s is not None
            )
            disjoint_means.extend(
                s for s in sparse.survival_vs_previous() if s is not None
            )
        assert np.mean(overlap_means) > np.mean(disjoint_means)


class TestTreeSequence:
    @pytest.mark.parametrize(
        "windows, trees, message",
        [
            (((0, 5), (5, 10)), (path_tree("ABC"),), r"^2 windows but 1 trees$"),
            ((), (), r"^a tree sequence needs at least one window$"),
            (((0, 5),), (path_tree("ABD"),), r"^tree 0 does not cover the shared asset set$"),
            (((0, 5), (5, 5)), (path_tree("ABC"),) * 2, r"^window 1 has invalid span \(5, 5\)$"),
            (((-1, 5),), (path_tree("ABC"),), r"^window 0 has invalid span \(-1, 5\)$"),
            (((0.7, 5.9),), (path_tree("ABC"),), r"^window 0 start must be an integer, got 0\.7$"),
            (((0, 5), (5, 9.5)), (path_tree("ABC"),) * 2, r"^window 1 end must be an integer, got 9\.5$"),
            ((("0", 5),), (path_tree("ABC"),), r"^window 0 start must be an integer, got '0'$"),
        ],
        ids=["count-mismatch", "no-windows", "other-assets", "empty-span", "negative-start",
             "fractional-start", "fractional-end", "string-start"],
    )
    def test_rejects_inconsistent_sequences(self, windows, trees, message):
        with pytest.raises(SchemaError, match=message):
            TreeSequence(("A", "B", "C"), windows, trees)

    def test_whole_number_indices_become_ints(self):
        windows = TreeSequence(("A", "B", "C"), ((5.0, np.int64(9)),), (path_tree("ABC"),)).windows
        assert windows == ((5, 9),)
        assert all(type(i) is int for i in windows[0])


class TestEdgeSurvival:
    def test_identical_trees(self):
        t = path_tree("ABCD")
        assert edge_survival(t, t) == 1.0

    def test_half_shared(self):
        a = path_tree(("A", "B", "C", "D", "E"))  # A-B, B-C, C-D, D-E
        b = SpanningTree(
            ("A", "B", "C", "D", "E"),
            (
                TreeEdge("A", "B", 1.0),
                TreeEdge("B", "C", 1.0),
                TreeEdge("B", "D", 1.0),
                TreeEdge("B", "E", 1.0),
            ),
        )
        assert edge_survival(a, b) == 0.5

    def test_disjoint_trees(self):
        a = path_tree(("A", "B", "C", "D", "E"))
        b = SpanningTree(
            ("A", "B", "C", "D", "E"),
            (
                TreeEdge("A", "C", 1.0),
                TreeEdge("C", "E", 1.0),
                TreeEdge("B", "E", 1.0),
                TreeEdge("A", "D", 1.0),
            ),
        )
        assert edge_survival(a, b) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        y1 = returns(rng.standard_normal((40, 6)))
        y2 = returns(rng.standard_normal((40, 6)))
        t1 = build_mst(to_distance(pearson_matrix(y1)))
        t2 = build_mst(to_distance(pearson_matrix(y2)))
        assert edge_survival(t1, t2) == edge_survival(t2, t1)

    def test_mismatched_assets(self):
        with pytest.raises(ComparisonError):
            edge_survival(path_tree("ABC"), path_tree("ABD"))


class TestSplitCompare:
    def test_identical_halves(self):
        rng = np.random.default_rng(10)
        half = rng.standard_normal((25, 5))
        r = returns(np.vstack([half, half]))
        split = split_compare(r, 25)
        before, after = split.trees
        assert split.survival_vs_previous()[1] == 1.0
        assert before.edges == after.edges

    def test_segments_are_panel_slices(self):
        rng = np.random.default_rng(12)
        r = TimeSeriesPanel(labels(4), tuple(range(100, 112)), rng.standard_normal((12, 4)))
        before, after = split_compare(r, 5).trees
        for tree, rows in ((before, slice(5)), (after, slice(5, None))):
            part = TimeSeriesPanel(r.assets, r.timestamps[rows], r.values[rows])
            assert tree.edges == build_mst(to_distance(pearson_matrix(part))).edges

    def test_segment_guards(self):
        rng = np.random.default_rng(11)
        r = returns(rng.standard_normal((10, 3)))
        with pytest.raises(SizeError, match=r"^split at 2 leaves a segment shorter than 3 of 10 observations$"):
            split_compare(r, 2)
        with pytest.raises(SizeError, match=r"^split at 8 leaves a segment shorter than 3 of 10 observations$"):
            split_compare(r, 8)

    @pytest.mark.parametrize(
        "split",
        [float("nan"), 5.5, float("inf"), float("-inf"), np.float64("nan"), np.float64(6.5), "6"],
        ids=["nan", "fraction", "inf", "minus-inf", "numpy-nan", "numpy-fraction", "string"],
    )
    def test_split_that_is_not_a_whole_number_is_a_size_error(self, split):
        r = returns(np.random.default_rng(13).standard_normal((12, 4)))
        with pytest.raises(SizeError) as info:
            split_compare(r, split)
        assert str(info.value) == f"split index must be an integer, got {split!r}"

    @pytest.mark.parametrize("split", [6.0, np.float64(6.0)], ids=["float", "numpy-float"])
    def test_integral_float_split_is_an_int(self, split):
        r = returns(np.random.default_rng(13).standard_normal((12, 4)))
        windows = split_compare(r, split).windows
        assert windows == ((0, 6), (6, 12))
        assert [type(i) for span in windows for i in span] == [int] * 4

    def test_numpy_integer_split_gives_int_windows(self):
        r = returns(np.random.default_rng(13).standard_normal((12, 4)))
        split = split_compare(r, np.int64(5))
        assert [type(i) for span in split.windows for i in span] == [int] * 4
        revalidate(split)

    def test_membership_reshuffle_lowers_survival(self):
        # regime switch: group assignments are permuted at the split;
        # stationary panels of the same size give the baseline
        switched, stationary = [], []
        for seed in range(40):
            spec_a = FactorModelSpec(
                groups=(("A", 5), ("B", 5)),
                factor_loading=0.8,
                noise_sigma=0.6,
                length=200,
                seed=seed,
            )
            spec_b = FactorModelSpec(
                groups=(("A", 5), ("B", 5)),
                factor_loading=0.8,
                noise_sigma=0.6,
                length=200,
                seed=seed + 5000,
            )
            ya = generate(spec_a).values
            yb = generate(spec_b).values
            # reshuffle factor membership for the second half
            perm = np.random.default_rng(seed).permutation(10)
            r_switch = returns(np.vstack([ya, yb[:, perm]]))
            r_static = returns(np.vstack([ya, yb]))
            switched.append(split_compare(r_switch, 200).survival_vs_previous()[1])
            stationary.append(split_compare(r_static, 200).survival_vs_previous()[1])
        gap = np.mean(stationary) - np.mean(switched)
        assert gap > 0.1
