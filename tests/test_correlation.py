"""Pearson correlation estimation and the correlation census."""

import hashlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrtree import (
    CorrelationCensus,
    CorrelationMatrix,
    DegenerateAssetError,
    InsufficientDataError,
    SchemaError,
    build_mst,
    census,
    correlation,
    pearson_matrix,
    to_distance,
)
from helpers import child_env, corr_from_pairs, labels, peak_bytes, returns
from oracles import census_triu, pairwise_complete_loop

# frozen: corr([1,2,3],[1,2,4]) = sqrt(27/28), same under population or
# sample divisors
RHO_123_124 = 0.9819805060619657

# prints, per saved panel, whether its rho is bit-symmetric
_SYMMETRY_CHILD = """
import sys
import numpy as np
from corrtree import TimeSeriesPanel, pearson_matrix
for path in sys.argv[1:]:
    y = np.load(path)
    rho = pearson_matrix(TimeSeriesPanel(tuple(map(str, range(y.shape[1]))), tuple(range(len(y))), y)).rho
    print(rho.tobytes() == rho.T.tobytes())
"""


def _symmetry_panels() -> list[np.ndarray]:
    """Complete and 1 %-missing twins, small and large enough for BLAS to split the Gram across threads."""
    rng = np.random.default_rng(8)
    panels = []
    for y in (rng.standard_normal((25, 9)), rng.standard_normal((300, 250)) + rng.standard_normal((300, 1))):
        holed = y.copy()
        holed[rng.random(y.shape) < 0.01] = np.nan
        assert np.isnan(holed).any()
        panels += [y, holed]
    return panels


class TestPearson:
    def test_frozen_three_point_pair(self):
        r = returns(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 4.0]]))
        rho = pearson_matrix(r).rho
        assert abs(rho[0, 1] - RHO_123_124) <= 1e-12

    def test_perfect_and_anti_correlation(self):
        x = np.arange(10.0)
        r = returns(np.column_stack([x, 2.0 * x + 3.0, -x]))
        rho = pearson_matrix(r).rho
        assert rho[0, 1] == 1.0
        assert rho[0, 2] == -1.0

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal((40, 6))
        ours = pearson_matrix(returns(y)).rho
        theirs = np.corrcoef(y, rowvar=False)
        assert np.max(np.abs(ours - theirs)) <= 1e-12

    def test_diagonal_and_symmetry_exact(self, tmp_path):
        """rho is bit-symmetric as both paths make it, at one BLAS thread and at four.

        The complete path's Gram is BLAS syrk, which mirrors one triangle;
        the masked path's einsum sums (i, j) and (j, i) in one order.
        """
        paths = []
        for k, y in enumerate(_symmetry_panels()):
            rho = pearson_matrix(returns(y)).rho
            assert rho.tobytes() == rho.T.tobytes(), y.shape
            assert np.all(np.diag(rho) == 1.0)
            assert np.max(np.abs(rho)) <= 1.0
            paths.append(tmp_path / f"y{k}.npy")
            np.save(paths[-1], y)
        child = subprocess.run(
            [sys.executable, "-c", _SYMMETRY_CHILD, *map(str, paths)],
            env=child_env(4),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["True"] * len(paths)

    def test_constant_asset_rejected(self):
        y = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(DegenerateAssetError, match="S01"):
            pearson_matrix(returns(y))

    def test_min_overlap_guard_full_sample(self):
        y = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(InsufficientDataError):
            pearson_matrix(returns(y), min_overlap=3)
        assert pearson_matrix(returns(y), min_overlap=2).rho[0, 1] == -1.0

    def test_min_overlap_validation(self):
        with pytest.raises(ValueError):
            pearson_matrix(returns(np.eye(3)), min_overlap=1)

    @pytest.mark.parametrize("missing", [False, True], ids=["complete", "missing"])
    def test_nan_min_overlap_is_rejected(self, missing):
        """A NaN bound compares false both ways, so it must not pass as 'not below 2'."""
        y = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, np.nan if missing else 5.0]])
        with pytest.raises(ValueError, match="^min_overlap must be >= 2, got nan$"):
            pearson_matrix(returns(y), min_overlap=float("nan"))

    @given(
        seed=st.integers(0, 2**31 - 1),
        scale=st.lists(st.floats(0.01, 100.0), min_size=4, max_size=4),
        shift=st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=4),
        missing=st.booleans(),
    )
    def test_affine_invariance(self, seed, scale, shift, missing):
        """Each column's own positive scale and shift leave rho and the tree as they were.

        This is why no signal standardises its columns.
        """
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((20, 4))
        if missing:
            y[rng.random(y.shape) < 0.1] = np.nan
        base = pearson_matrix(returns(y))
        moved = pearson_matrix(returns(y * np.array(scale) + np.array(shift)))
        assert np.max(np.abs(base.rho - moved.rho)) <= 1e-10
        tree = build_mst(to_distance(base))
        assert build_mst(to_distance(moved)).edge_set() == tree.edge_set()

    @pytest.mark.parametrize("missing", [False, True], ids=["complete", "missing"])
    def test_bytes_ignore_memory_layout(self, missing):
        # column sums of a Fortran-ordered array round differently
        rng = np.random.default_rng(31)
        y = 0.01 * rng.standard_normal((250, 30)) + 0.001
        if missing:
            y[rng.random(y.shape) < 0.02] = np.nan
        c_order = pearson_matrix(returns(np.ascontiguousarray(y))).rho
        f_order = pearson_matrix(returns(np.asfortranarray(y))).rho
        assert f_order.tobytes() == c_order.tobytes()

    def test_complete_data_peak_memory(self):
        """The centred panel is dropped before the Gram is scaled in row blocks: about 1.32 results."""
        rng = np.random.default_rng(8)
        r = returns(rng.standard_normal((100, 400)) + rng.standard_normal((100, 1)))
        corr, peak = peak_bytes(pearson_matrix, r)
        assert peak <= 1.35 * corr.rho.nbytes

    def test_missing_data_peak_memory(self):
        """One mask, and each moment written over its sum: about 5.4 results at the peak.

        When T >> n the T x n copies set the peak instead (missing-n150's shape: about 21.3).
        """
        for t, n, bound in [(100, 400, 6), (1500, 150, 22)]:
            rng = np.random.default_rng(8)
            y = rng.standard_normal((t, n)) + rng.standard_normal((t, 1))
            y[rng.random(y.shape) < 0.01] = np.nan
            corr, peak = peak_bytes(pearson_matrix, returns(y))
            assert peak <= bound * corr.rho.nbytes, (t, n)


class TestPairwiseComplete:
    def test_matches_per_pair_loop(self):
        rng = np.random.default_rng(21)
        y = rng.standard_normal((60, 5))
        y[rng.random((60, 5)) < 0.2] = np.nan
        rho = pearson_matrix(returns(y), min_overlap=3).rho
        for i in range(5):
            for j in range(i + 1, 5):
                mask = ~np.isnan(y[:, i]) & ~np.isnan(y[:, j])
                a, b = y[mask, i], y[mask, j]
                a = a - a.mean()
                b = b - b.mean()
                expected = (a * b).mean() / np.sqrt((a * a).mean() * (b * b).mean())
                assert abs(rho[i, j] - expected) <= 1e-12

    def test_full_and_pairwise_agree_without_missing(self):
        rng = np.random.default_rng(22)
        y = rng.standard_normal((30, 4))
        full = pearson_matrix(returns(y)).rho
        z = y.copy()
        z = np.vstack([z, np.full((1, 4), np.nan)])  # force the masked route
        masked = pearson_matrix(returns(z)).rho
        assert np.max(np.abs(full - masked)) <= 1e-12

    def test_insufficient_overlap(self):
        y = np.array(
            [
                [1.0, np.nan],
                [2.0, np.nan],
                [np.nan, 1.0],
                [np.nan, 2.0],
                [3.0, 3.0],
                [4.0, 5.0],
            ]
        )
        with pytest.raises(InsufficientDataError, match="2 joint"):
            pearson_matrix(returns(y), min_overlap=3)

    def test_constant_on_overlap(self):
        y = np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0], [np.nan, 9.0]])
        with pytest.raises(DegenerateAssetError, match="overlap"):
            pearson_matrix(returns(y))


def adversarial_panel(rng: np.random.Generator, kind: int) -> np.ndarray:
    """Small panel with missing cells, built to stress the masked Gram.

    Kinds: Gaussian; quantised ties; a column constant on another's rows;
    a 1e8-level near-constant column; an all-missing column; a regime
    shift of 30-3000 sigma seen whole by one column and in part by a
    late-listed one; the same shift at 0.3-3 sigma, around the point
    where the Gram variance stops counting as clearly positive.
    """
    t = int(rng.integers(3, 40))
    n = int(rng.integers(2, 8))
    y = rng.standard_normal((t, n))
    if kind == 1:
        y = rng.integers(0, int(rng.integers(1, 4)), (t, n)).astype(float)
    y[rng.random((t, n)) < rng.choice([0.05, 0.15, 0.4])] = np.nan
    c, d = rng.choice(n, size=2, replace=False)
    if kind == 2:
        y[~np.isnan(y[:, d]), c] = rng.standard_normal()
    elif kind == 3:
        y[:, c] = 1e8 + np.round(rng.standard_normal(t), int(rng.integers(0, 9)))
    elif kind == 4:
        y[:, c] = np.nan
    elif kind in (5, 6):
        start = int(rng.integers(1, t))
        sigmas = 10 ** rng.uniform(1.5, 3.5) if kind == 5 else rng.uniform(0.3, 3.0)
        y[start:, c] += sigmas * rng.choice([-1.0, 1.0])
        y[:start, d] = np.nan
    y *= 10 ** rng.uniform(-3.0, 3.0, n)
    y += rng.choice([0.0, 1e4], n) * rng.standard_normal(n)
    if not np.isnan(y).any():  # take the masked path
        y[rng.integers(t), rng.integers(n)] = np.nan
    return y


class TestMaskedGram:
    """The masked-Gram routine against the per-pair loop it replaced."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_pair_loop(self, seed):
        rng = np.random.default_rng(300 + seed)
        outcomes = {"value": 0, "error": 0}
        for k in range(600):
            y = adversarial_panel(rng, k % 7)
            r = returns(y)
            min_overlap = int(rng.integers(2, 6))
            try:
                expected = pairwise_complete_loop(r, min_overlap)
            except (InsufficientDataError, DegenerateAssetError) as exc:
                expected = exc
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    got = pearson_matrix(r, min_overlap=min_overlap).rho
                except (InsufficientDataError, DegenerateAssetError) as exc:
                    got = exc
            if isinstance(expected, Exception):
                outcomes["error"] += 1
                assert type(got) is type(expected), (k, got, expected)
                assert str(got) == str(expected)
            else:
                outcomes["value"] += 1
                assert not isinstance(got, Exception), (k, got)
                expected = np.clip((expected + expected.T) / 2.0, -1.0, 1.0)
                np.fill_diagonal(expected, 1.0)
                assert np.max(np.abs(got - expected)) <= 1e-12, k
        assert min(outcomes.values()) >= 100, outcomes

    def test_bytes_are_pinned(self):
        """The bytes, or the error, on 301 adversarial panels keep the digest first taken.

        The loop above allows 1e-12; this holds every last bit and every
        choice of the per-pair arithmetic.
        """
        rng = np.random.default_rng(900)
        digest = hashlib.sha256()
        outcomes = {"value": 0, "error": 0}
        for k in range(301):
            r = returns(adversarial_panel(rng, k % 7))
            try:
                rho = pearson_matrix(r, min_overlap=int(rng.integers(2, 6))).rho
            except (InsufficientDataError, DegenerateAssetError) as exc:
                outcomes["error"] += 1
                digest.update(f"{type(exc).__name__}: {exc}".encode())
            else:
                outcomes["value"] += 1
                digest.update(rho.tobytes())
        assert min(outcomes.values()) >= 100, outcomes
        assert digest.hexdigest() == "77c89454c42d467271c5941fb2ca316bf820af2a9fd523204fad30394b8f945d"

    def test_regime_shift_on_late_listing(self):
        # A's mean moves by 1000 sigma at row 200 and B lists only then,
        # so A's overlap with B sits 500 sigma from A's column mean.
        rng = np.random.default_rng(31)
        y = rng.standard_normal((400, 3))
        y[:, 1] += 0.5 * y[:, 0]
        y[200:, 0] += 1000.0
        y[:200, 1] = np.nan
        y[rng.random((400, 3)) < 0.01] = np.nan
        r = returns(y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pearson_matrix(r).rho
        expected = pairwise_complete_loop(r, 3)
        assert np.max(np.abs(got - expected)) <= 1e-12


class TestExtremeScale:
    """Scaling a panel by 10**k leaves its correlations alone, on both paths."""

    @pytest.mark.parametrize("k", [-300, -200, -170, -160, -150, -100, -50, 50, 100, 150, 200, 300])
    def test_scaled_panels_keep_rho(self, k):
        rng = np.random.default_rng(700 + k)
        for m in range(100):
            y = rng.standard_normal((int(rng.integers(4, 40)), int(rng.integers(2, 8))))
            if m % 2:
                y[rng.random(y.shape) < 0.1] = np.nan
            outcomes = []
            for values in (y, y * 10.0**k):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        outcomes.append(pearson_matrix(returns(values)).rho)
                    except (InsufficientDataError, DegenerateAssetError) as exc:
                        outcomes.append(exc)
            expected, got = outcomes
            if isinstance(expected, Exception):
                assert str(got) == str(expected), (k, m)
            else:
                assert np.max(np.abs(got - expected)) <= 1e-12, (k, m)

    @pytest.mark.parametrize("k", [-1000, -600, 300, 600, 1000])
    @pytest.mark.parametrize("missing", [False, True], ids=["complete", "missing"])
    def test_power_of_two_scaling_keeps_bytes(self, monkeypatch, k, missing):
        """Every other column times 2**k: the same bytes, or the same error.

        Pairs of scaled columns take variance products near 2**(2k), and
        column 0's overlap with column 1 sits far from its column mean, so
        that pair takes the per-pair arithmetic on the masked path.
        """
        rng = np.random.default_rng(41)
        y = rng.standard_normal((300, 40))
        y[:, 1] += 0.5 * y[:, 0]
        if missing:
            y[150:, 0] += 1000.0
            y[:150, 1] = np.nan
            y[rng.random(y.shape) < 0.01] = np.nan
        scaled = y.copy()
        scaled[:, ::2] = np.ldexp(y[:, ::2], k)
        assert np.array_equal(np.ldexp(scaled[:, ::2], -k), y[:, ::2], equal_nan=True)  # exact
        exact_pairs = []
        pair_rho = correlation._pair_rho

        def spy(returns, absent, i, j, min_overlap):
            exact_pairs.append((i, j))
            return pair_rho(returns, absent, i, j, min_overlap)

        monkeypatch.setattr(correlation, "_pair_rho", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = pearson_matrix(returns(y)).rho
            assert pearson_matrix(returns(scaled)).rho.tobytes() == expected.tobytes()
        assert ((0, 1) in exact_pairs) == missing

        constant = y.copy()
        constant[:, 2] = 3.0
        if missing:
            constant[5, 2] = np.nan
        errors = []
        for values in (constant, np.where(np.arange(40) % 2 == 0, np.ldexp(constant, k), constant)):
            with pytest.raises(DegenerateAssetError) as info:
                pearson_matrix(returns(values))
            errors.append(str(info.value))
        assert errors[0] == errors[1] and "'S02'" in errors[0]


class TestMatrixValidation:
    def test_rejects_asymmetry(self):
        rho = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(SchemaError):
            CorrelationMatrix(("A", "B"), rho)

    def test_rejects_bad_diagonal(self):
        rho = np.array([[0.9, 0.2], [0.2, 1.0]])
        with pytest.raises(SchemaError):
            CorrelationMatrix(("A", "B"), rho)

    def test_rejects_out_of_range(self):
        rho = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(SchemaError):
            CorrelationMatrix(("A", "B"), rho)

    def test_rejects_single_asset(self):
        with pytest.raises(SchemaError):
            CorrelationMatrix(("A",), np.array([[1.0]]))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(SchemaError, match=r"^duplicate asset label\(s\): \['A'\]$"):
            CorrelationMatrix(("A", "B", "A"), np.eye(3))

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.eye(3), r"^matrix shape \(3, 3\) does not match 2 assets$"),
            ([[1.0, np.nan], [np.nan, 1.0]], r"^correlation entries must be finite$"),
            ([[1.0, np.inf], [np.inf, 1.0]], r"^correlation entries must be finite$"),
        ],
        ids=["shape", "nan", "inf"],
    )
    def test_rejects_wrong_shape_and_non_finite_entries(self, rho, message):
        with pytest.raises(SchemaError, match=message):
            CorrelationMatrix(("A", "B"), rho)


class TestCensus:
    def test_boundaries(self):
        corr = corr_from_pairs(
            ("A", "B", "C", "D"),
            {("A", "B"): 0.5, ("A", "C"): 0.0, ("A", "D"): -1e-12},
            default=0.2,
        )
        counts = census(corr)
        # 0.5 is strong, 0.0 is weak, any negative counts as negative
        assert counts.strong == 1
        assert counts.negative == 1
        assert counts.weak == 4

    def test_sum_identity_enforced(self):
        with pytest.raises(SchemaError):
            CorrelationCensus(n_assets=4, strong=1, weak=1, negative=1)

    def test_json_record(self):
        counts = CorrelationCensus(n_assets=3, strong=1, weak=2, negative=0)
        assert counts.to_json() == '{"n": 3, "strong": 1, "weak": 2, "negative": 0}'

    @given(st.integers(0, 2**31 - 1), st.integers(3, 12))
    def test_sum_identity_on_random_matrices(self, seed, n):
        rng = np.random.default_rng(seed)
        corr = pearson_matrix(returns(rng.standard_normal((n + 5, n))))
        counts = census(corr)
        assert counts.strong + counts.weak + counts.negative == n * (n - 1) // 2

    def test_shaped_counts(self):
        names = labels(30)
        strong_pairs = {(names[2 * k], names[2 * k + 1]): 0.7 for k in range(9)}
        counts = census(corr_from_pairs(names, strong_pairs, default=0.2))
        assert (counts.strong, counts.weak, counts.negative) == (9, 426, 0)

    def test_matches_upper_triangle_oracle(self):
        # entries exactly on the bin edges, on either side of them and at -0.0
        pool = [0.5, 0.4999999999999999, 0.0, -0.0, -1e-300, 1.0, -1.0, 0.7, -0.3]
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            iu, ju = np.triu_indices(n, k=1)
            rho = np.eye(n)
            rho[iu, ju] = rho[ju, iu] = rng.choice(pool, iu.size)
            corr = CorrelationMatrix(labels(n), rho)
            counts = census(corr)
            assert counts == census_triu(corr)
            assert {type(c) for c in (counts.strong, counts.weak, counts.negative)} == {int}
