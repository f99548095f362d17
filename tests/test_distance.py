"""Correlation-to-distance map, and the metric axiom check the tests rely on."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrtree import (
    DistanceMatrix,
    DomainError,
    SchemaError,
    build_mst,
    pearson_matrix,
    single_linkage,
    subdominant_ultrametric,
    to_distance,
)
from helpers import corr_from_pairs, random_data_distance, returns
from oracles import metric_axioms_unchunked, revalidate

# frozen anchors for d = sqrt(2 (1 - rho))
ANCHORS = [
    (1.0, 0.0),
    (0.72, 0.7483314773547883),
    (0.68, 0.8),  # one ulp below 0.8 after rounding; tolerance absorbs it
    (0.61, 0.8831760866327848),
    (0.0, 1.4142135623730951),
    (-1.0, 2.0),
]


class TestToDistance:
    @pytest.mark.parametrize("rho,expected", ANCHORS)
    def test_frozen_anchors(self, rho, expected):
        corr = corr_from_pairs(("A", "B"), {("A", "B"): rho})
        d = to_distance(corr).d[0, 1]
        assert abs(d - expected) <= 1e-12

    def test_anchor_within_half_percent_of_three_quarters(self):
        corr = corr_from_pairs(("A", "B"), {("A", "B"): 0.72})
        assert abs(to_distance(corr).d[0, 1] - 0.75) < 0.005

    def test_tight_at_point_six_eight(self):
        corr = corr_from_pairs(("A", "B"), {("A", "B"): 0.68})
        assert abs(to_distance(corr).d[0, 1] - 0.8) <= 1e-12

    def test_zero_diagonal_and_symmetry(self):
        rng = np.random.default_rng(13)
        dist = random_data_distance(rng, 8)
        assert np.all(np.diag(dist.d) == 0.0)
        assert np.array_equal(dist.d, dist.d.T)

    def test_leaves_the_correlation_as_it_was(self):
        """Only a caller that owns and drops the correlation may have the distance written over it."""
        y = np.random.default_rng(4).standard_normal((40, 6))
        y[:, 5] = y[:, 0]  # rho = 1 off the diagonal
        corr = pearson_matrix(returns(y))
        before = corr.rho.tobytes()
        dist = to_distance(corr)
        assert corr.rho.tobytes() == before and not corr.rho.flags.writeable
        assert not np.shares_memory(dist.d, corr.rho)
        revalidate(corr)
        revalidate(dist)
        owned = pearson_matrix(returns(y))
        overwritten = to_distance(owned, _overwrite=True)
        assert overwritten.d is owned.rho
        assert overwritten.d.tobytes() == dist.d.tobytes()  # +0.0 where rho = 1, the diagonal included
        revalidate(overwritten)

    def test_range(self):
        corr = corr_from_pairs(("A", "B", "C"), {("A", "B"): -1.0, ("A", "C"): 1.0})
        d = to_distance(corr).d
        assert d.max() <= 2.0 and d.min() >= 0.0

    @given(st.floats(-1.0, 0.999))
    def test_monotone_decreasing_in_rho(self, rho):
        lo = to_distance(corr_from_pairs(("A", "B"), {("A", "B"): rho})).d[0, 1]
        hi = to_distance(corr_from_pairs(("A", "B"), {("A", "B"): rho + 0.001})).d[0, 1]
        assert hi < lo


class TestDistanceMatrixValidation:
    def test_rejects_negative_entries(self):
        d = np.array([[0.0, -0.1], [-0.1, 0.0]])
        with pytest.raises(SchemaError):
            DistanceMatrix(("A", "B"), d)

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(SchemaError):
            DistanceMatrix(("A", "B"), d)

    def test_rejects_asymmetry(self):
        d = np.array([[0.0, 1.0], [1.1, 0.0]])
        with pytest.raises(SchemaError):
            DistanceMatrix(("A", "B"), d)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(SchemaError, match=r"^duplicate asset label\(s\): \['A'\]$"):
            DistanceMatrix(("A", "B", "A"), 1.0 - np.eye(3))

    @pytest.mark.parametrize(
        "assets, d, message",
        [
            ((), np.zeros((0, 0)), r"^distance matrix needs at least 1 asset$"),
            (("A", "B"), np.zeros((3, 3)), r"^matrix shape \(3, 3\) does not match 2 assets$"),
            (("A", "B"), np.zeros(2), r"^matrix shape \(2,\) does not match 2 assets$"),
        ],
        ids=["no-assets", "shape", "one-dimensional"],
    )
    def test_rejects_no_assets_and_wrong_shape(self, assets, d, message):
        with pytest.raises(SchemaError, match=message):
            DistanceMatrix(assets, d)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_entries(self, bad):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, bad], [2.0, bad, 0.0]])
        with pytest.raises(DomainError) as info:
            DistanceMatrix(("A", "B", "C"), d)
        assert str(info.value) == f"non-finite distance {bad!r} between 'B' and 'C'"

    @pytest.mark.parametrize(
        "d",
        [
            [[0.0, np.inf], [1.0, 0.0]],  # asymmetric
            [[np.nan, 1.0], [1.0, 0.0]],  # diagonal
            [[0.0, -1.0, np.inf], [-1.0, 0.0, 1.0], [np.inf, 1.0, 0.0]],  # negative
        ],
    )
    def test_earlier_checks_come_first(self, d):
        with pytest.raises(SchemaError):
            DistanceMatrix(tuple("ABC"[: len(d)]), np.array(d))


class TestAxiomChecks:
    def test_clean_matrix_has_no_violations(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dist = random_data_distance(rng, int(rng.integers(3, 10)))
            assert metric_axioms_unchunked(dist, tol=1e-9) == []

    def test_triangle_violation_found(self):
        d = np.array(
            [
                [0.0, 1.0, 3.0],
                [1.0, 0.0, 1.0],
                [3.0, 1.0, 0.0],
            ]
        )
        violations = metric_axioms_unchunked(d)
        axioms = {v.axiom for v in violations}
        assert axioms == {"triangle"}
        assert any(v.indices == (0, 2, 1) for v in violations)

    def test_nonzero_diagonal_reported(self):
        d = np.array([[0.5, 1.0], [1.0, 0.0]])
        violations = metric_axioms_unchunked(d)
        assert any(v.axiom == "identity" and v.indices == (0, 0) for v in violations)

    def test_zero_off_diagonal_reported(self):
        d = np.zeros((2, 2))
        violations = metric_axioms_unchunked(d)
        assert any(v.axiom == "identity" and v.indices == (0, 1) for v in violations)

    def test_asymmetry_reported(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        violations = metric_axioms_unchunked(d)
        assert any(v.axiom == "symmetry" for v in violations)

    def test_tolerance_masks_tiny_noise(self):
        d = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
        assert metric_axioms_unchunked(d, tol=1e-9) == []
        assert metric_axioms_unchunked(d, tol=1e-15) != []

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            metric_axioms_unchunked(np.zeros((2, 3)))

    def test_pairwise_complete_correlations_need_not_be_metric(self):
        """Each pair correlated over its own rows: A = B, B = C and C = -A, each on five rows.

        rho_AB = rho_BC = 1 and rho_AC = -1 (eigenvalues -1, 2, 2), so d_AC = 2 > d_AB + d_BC = 0,
        and the tree and the subdominant ultrametric are still built.
        """
        x = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
        y = np.full((15, 3), np.nan)
        y[0:5, 0] = y[0:5, 1] = x
        y[5:10, 1] = y[5:10, 2] = 2.0 * x[::-1]
        y[10:15, 0], y[10:15, 2] = x, -x
        dist = to_distance(pearson_matrix(returns(y)))
        assert dist.d[0, 2] == 2.0 and dist.d[0, 1] == dist.d[1, 2] == 0.0
        triangles = [v.indices for v in metric_axioms_unchunked(dist) if v.axiom == "triangle"]
        assert triangles == [(0, 2, 1)]
        tree = build_mst(dist)
        assert sorted(e.weight for e in tree.edges) == [0.0, 0.0]
        assert not subdominant_ultrametric(single_linkage(tree)).d.any()

    def test_collinear_boundary_is_not_a_violation(self):
        # perfectly flat triangle: d(i,k) exactly equals d(i,j) + d(j,k)
        d = np.array(
            [
                [0.0, 1.0, 2.0],
                [1.0, 0.0, 1.0],
                [2.0, 1.0, 0.0],
            ]
        )
        assert metric_axioms_unchunked(d) == []


@given(st.integers(0, 2**31 - 1))
def test_data_derived_distances_are_metric(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    y = rng.standard_normal((n + int(rng.integers(2, 20)), n))
    dist = to_distance(pearson_matrix(returns(y)))
    assert metric_axioms_unchunked(dist, tol=1e-9) == []
