"""Factor-model panel generator: determinism and implied correlations."""

import hashlib

import numpy as np
import pytest

from corrtree import (
    FactorModelSpec,
    GeneratorSpecError,
    build_mst,
    generate,
    parse_group_spec,
    pearson_matrix,
    spans_connected_subtree,
    to_distance,
)
from helpers import peak_bytes
from oracles import revalidate


def spec(**overrides):
    base = dict(
        groups=(("A", 3), ("B", 3)),
        factor_loading=0.8,
        noise_sigma=0.6,
        length=100,
        seed=1,
    )
    base.update(overrides)
    return FactorModelSpec(**base)


class TestSpecValidation:
    def test_accepts_reasonable_spec(self):
        s = spec()
        assert s.n_assets == 6
        assert s.member_map()["A"] == ("A_00", "A_01", "A_02")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"groups": ()},
            {"groups": (("A", 0), ("B", 3))},
            {"groups": (("A", 1),)},  # single asset total
            {"groups": (("A", 2), ("A", 2))},  # duplicate label
            {"groups": (("", 2), ("B", 2))},
            {"factor_loading": 0.0},
            {"factor_loading": 1.0},
            {"factor_loading": -0.3},
            {"noise_sigma": -0.1},
            {"noise_sigma": float("nan")},
            {"global_loading": -0.5},
            {"length": 1},
            {"seed": -4},
            {"groups": (("A", 2.5), ("B", 2))},
            {"groups": (("A", "3"), ("B", 2))},
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(GeneratorSpecError):
            spec(**overrides)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float64("-inf"), "20"])
    @pytest.mark.parametrize(("field", "least"), [("length", 2), ("seed", 0)])
    def test_nonfinite_counts_are_spec_errors(self, field, least, value):
        with pytest.raises(GeneratorSpecError) as info:
            spec(**{field: value})
        assert str(info.value) == f"{field} must be an integer >= {least}, got {value!r}"

    def test_zero_noise_allowed(self):
        assert spec(noise_sigma=0.0).noise_sigma == 0.0

    def test_implied_correlations(self):
        s = spec(factor_loading=0.8, noise_sigma=0.6)
        assert abs(s.implied_within_group_correlation() - 0.64) <= 1e-15
        assert s.implied_cross_group_correlation() == 0.0
        g = spec(factor_loading=0.8, noise_sigma=0.6, global_loading=0.6)
        # common variance .64 + .36, total 1.36
        assert abs(g.implied_within_group_correlation() - 1.0 / 1.36) <= 1e-15
        assert abs(g.implied_cross_group_correlation() - 0.36 / 1.36) <= 1e-15


class TestGenerate:
    def test_shape_kind_and_names(self):
        r = generate(spec())
        assert r.timestamps == tuple(range(100))
        assert r.values.shape == (100, 6)
        assert r.assets == ("A_00", "A_01", "A_02", "B_00", "B_01", "B_02")

    def test_prefixed_group_labels_give_a_valid_panel(self):
        """Names are label, underscore, digits, so distinct labels never share a name."""
        r = generate(spec(groups=(("A", 101), ("A_1", 2), ("A_10", 1)), length=5))
        revalidate(r)
        assert r.assets[-4:] == ("A_100", "A_1_00", "A_1_01", "A_10_00")

    def test_same_seed_bitwise_identical(self):
        a = generate(spec(seed=9))
        b = generate(spec(seed=9))
        assert np.array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        a = generate(spec(seed=9))
        b = generate(spec(seed=10))
        assert not np.array_equal(a.values, b.values)

    def test_group_count_invariance_of_existing_streams(self):
        # adding a group must not disturb the draws of earlier groups'
        # factors (streams are keyed, not sequential)
        small = generate(spec(groups=(("A", 3), ("B", 3))))
        large = generate(spec(groups=(("A", 3), ("B", 3), ("C", 2))))
        assert np.array_equal(
            small.values[:, :3], large.values[:, :3]
        )

    def test_zero_noise_gives_perfect_within_group_correlation(self):
        r = generate(spec(noise_sigma=0.0, length=50))
        rho = pearson_matrix(r).rho
        assert rho[0, 1] == 1.0
        assert rho[1, 2] == 1.0

    def test_sample_correlation_matches_implied(self):
        s = spec(length=5000, seed=33)
        rho = pearson_matrix(generate(s)).rho
        implied = s.implied_within_group_correlation()
        tol = 3.0 / np.sqrt(5000)
        assert abs(rho[0, 1] - implied) <= tol
        assert abs(rho[3, 4] - implied) <= tol

    def test_cross_group_correlation_near_zero(self):
        rho = pearson_matrix(generate(spec(length=5000, seed=34))).rho
        cross = rho[:3, 3:]
        assert np.max(np.abs(cross)) < 0.1

    def test_global_factor_couples_groups(self):
        s = spec(length=5000, seed=35, global_loading=0.7)
        rho = pearson_matrix(generate(s)).rho
        cross = rho[:3, 3:]
        implied = s.implied_cross_group_correlation()
        assert abs(np.mean(cross) - implied) <= 3.0 / np.sqrt(5000) + 0.02

    def test_groups_recovered_as_subtrees(self):
        s = spec(length=800, seed=36)
        tree = build_mst(to_distance(pearson_matrix(generate(s))))
        for members in s.member_map().values():
            assert spans_connected_subtree(tree, members)

    def test_values_are_pinned(self):
        """The generator's bits for one spec with a global factor stay those first drawn."""
        groups = tuple((f"G{g}", 50) for g in range(24))
        r = generate(spec(groups=groups, length=250, seed=7, global_loading=0.3))
        assert r.values.flags.c_contiguous
        digest = hashlib.sha256(r.values.tobytes()).hexdigest()
        assert digest == "c563e6b431632601ed9c99203031668c0f978504905e314245eb0588038e0762"

    def test_peak_memory(self):
        """The columns fill one preallocated array: about one result at the peak."""
        s = spec(groups=tuple((f"G{g}", 50) for g in range(24)), length=250)
        panel, peak = peak_bytes(generate, s)
        assert peak <= 1.75 * panel.values.nbytes

    def test_wide_group_padding(self):
        s = spec(groups=(("G", 120),), length=5)
        names = s.member_map()["G"]
        assert names[0] == "G_000"
        assert names[-1] == "G_119"
        assert list(names) == sorted(names)


class TestParseGroupSpec:
    def test_compact_form(self):
        assert parse_group_spec("3x10") == (("G1", 10), ("G2", 10), ("G3", 10))

    def test_count_list(self):
        assert parse_group_spec("4,5") == (("G1", 4), ("G2", 5))

    def test_whitespace_tolerated(self):
        assert parse_group_spec(" 2 x 3 ") == (("G1", 3), ("G2", 3))

    @pytest.mark.parametrize("text", ["", "3x", "x10", "a,b", "3x10x2", "-1x5", "3,²"])
    def test_rejects_garbage(self, text):
        with pytest.raises(GeneratorSpecError):
            parse_group_spec(text)

    def test_zero_dimension_rejected(self):
        for text in ("0x5", "3,0"):
            with pytest.raises(GeneratorSpecError, match="zero dimension"):
                parse_group_spec(text)
