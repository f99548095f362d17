"""Signal transforms: log returns, ranks, re-basing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from corrtree import (
    DomainError,
    SchemaError,
    SizeError,
    TimeSeriesPanel,
    UnknownAssetError,
    log_returns,
    rank_signal,
    rebase,
)
from helpers import panel, peak_bytes
from oracles import revalidate

# frozen: ln(1.1) to 17 significant digits
LN_1_1 = 0.09531017980432486


class TestLogReturns:
    def test_frozen_value(self):
        p = panel([[100.0, 50.0], [110.0, 50.0]])
        r = log_returns(p)
        assert r.values.shape == (1, 2)
        assert abs(r.values[0, 0] - LN_1_1) < 1e-15
        assert r.values[0, 1] == 0.0

    def test_needs_two_rows(self):
        with pytest.raises(SizeError):
            log_returns(panel([[1.0, 2.0]]))

    def test_nonpositive_price_rejected(self):
        p = panel([[1.0, 2.0], [0.0, 3.0]])
        with pytest.raises(DomainError, match="S00"):
            log_returns(p)
        with pytest.raises(DomainError):
            log_returns(panel([[1.0, -2.0], [2.0, 3.0]]))

    def test_infinite_price_is_rejected_by_the_panel(self):
        # before the panel checked it, the inf return surfaced as an overflow in the correlation
        with pytest.raises(DomainError, match=r"^non-finite value inf for asset 'S01' at timestamp 1$"):
            log_returns(panel([[1.0, 2.0], [2.0, np.inf], [3.0, 4.0]]))

    def test_missing_propagates_to_adjacent_returns(self):
        p = panel([[1.0, 1.0], [np.nan, 2.0], [3.0, 4.0]])
        r = log_returns(p)
        assert np.isnan(r.values[0, 0]) and np.isnan(r.values[1, 0])
        assert not np.isnan(r.values[:, 1]).any()

    @given(
        hnp.arrays(
            np.float64,
            (5, 3),
            elements=st.floats(min_value=0.01, max_value=1e4),
        )
    )
    def test_scale_invariance(self, values):
        base = log_returns(panel(values)).values
        scaled = log_returns(panel(values * 7.5)).values
        assert np.allclose(base, scaled, atol=1e-12)


class TestSignalPanels:
    """Every signal returns a panel of the input's assets."""

    @staticmethod
    def prices():
        dates = ("2024-01-02", "2024-01-03", "2024-01-04")
        return TimeSeriesPanel(("A", "B"), dates, [[1.0, 2.0], [1.5, 2.5], [1.2, 3.0]])

    def test_log_returns_take_the_later_timestamp(self):
        p = self.prices()
        r = log_returns(p)
        assert r.assets == p.assets
        assert r.timestamps == p.timestamps[1:]

    @pytest.mark.parametrize("signal", [rank_signal])
    def test_rank_and_zscore_keep_timestamps(self, signal):
        p = self.prices()
        r = signal(p)
        assert r.assets == p.assets
        assert r.timestamps == p.timestamps


class TestRawAndRank:
    def test_rank_descending_with_ties(self):
        # row [3, 1, 2] -> places [1, 3, 2]; ties share the mean place
        r = rank_signal(panel([[3.0, 1.0, 2.0], [5.0, 5.0, 1.0]]))
        assert r.values[0].tolist() == [1.0, 3.0, 2.0]
        assert r.values[1].tolist() == [1.5, 1.5, 3.0]

    def test_rank_rejects_missing(self):
        with pytest.raises(DomainError):
            rank_signal(panel([[1.0, np.nan]]))

    @given(
        hnp.arrays(
            np.float64,
            (4, 5),
            elements=st.floats(-100, 100),
            unique=True,
        )
    )
    def test_rank_invariant_under_monotone_map(self, values):
        direct = rank_signal(panel(values)).values
        # power-of-two scaling is exact, so the order is untouched
        mapped = rank_signal(panel(values * 4.0)).values
        assert np.array_equal(direct, mapped)

    @pytest.mark.parametrize("shape", [(2000, 30), (30, 2000)], ids=["T>>n", "n>>T"])
    def test_rank_peak_memory(self, shape):
        """Two rank arrays and one argsort's indices: about three panels at the peak."""
        rng = np.random.default_rng(12)
        p = TimeSeriesPanel(tuple(f"A{i}" for i in range(shape[1])), tuple(range(shape[0])),
                            np.round(rng.standard_normal(shape), 1))
        _, peak = peak_bytes(rank_signal, p)
        assert peak <= 3.5 * p.values.nbytes

    def test_rank_rows_sum_to_constant(self):
        rng = np.random.default_rng(3)
        r = rank_signal(panel(rng.standard_normal((20, 6))))
        assert np.allclose(r.values.sum(axis=1), 21.0)  # 1+2+...+6


class TestRebase:
    def fx_panel(self):
        # quotes per unit USD
        rng = np.random.default_rng(5)
        values = np.exp(rng.standard_normal((8, 3)) * 0.1)
        return TimeSeriesPanel(
            ("EUR", "GBP", "JPY"), tuple(range(8)), values
        )

    def test_identity_when_base_is_numeraire(self):
        p = self.fx_panel()
        assert rebase(p, "USD", numeraire="USD") is p

    def test_base_column_becomes_reciprocal_numeraire(self):
        p = self.fx_panel()
        q = rebase(p, "EUR", numeraire="USD")
        assert q.assets == ("GBP", "JPY", "USD")
        eur = p.values[:, 0]
        assert np.allclose(q.values[:, 2], 1.0 / eur, rtol=1e-15)
        assert np.allclose(q.values[:, 0], p.values[:, 1] / eur, rtol=1e-15)

    def test_two_step_round_trip(self):
        p = self.fx_panel()
        q = rebase(p, "EUR", numeraire="USD")
        back = rebase(q, "USD", numeraire="EUR")
        assert set(back.assets) == set(p.assets)
        for label in p.assets:
            a = p.values[:, p.asset_index(label)]
            b = back.values[:, back.asset_index(label)]
            assert np.max(np.abs(b / a - 1.0)) <= 1e-12

    def test_unknown_base(self):
        with pytest.raises(UnknownAssetError):
            rebase(self.fx_panel(), "CHF", numeraire="USD")

    def test_numeraire_collision(self):
        with pytest.raises(SchemaError):
            rebase(self.fx_panel(), "EUR", numeraire="GBP")

    def test_nonpositive_base_quote(self):
        p = TimeSeriesPanel(("EUR", "GBP"), (0, 1), [[1.0, 2.0], [0.0, 3.0]])
        with pytest.raises(DomainError, match="1"):
            rebase(p, "EUR", numeraire="USD")

    def test_infinite_base_quote_is_rejected_by_the_panel(self):
        # before the panel checked it, 1 / inf reached the log returns as a 0.0 quote
        with pytest.raises(DomainError, match=r"^non-finite value inf for asset 'EUR' at timestamp 1$"):
            rebase(TimeSeriesPanel(("EUR", "GBP"), (0, 1), [[1.0, 2.0], [np.inf, 3.0]]), "EUR", numeraire="USD")

    def test_missing_base_quote(self):
        p = TimeSeriesPanel(("EUR", "GBP"), (0,), [[np.nan, 2.0]])
        with pytest.raises(DomainError):
            rebase(p, "EUR", numeraire="USD")

    @pytest.mark.parametrize(
        ("row", "asset"), [([1e300, 1e-300], "GBP"), ([1e-300, 5e-324], "USD")]
    )
    def test_overflowing_quote_is_named(self, row, asset):
        p = TimeSeriesPanel(("GBP", "EUR"), (7, 8), [[1.0, 2.0], row])
        with pytest.raises(DomainError, match=rf"'{asset}' in base 'EUR' .* at timestamp 8$"):
            rebase(p, "EUR", numeraire="USD")

    @pytest.mark.parametrize("numeraire", ["", None, 7])
    def test_numeraire_must_be_a_label(self, numeraire):
        with pytest.raises(SchemaError, match="^asset labels must be non-empty strings$"):
            rebase(self.fx_panel(), "EUR", numeraire=numeraire)

    @pytest.mark.parametrize(
        ("row", "message"),
        [([0.0, 1.0], "base column 'EUR' must be present"), ([5e-324, 1e300], "overflows float64")],
    )
    def test_base_and_overflow_faults_come_before_the_numeraire(self, row, message):
        p = TimeSeriesPanel(("EUR", "GBP"), (0, 1), [[1.0, 2.0], row])
        with pytest.raises(DomainError, match=message):
            rebase(p, "EUR", numeraire="")

    @pytest.mark.parametrize("base", ["EUR", "GBP", "JPY"])
    def test_adopted_panel_passes_the_constructor(self, base):
        q = rebase(self.fx_panel(), base, numeraire="USD")
        assert q.values.flags.c_contiguous
        revalidate(q)

    def test_peak_memory(self):
        """One (T, n) array is filled and divided in place: about one result at the peak."""
        rng = np.random.default_rng(6)
        labels = tuple(f"C{k:04d}" for k in range(1200))
        p = TimeSeriesPanel(labels, tuple(range(250)), np.exp(0.1 * rng.standard_normal((250, 1200))))
        q, peak = peak_bytes(rebase, p, "C0000", numeraire="USD")
        assert peak <= 2.5 * q.values.nbytes

    @given(st.integers(0, 2**31 - 1))
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        values = np.exp(rng.standard_normal((5, 4)))
        p = TimeSeriesPanel(("W", "X", "Y", "Z"), tuple(range(5)), values)
        q = rebase(p, "X", numeraire="N")
        back = rebase(q, "N", numeraire="X")
        for label in p.assets:
            a = p.values[:, p.asset_index(label)]
            b = back.values[:, back.asset_index(label)]
            assert np.max(np.abs(b / a - 1.0)) <= 1e-12
