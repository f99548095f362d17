"""Panel loading, validation and serialization."""

import contextlib
import hashlib
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrtree import (
    CorrTreeError,
    DomainError,
    PanelParseError,
    SchemaError,
    TimeSeriesPanel,
    UnknownAssetError,
    load_panel,
)
from helpers import write_panel
from oracles import load_panel_two_pass, revalidate


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestConstruction:
    def test_basic_fields(self):
        p = TimeSeriesPanel(("A", "B"), (0, 1, 2), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert p.n_assets == 2
        assert p.n_obs == 3
        assert p.asset_index("B") == 1

    def test_unknown_asset(self):
        p = TimeSeriesPanel(("A", "B"), (0,), [[1.0, 2.0]])
        with pytest.raises(UnknownAssetError):
            p.asset_index("Z")

    def test_values_are_read_only(self):
        p = TimeSeriesPanel(("A", "B"), (0,), [[1.0, 2.0]])
        with pytest.raises(ValueError):
            p.values[0, 0] = 9.0

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SchemaError):
            TimeSeriesPanel(("A", "A"), (0,), [[1.0, 2.0]])

    def test_single_asset_rejected(self):
        with pytest.raises(SchemaError):
            TimeSeriesPanel(("A",), (0,), [[1.0]])

    def test_timestamps_must_increase(self):
        with pytest.raises(SchemaError):
            TimeSeriesPanel(("A", "B"), (3, 3), [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(SchemaError):
            TimeSeriesPanel(("A", "B"), (5, 1), [[1.0, 2.0], [3.0, 4.0]])

    def test_mixed_timestamp_types_rejected(self):
        with pytest.raises(SchemaError):
            TimeSeriesPanel(("A", "B"), (1, "2"), [[1.0, 2.0], [3.0, 4.0]])

    def test_shape_mismatch(self):
        with pytest.raises(SchemaError):
            TimeSeriesPanel(("A", "B"), (0, 1), [[1.0, 2.0]])

    @pytest.mark.parametrize(
        "assets, timestamps, values, message",
        [
            (("A", ""), (0,), [[1.0, 2.0]], r"^asset labels must be non-empty strings$"),
            (("A", 1), (0,), [[1.0, 2.0]], r"^asset labels must be non-empty strings$"),
            (("A", "B"), (), np.empty((0, 2)), r"^a panel needs at least one observation row$"),
        ],
        ids=["empty-label", "non-string-label", "no-rows"],
    )
    def test_rejects_bad_labels_and_no_rows(self, assets, timestamps, values, message):
        with pytest.raises(SchemaError, match=message):
            TimeSeriesPanel(assets, timestamps, values)

    def test_not_equal_to_other_types(self):
        p = TimeSeriesPanel(("A", "B"), (0,), [[1.0, 2.0]])
        assert p.__eq__(p.values) is NotImplemented
        assert p != "A"

    @pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "minus-inf"])
    def test_infinite_cell_names_asset_and_timestamp(self, value):
        # the first infinite cell in row order is named; NaN cells are missing, not faults
        values = np.array([[1.0, 2.0, 3.0], [np.nan, 2.0, value], [value, 1.0, 1.0]])
        with pytest.raises(DomainError, match=rf"^non-finite value {value!r} for asset 'C' at timestamp 'b'$"):
            TimeSeriesPanel(("A", "B", "C"), ("a", "b", "c"), values)
        values[np.isinf(values)] = np.nan
        assert np.isnan(TimeSeriesPanel(("A", "B", "C"), ("a", "b", "c"), values).values).sum() == 3


class TestWrite:
    def test_to_csv_text_is_pinned(self):
        """Missing cells, signed zeros, subnormals, quoted keys and labels keep their bytes."""
        p = TimeSeriesPanel(
            ("A", "B;C", 'D"E'),
            ("2020-01-01", "2020-01-02;x", '2020-01-03 "y"'),
            np.array([[np.nan, -0.0, 5e-324], [1e300, 0.1, -2.5], [0.0, np.nan, -1e-300]]),
        )
        text = p.to_csv(delimiter=";", missing_marker="N/A")
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "39f1b038685407a15c0906a624e368b9e48f3b09c6275a4201ea2a82a05b0614"
        )


class TestLoad:
    def test_round_trip_with_missing(self, tmp_path):
        p = TimeSeriesPanel(
            ("A", "B"), (10, 20), np.array([[1.5, np.nan], [2.25, 4.0]])
        )
        path = write_panel(p, tmp_path / "p.csv")
        q = load_panel(path)
        assert q == p

    def test_missing_markers(self, tmp_path):
        path = write(tmp_path, "t,A,B\n0,1.0,NA\n1,,2.0\n")
        p = load_panel(path)
        assert np.isnan(p.values[0, 1])
        assert np.isnan(p.values[1, 0])

    def test_custom_marker(self, tmp_path):
        path = write(tmp_path, "t,A,B\n0,1.0,?\n")
        p = load_panel(path, missing_markers=("?",))
        assert np.isnan(p.values[0, 1])

    def test_float_parsable_markers(self, tmp_path):
        path = write(tmp_path, "t,A,B\n0,-999,nan\n1, -999 ,2\n2,3,4\n")
        p = load_panel(path, missing_markers=("-999", "nan"))
        assert np.array_equal(
            p.values, [[np.nan, np.nan], [np.nan, 2.0], [3.0, 4.0]], equal_nan=True
        )
        assert load_panel(path, missing_markers=("nan",)).values[1, 0] == -999.0
        with pytest.raises(PanelParseError, match="line 2: non-finite value 'nan' for asset 'B'"):
            load_panel(path, missing_markers=("-999",))

    def test_row_whose_sum_overflows(self, tmp_path):
        path = write(tmp_path, "t,A,B,C\n0,1e308,1e308,-1e308\n1,1_0,\u2003 2\xa0,\x1c3\n")
        p = load_panel(path)
        assert p.values.tolist() == [[1e308, 1e308, -1e308], [10.0, 2.0, 3.0]]

    def test_bom_tolerated(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbft,A,B\n0,1,2\n")
        assert load_panel(path).assets == ("A", "B")

    def test_rows_sorted_by_timestamp(self, tmp_path):
        path = write(tmp_path, "t,A,B\n2,5,6\n1,3,4\n")
        p = load_panel(path)
        assert p.timestamps == (1, 2)
        assert p.values[0, 0] == 3.0

    def test_reordered_panel_passes_public_constructor(self, tmp_path):
        revalidate(load_panel(write(tmp_path, "t,A,B\n2,5,NA\n1,3,4\n")))

    def test_string_timestamps_kept(self, tmp_path):
        path = write(tmp_path, "t,A,B\n2020-01,1,2\n2020-02,3,4\n")
        assert load_panel(path).timestamps == ("2020-01", "2020-02")

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "t,A,B\n0,1.0\n")
        with pytest.raises(PanelParseError, match=r"line 2: expected 3 fields, got 2"):
            load_panel(path)

    def test_bad_cell_names_line_and_asset(self, tmp_path):
        path = write(tmp_path, "t,A,B\n0,1.0,oops\n")
        with pytest.raises(PanelParseError, match=r"line 2.*'B'"):
            load_panel(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", " -Infinity", "1e400"])
    def test_non_finite_cell_names_line_and_asset(self, tmp_path, cell):
        # line numbers count file rows, before rows are sorted by timestamp
        path = write(tmp_path, f"t,A,B\n5,1.0,2.0\n1,NA,{cell}\n")
        with pytest.raises(PanelParseError, match=rf"line 3: non-finite value '{cell}' for asset 'B'"):
            load_panel(path)

    @pytest.mark.parametrize(
        ("row", "message"),
        [
            ("1,2.0", "expected 3 fields, got 2"),
            ("1,2.0,oops", "cannot parse 'oops' for asset 'B'"),
            ("1,2.0,inf", "non-finite value 'inf' for asset 'B'"),
        ],
    )
    def test_line_numbers_count_blank_lines(self, tmp_path, row, message):
        path = write(tmp_path, f"t,A,B\n\n0,1.0,2.0\n{row}\n")
        with pytest.raises(PanelParseError, match=rf"line 4: {message}$"):
            load_panel(path)

    def test_nan_marker_still_means_missing(self, tmp_path):
        path = write(tmp_path, "t,A,B\n0,,2.0\n1,NA,nan\n")
        with pytest.raises(PanelParseError, match=r"line 3: non-finite value 'nan' for asset 'B'"):
            load_panel(path)
        p = load_panel(path, missing_markers=("NA", "nan"))
        assert np.isnan(p.values).sum() == 3

    def test_undecodable_bytes_name_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("t,A,B\n0,1,2\n1,3,4\n2,5,6 \u00e9\n".encode("latin-1"))
        with pytest.raises(PanelParseError, match=r"line 4: byte 0xe9 is not valid UTF-8"):
            load_panel(path)

    def test_duplicate_header_label(self, tmp_path):
        path = write(tmp_path, "t,A,A\n0,1,2\n")
        with pytest.raises(SchemaError, match="duplicate"):
            load_panel(path)

    def test_duplicate_timestamp(self, tmp_path):
        path = write(tmp_path, "t,A,B\n0,1,2\n0,3,4\n")
        with pytest.raises(SchemaError, match="duplicate timestamp"):
            load_panel(path)

    def test_no_data_rows(self, tmp_path):
        path = write(tmp_path, "t,A,B\n")
        with pytest.raises(SchemaError, match="no data rows"):
            load_panel(path)

    def test_custom_delimiter(self, tmp_path):
        path = write(tmp_path, "t;A;B\n0;1.5;2\n", name="semi.csv")
        p = load_panel(path, delimiter=";")
        assert p.assets == ("A", "B")
        assert p.values[0, 0] == 1.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_panel(tmp_path / "nope.csv")

    @pytest.mark.parametrize(
        "later",
        [b"3,5", b"3,5,\xe9", b"3,5,\x006", b"3," + b"1" * 131_100 + b",6"],
        ids=["short-row", "bad-byte", "nul-byte", "oversized-field"],
    )
    def test_first_fault_in_file_order_is_reported(self, tmp_path, later):
        path = tmp_path / "two-faults.csv"
        path.write_bytes(b"t,A,B\n0,1,2\n1,inf,2\n2,3,4\n" + later + b"\n")
        with pytest.raises(PanelParseError, match=r"line 3: non-finite value 'inf' for asset 'A'$"):
            load_panel(path)


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
cell = st.one_of(finite, st.just(float("nan")))


@given(
    data=st.lists(st.tuples(cell, cell, cell), min_size=1, max_size=12),
)
def test_csv_round_trip_is_lossless(data, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("roundtrip")
    p = TimeSeriesPanel(
        ("A", "B", "C"), tuple(range(len(data))), np.array(data, dtype=float)
    )
    q = load_panel(write_panel(p, tmp / "p.csv"))
    assert q == p
    assert q.timestamps == p.timestamps


# csv's default field size limit is 131072 characters
fuzz_cell = st.one_of(
    st.text(max_size=6),
    st.floats().map(repr),
    st.sampled_from(["", "NA", "nan", "inf", "1e999", '"', "\x00", "\r"]),
    st.integers(131_000, 131_100).map(lambda k: "1" * k),
)
fuzz_text = st.lists(
    st.lists(fuzz_cell, min_size=1, max_size=4), max_size=5
).map(lambda rows: "\n".join(",".join(row) for row in rows).encode("utf-8"))


@settings(max_examples=200)
@given(body=st.one_of(fuzz_text, st.binary(max_size=64), st.text().map(str.encode)))
def test_random_file_loads_or_raises_package_error(body, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "panel.csv"
    path.write_bytes(body)
    with contextlib.suppress(CorrTreeError):
        load_panel(path)


def load_outcome(loader, path):
    """The panel ``loader`` reads from ``path``, or the class and message it raises."""
    try:
        return loader(path)
    except CorrTreeError as exc:
        return type(exc), str(exc)


clean_cell = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    # padding that float() strips too, and padding only str.strip() removes
    st.sampled_from(["", "NA", " NA ", " 1.5 ", "\u2003 2.5\xa0", "\x1c3\x1f", "1_0", " -999 "]),
    st.just("1e308"),  # two in a row overflow the row's sum
)
MARKER_SETS = [("", "NA"), ("", "NA", "-999"), ("", "NA", "nan"), ("NA", " -999 ", "nan")]
FAULTS = {
    "short-row": lambda row: row[:-1],
    "long-row": lambda row: [*row, "1"],
    "unparseable": lambda row: [*row[:-1], "oops"],
    "nan": lambda row: [*row[:-1], "nan"],
    "inf": lambda row: [*row[:-1], " -inf"],
    "overflow": lambda row: [*row[:-1], "1e999"],
    "bad-byte": lambda row: [*row[:-1], "\udce9"],
    "oversized": lambda row: [*row[:-1], "1" * 131_100],
}


@st.composite
def one_fault_csv(draw):
    """Missing markers and a well-formed panel file that uses them, with at
    most one fault injected into one row."""
    markers = draw(st.sampled_from(MARKER_SETS))
    cell = st.one_of(clean_cell, st.sampled_from(markers))
    n = draw(st.integers(2, 4))
    keys = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=6, unique=True))
    rows = [["t", *(f"A{i}" for i in range(n))]]
    rows += [[str(k), *draw(st.lists(cell, min_size=n, max_size=n))] for k in keys]
    fault = draw(st.sampled_from([None, *FAULTS]))
    if fault is not None:
        k = draw(st.integers(1, len(keys)))
        rows[k] = FAULTS[fault](rows[k])
    newline = draw(st.sampled_from(["\n", "\n\n", "\r\n", "\r"]))  # "\n\n": a blank line after each row
    body = newline.join(",".join(row) for row in rows).encode("utf-8", "surrogateescape")
    return body, markers


@settings(max_examples=300)
@given(case=one_fault_csv())
def test_streaming_loader_matches_two_pass_oracle(case, tmp_path_factory):
    body, markers = case
    path = tmp_path_factory.mktemp("oracle") / "panel.csv"
    path.write_bytes(body)
    got = load_outcome(partial(load_panel, missing_markers=markers), path)
    expected = load_outcome(partial(load_panel_two_pass, missing_markers=markers), path)
    assert got == expected
    if isinstance(expected, TimeSeriesPanel):
        assert got.timestamps == expected.timestamps


@settings(max_examples=100)
@given(body=fuzz_text)
def test_streaming_loader_loads_what_the_oracle_loads(body, tmp_path_factory):
    path = tmp_path_factory.mktemp("oracle") / "panel.csv"
    path.write_bytes(body)
    expected = load_outcome(load_panel_two_pass, path)
    if isinstance(expected, TimeSeriesPanel):
        assert load_panel(path) == expected
