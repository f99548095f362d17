"""Panel loading, validation, serialization and alignment."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrtree import (
    AlignmentError,
    PanelParseError,
    SchemaError,
    TimeSeriesPanel,
    UnknownAssetError,
    align_panels,
    dump_panel,
    load_panel,
)


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


class TestLoad:
    def test_round_trip_with_missing(self, tmp_path):
        p = TimeSeriesPanel(
            ("A", "B"), (10, 20), np.array([[1.5, np.nan], [2.25, 4.0]])
        )
        path = dump_panel(p, tmp_path / "p.csv")
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

    def test_bom_tolerated(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbft,A,B\n0,1,2\n")
        assert load_panel(path).assets == ("A", "B")

    def test_rows_sorted_by_timestamp(self, tmp_path):
        path = write(tmp_path, "t,A,B\n2,5,6\n1,3,4\n")
        p = load_panel(path)
        assert p.timestamps == (1, 2)
        assert p.values[0, 0] == 3.0

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

    def test_no_timestamp_column(self, tmp_path):
        path = write(tmp_path, "A,B\n1,2\n3,4\n")
        p = load_panel(path, has_timestamps=False)
        assert p.timestamps == (0, 1)
        assert p.values[1, 1] == 4.0

    def test_custom_delimiter(self, tmp_path):
        path = write(tmp_path, "t;A;B\n0;1.5;2\n", name="semi.csv")
        p = load_panel(path, delimiter=";")
        assert p.assets == ("A", "B")
        assert p.values[0, 0] == 1.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_panel(tmp_path / "nope.csv")


class TestAlign:
    def test_intersection_of_timestamps(self):
        p1 = TimeSeriesPanel(("A", "B"), (1, 2, 3), [[1, 2], [3, 4], [5, 6]])
        p2 = TimeSeriesPanel(("C", "D"), (2, 3, 4), [[7, 8], [9, 10], [11, 12]])
        merged = align_panels([p1, p2])
        assert merged.assets == ("A", "B", "C", "D")
        assert merged.timestamps == (2, 3)
        assert merged.values.tolist() == [[3, 4, 7, 8], [5, 6, 9, 10]]

    def test_single_panel_passthrough(self):
        p1 = TimeSeriesPanel(("A", "B"), (1,), [[1, 2]])
        assert align_panels([p1]) is p1

    def test_empty_list(self):
        with pytest.raises(AlignmentError):
            align_panels([])

    def test_disjoint_timestamps(self):
        p1 = TimeSeriesPanel(("A", "B"), (1,), [[1, 2]])
        p2 = TimeSeriesPanel(("C", "D"), (2,), [[3, 4]])
        with pytest.raises(AlignmentError):
            align_panels([p1, p2])

    def test_label_collision(self):
        p1 = TimeSeriesPanel(("A", "B"), (1,), [[1, 2]])
        p2 = TimeSeriesPanel(("B", "C"), (1,), [[3, 4]])
        with pytest.raises(SchemaError):
            align_panels([p1, p2])


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
    q = load_panel(dump_panel(p, tmp / "p.csv"))
    assert q == p
    assert q.timestamps == p.timestamps
