"""Panel loading and alignment.

Input convention
----------------
A panel is a delimited UTF-8 text file. The first row is a header naming
the assets; every following row is one observation. By default the first
column holds the timestamp and the remaining columns hold one value per
asset. Timestamps are opaque sortable keys: a column whose cells are all
integer literals is compared numerically, anything else is compared as
strings (ISO-8601 dates order correctly this way). Files without a
timestamp column are loaded with ``has_timestamps=False`` and rows are
indexed 0..T-1.

Missing values are recorded as NaN internally and never silently filled.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import AlignmentError, PanelParseError, SchemaError, UnknownAssetError

Timestamp = int | str


@dataclass(frozen=True, eq=False)
class TimeSeriesPanel:
    """Aligned matrix of raw signals: one column per asset, one row per timestamp.

    ``values`` has shape ``(len(timestamps), len(assets))``; missing cells
    are NaN. Instances are immutable; the value matrix is copied on
    construction and marked read-only.
    """

    assets: tuple[str, ...]
    timestamps: tuple[Timestamp, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        assets = tuple(self.assets)
        timestamps = tuple(self.timestamps)
        values = np.array(self.values, dtype=float)
        object.__setattr__(self, "assets", assets)
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "values", values)

        if len(assets) < 2:
            raise SchemaError(f"a panel needs at least 2 assets, got {len(assets)}")
        if any(not isinstance(a, str) or not a for a in assets):
            raise SchemaError("asset labels must be non-empty strings")
        if len(set(assets)) != len(assets):
            dup = sorted({a for a in assets if assets.count(a) > 1})
            raise SchemaError(f"duplicate asset label(s): {dup}")
        if not timestamps:
            raise SchemaError("a panel needs at least one observation row")
        _validate_keys(timestamps)
        if values.ndim != 2 or values.shape != (len(timestamps), len(assets)):
            raise SchemaError(
                f"value matrix shape {values.shape} does not match "
                f"({len(timestamps)} timestamps, {len(assets)} assets)"
            )
        values.setflags(write=False)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def n_obs(self) -> int:
        return len(self.timestamps)

    def asset_index(self, label: str) -> int:
        try:
            return self.assets.index(label)
        except ValueError:
            raise UnknownAssetError(f"unknown asset {label!r}") from None

    def column(self, label: str) -> np.ndarray:
        return self.values[:, self.asset_index(label)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeriesPanel):
            return NotImplemented
        return (
            self.assets == other.assets
            and self.timestamps == other.timestamps
            and np.array_equal(self.values, other.values, equal_nan=True)
        )

    def to_csv(
        self,
        *,
        delimiter: str = ",",
        missing_marker: str = "NA",
        index_label: str = "t",
    ) -> str:
        """Serialize back to the delimited input format (floats at full precision)."""
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
        writer.writerow([index_label, *self.assets])
        for k, ts in enumerate(self.timestamps):
            row: list[str] = [str(ts)]
            for v in self.values[k]:
                row.append(missing_marker if np.isnan(v) else repr(float(v)))
            writer.writerow(row)
        return buf.getvalue()


def _validate_keys(timestamps: Sequence[Timestamp]) -> None:
    all_int = all(isinstance(t, int) and not isinstance(t, bool) for t in timestamps)
    all_str = all(isinstance(t, str) for t in timestamps)
    if not (all_int or all_str):
        raise SchemaError("timestamps must be all integers or all strings")
    for prev, cur in zip(timestamps, timestamps[1:]):
        if not prev < cur:  # type: ignore[operator]
            raise SchemaError(f"timestamps not strictly increasing at {cur!r}")


def load_panel(
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
        Malformed row width or an unparseable value cell; the message
        names the offending line.
    SchemaError
        Duplicate asset labels, fewer than two assets, duplicate
        timestamps, or no data rows.
    """
    path = Path(path)
    markers = {m.strip() for m in missing_markers} | {""}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            # each row with the file line it ends on; blank lines still count
            rows = [(reader.line_num, r) for r in reader if r]
    except UnicodeDecodeError:
        raise _decode_error(path) from None
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


def _decode_error(path: Path) -> PanelParseError:
    """Name the first line of ``path`` that is not valid UTF-8."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        return PanelParseError(
            f"{path}: line {lineno}: byte 0x{data[exc.start]:02x} is not valid UTF-8"
        )
    return PanelParseError(f"{path}: not valid UTF-8")  # changed since it was read


def _coerce_keys(raw: Sequence[str]) -> list[Timestamp]:
    # All-integer columns compare numerically; anything else stays a string.
    try:
        return [int(c) for c in raw]
    except ValueError:
        return list(raw)


def dump_panel(
    panel: TimeSeriesPanel,
    path: str | Path,
    *,
    delimiter: str = ",",
    missing_marker: str = "NA",
    index_label: str = "t",
) -> Path:
    """Write ``panel`` to ``path`` in the format :func:`load_panel` reads."""
    path = Path(path)
    path.write_text(
        panel.to_csv(
            delimiter=delimiter,
            missing_marker=missing_marker,
            index_label=index_label,
        ),
        encoding="utf-8",
    )
    return path


def align_panels(panels: Sequence[TimeSeriesPanel]) -> TimeSeriesPanel:
    """Merge panels with disjoint asset sets onto their common timestamps.

    The result keeps assets in input order (panel by panel) and rows on
    the sorted intersection of all timestamp sets. A single panel passes
    through unchanged.
    """
    if not panels:
        raise AlignmentError("need at least one panel to align")
    if len(panels) == 1:
        return panels[0]

    seen: set[str] = set()
    for p in panels:
        overlap = seen.intersection(p.assets)
        if overlap:
            raise SchemaError(f"asset label(s) present in more than one panel: {sorted(overlap)}")
        seen.update(p.assets)

    common = set(panels[0].timestamps)
    for p in panels[1:]:
        common &= set(p.timestamps)
    if not common:
        raise AlignmentError("panels share no common timestamp")
    keys = sorted(common)

    blocks = []
    for p in panels:
        pos = {t: i for i, t in enumerate(p.timestamps)}
        blocks.append(p.values[[pos[t] for t in keys], :])
    assets = tuple(a for p in panels for a in p.assets)
    return TimeSeriesPanel(assets, tuple(keys), np.hstack(blocks))
