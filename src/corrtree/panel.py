"""Panel loading and writing.

Input convention
----------------
A panel is a delimited UTF-8 text file. The first row is a header naming
the assets; every following row is one observation. The first column
holds the timestamp and the remaining columns hold one value per asset.
Timestamps are opaque sortable keys: a column whose cells are all
integer literals is compared numerically, anything else is compared as
strings (ISO-8601 dates order correctly this way).

Missing values are recorded as NaN internally and never silently filled;
every other cell must parse to a finite float. ``load_panel`` checks each
row as it reads it, so a file with several faults reports the first one
in file order, naming its line.
"""

from __future__ import annotations

import csv
import io
import math
import re
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import DomainError, PanelParseError, SchemaError, SizeError, UnknownAssetError

Timestamp = int | str
_T = TypeVar("_T")

# what errors="surrogateescape" makes of a byte that is not valid UTF-8
_UNDECODABLE = re.compile("[\udc80-\udcff]")


@dataclass(frozen=True, eq=False)
class TimeSeriesPanel:
    """Aligned matrix of raw signals: one column per asset, one row per timestamp.

    ``values`` has shape ``(len(timestamps), len(assets))``; missing cells
    are NaN, and an infinite cell is a :class:`DomainError` naming its
    asset and timestamp. Instances are immutable; the public constructor
    copies the value matrix and marks it read-only.
    """

    assets: tuple[str, ...]
    timestamps: tuple[Timestamp, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        assets = tuple(self.assets)
        timestamps = tuple(self.timestamps)
        values = np.array(self.values, dtype=float, order="C")
        object.__setattr__(self, "assets", assets)
        object.__setattr__(self, "timestamps", timestamps)
        object.__setattr__(self, "values", values)

        if len(assets) < 2:
            raise SchemaError(f"a panel needs at least 2 assets, got {len(assets)}")
        if any(not isinstance(a, str) or not a for a in assets):
            raise SchemaError("asset labels must be non-empty strings")
        _check_unique(assets)
        if not timestamps:
            raise SchemaError("a panel needs at least one observation row")
        _validate_keys(timestamps)
        if values.ndim != 2 or values.shape != (len(timestamps), len(assets)):
            raise SchemaError(
                f"value matrix shape {values.shape} does not match "
                f"({len(timestamps)} timestamps, {len(assets)} assets)"
            )
        infinite = np.argwhere(np.isinf(values))
        if infinite.size:
            t, i = infinite[0]
            raise DomainError(
                f"non-finite value {float(values[t, i])!r} for asset {assets[i]!r} "
                f"at timestamp {timestamps[t]!r}"
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
    ) -> str:
        """Serialize back to the delimited input format (floats at full precision)."""
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
        writer.writerow(["t", *self.assets])
        for ts, row in zip(self.timestamps, self.values):
            writer.writerow([str(ts), *(missing_marker if v != v else repr(v) for v in row.tolist())])
        return buf.getvalue()


def _adopt(cls: type[_T], *fields: object) -> _T:
    """``cls(*fields)`` without its checks or copies, for outputs that pass every check.

    A panel's values must be C-ordered, as the public constructor stores them:
    the correlation stage's BLAS Gram rounds other layouts differently in the last digits.
    """
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, fields, strict=True):
        if isinstance(value, np.ndarray):  # read-only, as the public constructor leaves it
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def _check_unique(assets: Sequence[str], prefix: str = "") -> None:
    if len(set(assets)) != len(assets):
        dup = sorted({a for a in assets if assets.count(a) > 1})
        raise SchemaError(f"{prefix}duplicate asset label(s): {dup}")


def _whole(name: str, value: float, least: float = -np.inf, error: type[Exception] = SizeError) -> int:
    """``value`` as an ``int``; an ``error`` names it unless it is a whole number >= ``least``."""
    if not (least <= value and abs(value) < np.inf and int(value) == value):  # NaN fails every bound
        bound = f" >= {least}" if least > -np.inf else ""
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


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

    Raises
    ------
    PanelParseError
        Malformed row width, a row the CSV reader rejects (such as a
        cell past its field size limit), an unparseable or non-finite
        value cell, or undecodable bytes; the message names the first
        offending line in the file.
    SchemaError
        Duplicate asset labels, fewer than two assets, duplicate
        timestamps, or no data rows.
    """
    path = Path(path)
    markers = {m.strip() for m in missing_markers} | {""}
    whole_rows = not any(map(_parses_as_float, markers))
    raw_keys: list[str] = []
    cells = array("d")  # row-major values, NaN in marker cells
    append, isfinite = cells.append, math.isfinite  # local names for the per-cell loop
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(_decoded_lines(fh, path), delimiter=delimiter)
        try:
            header = next((r for r in reader if r), None)
            if header is None:
                raise PanelParseError(f"{path}: empty file")
            labels = [c.strip() for c in header[1:]]
            if any(not lab for lab in labels):
                raise SchemaError(f"{path}: empty asset label in header")
            _check_unique(labels, f"{path}: ")
            if len(labels) < 2:
                raise SchemaError(f"{path}: need at least 2 asset columns, got {len(labels)}")
            for row in reader:
                if not row:
                    continue
                where = f"{path}: line {reader.line_num}"  # blank lines still count
                if len(row) != len(header):
                    raise PanelParseError(f"{where}: expected {len(header)} fields, got {len(row)}")
                raw_keys.append(row[0].strip())
                if whole_rows:
                    # No marker parses as a float, and float() strips no more
                    # than str.strip(): a row it parses whole, to a finite sum,
                    # reads as the cell loop would read it.
                    try:
                        parsed = list(map(float, row[1:]))
                    except ValueError:
                        pass
                    else:
                        if isfinite(sum(parsed)):
                            cells.fromlist(parsed)
                            continue
                for lab, cell in zip(labels, row[1:]):  # markers, faults, overflowing sums
                    text = cell.strip()
                    if text in markers:
                        append(math.nan)
                        continue
                    try:
                        value = float(text)
                    except ValueError:
                        raise PanelParseError(f"{where}: cannot parse {cell!r} for asset {lab!r}") from None
                    if not isfinite(value):  # only marker cells are missing
                        raise PanelParseError(f"{where}: non-finite value {cell!r} for asset {lab!r}")
                    append(value)
        except csv.Error as exc:
            raise PanelParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not raw_keys:
        raise SchemaError(f"{path}: no data rows")

    keys = _coerce_keys(raw_keys)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    keys = [keys[i] for i in order]
    for prev, cur in zip(keys, keys[1:]):
        if prev == cur:
            raise SchemaError(f"{path}: duplicate timestamp {cur!r}")
    values = np.frombuffer(cells).reshape(-1, len(labels))
    if order != list(range(len(order))):  # rows arrived out of key order
        values = values[order]
    return _adopt(TimeSeriesPanel, tuple(labels), tuple(keys), values)


def _parses_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _decoded_lines(fh: Iterable[str], path: Path) -> Iterator[str]:
    """Pass the lines of ``fh`` on, raising at the first with undecodable bytes.

    Lines are numbered as the CSV reader numbers them: LF, CR LF and a
    lone CR each end one.
    """
    for lineno, line in enumerate(fh, 1):
        if not line.isascii() and (bad := _UNDECODABLE.search(line)):
            byte = ord(bad.group()) - 0xDC00
            raise PanelParseError(f"{path}: line {lineno}: byte 0x{byte:02x} is not valid UTF-8")
        yield line


def _coerce_keys(raw: Sequence[str]) -> list[Timestamp]:
    # All-integer columns compare numerically; anything else stays a string.
    try:
        return [int(c) for c in raw]
    except ValueError:
        return list(raw)
