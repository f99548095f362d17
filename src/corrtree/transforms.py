"""Signal transforms feeding the correlation stage.

Two signals are supported, each returning a panel of the input's
assets: natural-log returns for price-like series, and per-timestamp
ranks for league-table data (1 = largest, ties get the mean rank). Raw
values need no transform: the panel itself is the signal. No signal
standardises a column: Pearson correlation already ignores each asset's
shift and positive scale. ``rebase`` re-expresses a panel of currency
quotes in a different base currency; the tree built from such a panel
depends on that choice of reference frame.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SchemaError, SizeError, UnknownAssetError
from .panel import TimeSeriesPanel, _adopt


def log_returns(panel: TimeSeriesPanel) -> TimeSeriesPanel:
    """Log-difference each asset column: ``Y[t] = ln P[t+1] - ln P[t]``.

    Every present value must be strictly positive. A missing price at
    ``t`` or ``t+1`` yields a missing return at ``t``; the output has one
    row fewer than the panel, and each return is labelled with the later
    of its two timestamps (``panel.timestamps[1:]``).
    """
    if panel.n_obs < 2:
        raise SizeError("log returns need at least 2 observations")
    values = panel.values
    bad = np.argwhere(values <= 0.0)  # NaN compares false, so a missing price passes
    if bad.size:
        t, i = bad[0]
        raise DomainError(
            f"non-positive value {float(values[t, i])!r} for asset {panel.assets[i]!r} "
            f"at timestamp {panel.timestamps[t]!r}"
        )
    logs = np.log(values)
    return _adopt(TimeSeriesPanel, panel.assets, panel.timestamps[1:], logs[1:] - logs[:-1])


def rank_signal(panel: TimeSeriesPanel) -> TimeSeriesPanel:
    """Rank assets within each timestamp, 1 = largest value, ties share the mean rank.

    Row sums are therefore always n(n+1)/2. Rows with missing values
    cannot be ranked and raise :class:`DomainError`.
    """
    values = panel.values
    missing = np.argwhere(np.isnan(values))
    if missing.size:
        t, i = missing[0]
        raise DomainError(
            f"cannot rank timestamp {panel.timestamps[t]!r}: "
            f"missing value for asset {panel.assets[i]!r}"
        )
    # a tie group on descending positions start..end-1 shares the mean rank (2*start + e + 1) / 2,
    # e = end - start; ordinal ranks that list its members in column order and in reverse column
    # order sum to that numerator. Ascending position p holds rank n - p.
    ranks = np.arange(values.shape[1], 0.0, -1.0)
    out, rev = np.empty_like(values), np.empty_like(values)
    np.put_along_axis(out, np.argsort(values, axis=1, kind="stable"), ranks, axis=1)
    np.put_along_axis(rev[:, ::-1], np.argsort(values[:, ::-1], axis=1, kind="stable"), ranks, axis=1)
    out += rev
    out /= 2.0
    return _adopt(TimeSeriesPanel, panel.assets, panel.timestamps, out)


def rebase(panel: TimeSeriesPanel, base: str, *, numeraire: str) -> TimeSeriesPanel:
    """Re-express quotes in a new base currency.

    ``panel`` holds quotes of each asset in ``numeraire``. Rebasing to
    ``base`` divides every other column by the base column and appends
    the old numeraire as a new asset quoted at ``1 / P_base``; the base
    column itself is dropped. Rebasing to the numeraire is the identity.
    A quote that overflows float64 in the new base raises
    :class:`DomainError` naming its asset and timestamp. The result is
    handed over unchecked, except for ``numeraire``, the one label no
    other check sees.
    """
    if base == numeraire:
        return panel
    if base not in panel.assets:
        raise UnknownAssetError(f"unknown base {base!r}; panel assets: {list(panel.assets)}")
    if numeraire in panel.assets:
        raise SchemaError(
            f"numeraire {numeraire!r} is already an asset label; rebasing would duplicate it"
        )
    b = panel.assets.index(base)
    base_col = panel.values[:, b]
    bad = np.argwhere(~(base_col > 0.0))  # NaN compares false, so it is caught too
    if bad.size:
        t = int(bad[0][0])
        raise DomainError(
            f"base column {base!r} must be present and positive; "
            f"offending value {float(base_col[t])!r} at timestamp {panel.timestamps[t]!r}"
        )
    assets = panel.assets[:b] + panel.assets[b + 1 :] + (numeraire,)
    rebased = np.ones((panel.n_obs, len(assets)))  # C order, as _adopt requires; the numeraire quotes 1
    rebased[:, :b], rebased[:, b:-1] = panel.values[:, :b], panel.values[:, b + 1 :]
    with np.errstate(over="ignore"):
        np.divide(rebased, base_col[:, None], out=rebased)
    overflow = np.argwhere(np.isinf(rebased))
    if overflow.size:
        t, i = overflow[0]
        raise DomainError(
            f"quote of asset {assets[i]!r} in base {base!r} overflows float64 "
            f"at timestamp {panel.timestamps[t]!r}"
        )
    if not isinstance(numeraire, str) or not numeraire:
        raise SchemaError("asset labels must be non-empty strings")
    return _adopt(TimeSeriesPanel, assets, panel.timestamps, rebased)
