"""Pearson correlation matrices and the three-level pair census.

The correlation between two assets is the classical product-moment
coefficient with temporal averages taken over the observations the pair
has in common (population divisor; the divisor cancels in the ratio).
Entries are clamped to [-1, 1] so downstream distances stay real.

The census buckets each unordered pair once:

* strong:   rho in [1/2, 1]
* weak:     rho in [0, 1/2)
* negative: rho in [-1, 0)

The bins are half-open downward so the three counts always sum to
n(n-1)/2 exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAssetError, InsufficientDataError, SchemaError
from .panel import TimeSeriesPanel, _adopt, _check_unique

STRONG_THRESHOLD = 0.5
_BLOCK = 64  # rows per block of the n x n finish: no whole-matrix temporary


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Symmetric correlation matrix with unit diagonal, entries in [-1, 1], distinct labels."""

    assets: tuple[str, ...]
    rho: np.ndarray

    def __post_init__(self) -> None:
        assets = tuple(self.assets)
        rho = np.array(self.rho, dtype=float)
        object.__setattr__(self, "assets", assets)
        object.__setattr__(self, "rho", rho)
        n = len(assets)
        if n < 2:
            raise SchemaError("correlation matrix needs at least 2 assets")
        if rho.shape != (n, n):
            raise SchemaError(f"matrix shape {rho.shape} does not match {n} assets")
        if not np.isfinite(rho).all():
            raise SchemaError("correlation entries must be finite")
        if not np.array_equal(rho, rho.T):
            raise SchemaError("correlation matrix must be symmetric")
        if not np.all(np.diag(rho) == 1.0):
            raise SchemaError("correlation diagonal must be exactly 1")
        if np.abs(rho).max() > 1.0:
            raise SchemaError("correlation entries must lie in [-1, 1]")
        _check_unique(assets)
        rho.setflags(write=False)

    @property
    def n_assets(self) -> int:
        return len(self.assets)


def pearson_matrix(returns: TimeSeriesPanel, min_overlap: int = 3) -> CorrelationMatrix:
    """Correlation of every asset pair over its jointly-present observations.

    Parameters
    ----------
    returns : TimeSeriesPanel
        Signal values, possibly with missing cells (NaN).
    min_overlap : int
        Minimum number of jointly-present observations a pair must have;
        pairs below it raise :class:`InsufficientDataError`. Must be >= 2.

    Raises
    ------
    DegenerateAssetError
        Some asset is constant on an overlap it participates in.
    InsufficientDataError
        Some pair has fewer than ``min_overlap`` joint observations.
    """
    if not min_overlap >= 2:  # NaN included
        raise ValueError(f"min_overlap must be >= 2, got {min_overlap}")
    obs = returns.values
    if np.isnan(obs).any():
        rho = _pairwise_complete(returns, min_overlap)
    else:
        if obs.shape[0] < min_overlap:
            raise InsufficientDataError(
                f"{obs.shape[0]} observations < min_overlap {min_overlap}"
            )
        rho = _full_sample(returns)
    np.clip(rho, -1.0, 1.0, out=rho)
    np.fill_diagonal(rho, 1.0)
    return _adopt(CorrelationMatrix, returns.assets, rho)


def _unit_scaled(x: np.ndarray) -> np.ndarray:
    """``x`` with each column scaled by the power of two that puts its largest |x| in [1/2, 1).

    The scaling is exact and commutes with every later operation, so
    correlations keep their bytes at any finite scale. Centred values then
    lie below 2 in magnitude, so no square or variance product overflows,
    and a column that is not constant keeps a centred value of at least
    about 2^-56, so ``var_i * var_j`` stays far above float64's smallest
    normal, 2^-1022.
    """
    _, exponent = np.frexp(np.fmax.reduce(np.abs(x), axis=0))
    return np.ldexp(x, -exponent)


def _full_sample(returns: TimeSeriesPanel) -> np.ndarray:
    centered = _unit_scaled(returns.values)  # a new array, so it is centred in place
    centered -= centered.mean(axis=0)
    centered -= centered.mean(axis=0)
    gram = centered.T @ centered  # BLAS syrk: one triangle, mirrored, so bit-symmetric
    gram /= centered.shape[0]
    del centered
    var = np.diag(gram).copy()
    for i, v in enumerate(var):
        if v == 0.0:
            raise DegenerateAssetError(f"asset {returns.assets[i]!r} has zero variance")
    for s in range(0, len(var), _BLOCK):
        b = slice(s, s + _BLOCK)
        gram[b] /= np.sqrt(var[b, None] * var)
    return gram


def _pairwise_complete(returns: TimeSeriesPanel, min_overlap: int) -> np.ndarray:
    """Correlation over each pair's joint rows, as one masked Gram computation.

    Each column is scaled by :func:`_unit_scaled`, then centred twice on
    its present cells, with 0 in the missing ones; this pre-centring
    (Chan, Golub & LeVeque 1983) keeps the Gram differences below
    accurate. For every pair (i, j), the
    count, sum and sum of squares of x_i over the joint rows are the
    column totals less the rows where j is missing, so their cost follows
    the missing cells. The cross products are one ``einsum``, run on one
    thread without BLAS: on C-ordered input it sums them row by row in
    time order, so the bytes do not depend on the BLAS thread count and
    (i, j) and (j, i) get the same sum, bit for bit.

    Pairs short of ``min_overlap``, and pairs whose Gram variance is not
    clearly positive (an overlap mean about one overlap-sigma or more from
    the column mean, where the difference loses digits), take the
    per-pair arithmetic of :func:`_pair_rho` in (i, j) scan order. It
    raises the same error for the same first pair as a loop over every
    pair would, or gives that pair's value.
    """
    obs = returns.values
    n = returns.n_assets
    absent = np.isnan(obs)
    count = len(obs) - absent.sum(axis=0)
    x = _unit_scaled(obs)  # a new array, so it is centred in place
    x[absent] = 0.0
    for _ in range(2):
        x -= x.sum(axis=0) / np.maximum(count, 1)
        x[absent] = 0.0

    # joint[i, j], s[i, j], q[i, j]: count, sum and sum of squares of x_i
    # over the rows where both i and j are present
    q = np.repeat((x * x).sum(axis=0)[:, None], n, axis=1)
    joint = np.repeat(count[:, None], n, axis=1)
    s = np.repeat(x.sum(axis=0)[:, None], n, axis=1)
    for j in np.flatnonzero(absent.any(axis=0)):
        gone = np.flatnonzero(absent[:, j])
        rows = x[gone]
        joint[:, j] -= len(gone) - absent[gone].sum(axis=0)
        s[:, j] -= rows.sum(axis=0)
        q[:, j] -= (rows * rows).sum(axis=0)

    rho = np.einsum("ti,tj->ij", x, x)  # x is C-ordered, as every panel's values are: row-by-row sums
    with np.errstate(all="ignore"):
        s /= joint  # each moment is written over the sum it comes from: s is now the mean
        q /= joint
        rho /= joint
        rho -= s * s.T
        np.subtract(q, s * s, out=s)  # the variance
        unclear = ~(s > 0.5 * q)
        rho /= np.sqrt(np.multiply(s, s.T, out=q), out=q)
    exact = (joint < min_overlap) | unclear | unclear.T
    for i, j in zip(*np.nonzero(np.triu(exact, 1))):
        rho[i, j] = rho[j, i] = _pair_rho(returns, absent, i, j, min_overlap)
    return rho


def _pair_rho(
    returns: TimeSeriesPanel, absent: np.ndarray, i: int, j: int, min_overlap: int
) -> float:
    """One pair's correlation from its joint rows, double-centred."""
    obs = returns.values
    joint = ~(absent[:, i] | absent[:, j])
    count = int(joint.sum())
    pair = f"({returns.assets[i]!r}, {returns.assets[j]!r})"
    if count < min_overlap:
        raise InsufficientDataError(
            f"pair {pair} has {count} joint observations; need {min_overlap}"
        )
    with np.errstate(all="ignore"):
        xi = _unit_scaled(obs[joint, i])
        xj = _unit_scaled(obs[joint, j])
        xi = xi - xi.mean()
        xi -= xi.mean()
        xj = xj - xj.mean()
        xj -= xj.mean()
        vi = np.mean(xi**2)
        vj = np.mean(xj**2)
        if vi == 0.0 or vj == 0.0:
            asset = returns.assets[i] if vi == 0.0 else returns.assets[j]
            raise DegenerateAssetError(
                f"asset {asset!r} has zero variance on the overlap of pair {pair}"
            )
        return np.mean(xi * xj) / np.sqrt(vi * vj)


@dataclass(frozen=True)
class CorrelationCensus:
    """Counts of strongly / weakly / negatively correlated pairs."""

    n_assets: int
    strong: int
    weak: int
    negative: int

    def __post_init__(self) -> None:
        expected = self.n_assets * (self.n_assets - 1) // 2
        total = self.strong + self.weak + self.negative
        if total != expected:
            raise SchemaError(
                f"census counts sum to {total}, expected n(n-1)/2 = {expected}"
            )

    @property
    def total_pairs(self) -> int:
        return self.strong + self.weak + self.negative

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n_assets, "strong": self.strong, "weak": self.weak, "negative": self.negative}
        )


def census(corr: CorrelationMatrix) -> CorrelationCensus:
    """Bucket every off-diagonal pair into strong / weak / negative.

    The matrix is exactly symmetric with a unit diagonal, so each pair is
    counted twice over the whole matrix and the diagonal n times as strong.
    """
    n = corr.n_assets
    strong = (int(np.count_nonzero(corr.rho >= STRONG_THRESHOLD)) - n) // 2
    negative = int(np.count_nonzero(corr.rho < 0.0)) // 2
    weak = n * (n - 1) // 2 - strong - negative
    return CorrelationCensus(n, strong, weak, negative)
