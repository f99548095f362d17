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
from .transforms import ReturnsMatrix

STRONG_THRESHOLD = 0.5


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Symmetric correlation matrix with unit diagonal, entries in [-1, 1]."""

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
        rho.setflags(write=False)

    @property
    def n_assets(self) -> int:
        return len(self.assets)


def pearson_matrix(returns: ReturnsMatrix, min_overlap: int = 3) -> CorrelationMatrix:
    """Correlation of every asset pair over its jointly-present observations.

    Parameters
    ----------
    returns : ReturnsMatrix
        Observations, possibly with missing cells (NaN).
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
    if min_overlap < 2:
        raise ValueError(f"min_overlap must be >= 2, got {min_overlap}")
    obs = returns.observations
    n = returns.n_assets
    if np.isnan(obs).any():
        rho = _pairwise_complete(returns, min_overlap)
    else:
        if obs.shape[0] < min_overlap:
            raise InsufficientDataError(
                f"{obs.shape[0]} observations < min_overlap {min_overlap}"
            )
        rho = _full_sample(returns)
    rho = np.clip((rho + rho.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(rho, 1.0)
    return CorrelationMatrix(returns.assets, rho)


def _full_sample(returns: ReturnsMatrix) -> np.ndarray:
    obs = returns.observations
    t = obs.shape[0]
    centered = obs - obs.mean(axis=0)
    centered = centered - centered.mean(axis=0)
    gram = (centered.T @ centered) / t
    var = np.diag(gram).copy()
    for i, v in enumerate(var):
        if v == 0.0:
            raise DegenerateAssetError(f"asset {returns.assets[i]!r} has zero variance")
    return gram / np.sqrt(np.outer(var, var))


def _pairwise_complete(returns: ReturnsMatrix, min_overlap: int) -> np.ndarray:
    """Correlation over each pair's joint rows, as one masked Gram computation.

    Each column is centred twice on its present cells, with 0 in the
    missing ones; this pre-centring (Chan, Golub & LeVeque 1983) keeps
    the Gram differences below accurate. For every pair (i, j), the
    count, sum and sum of squares of x_i over the joint rows are the
    column totals less the rows where j is missing, so their cost follows
    the missing cells. The cross products are summed row by row in time
    order with elementwise numpy, never BLAS, so the bytes do not depend
    on the BLAS thread count.

    Pairs short of ``min_overlap``, and pairs whose Gram variance is not
    clearly positive (an overlap mean about one overlap-sigma or more from
    the column mean, where the difference loses digits), take the
    per-pair arithmetic of :func:`_pair_rho` in (i, j) scan order. It
    raises the same error for the same first pair as a loop over every
    pair would, or gives that pair's value.
    """
    obs = returns.observations
    n = returns.n_assets
    absent = np.isnan(obs)
    present = ~absent
    count = present.sum(axis=0)
    x = np.where(present, obs, 0.0)
    for _ in range(2):
        x -= x.sum(axis=0) / np.maximum(count, 1)
        x[absent] = 0.0

    # joint[i, j], s[i, j], q[i, j]: count, sum and sum of squares of x_i
    # over the rows where both i and j are present
    joint = np.repeat(count[:, None], n, axis=1)
    s = np.repeat(x.sum(axis=0)[:, None], n, axis=1)
    q = np.repeat((x * x).sum(axis=0)[:, None], n, axis=1)
    for j in np.flatnonzero(absent.any(axis=0)):
        gone = np.flatnonzero(absent[:, j])
        rows = x[gone]
        joint[:, j] -= present[gone].sum(axis=0)
        s[:, j] -= rows.sum(axis=0)
        q[:, j] -= (rows * rows).sum(axis=0)

    p = np.zeros((n, n))
    outer = np.empty((n, n))
    for row in x:
        np.multiply(row[:, None], row, out=outer)
        p += outer

    with np.errstate(all="ignore"):
        mean = s / joint
        var = q / joint - mean * mean
        rho = (p / joint - mean * mean.T) / np.sqrt(var * var.T)
        unclear = ~(var > 0.5 * q / joint)
    exact = (joint < min_overlap) | unclear | unclear.T
    for i, j in zip(*np.nonzero(np.triu(exact, 1))):
        rho[i, j] = rho[j, i] = _pair_rho(returns, present, i, j, min_overlap)
    return rho


def _pair_rho(
    returns: ReturnsMatrix, present: np.ndarray, i: int, j: int, min_overlap: int
) -> float:
    """One pair's correlation from its joint rows, double-centred."""
    obs = returns.observations
    joint = present[:, i] & present[:, j]
    count = int(joint.sum())
    pair = f"({returns.assets[i]!r}, {returns.assets[j]!r})"
    if count < min_overlap:
        raise InsufficientDataError(
            f"pair {pair} has {count} joint observations; need {min_overlap}"
        )
    with np.errstate(all="ignore"):
        xi = obs[joint, i]
        xj = obs[joint, j]
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
    """Bucket every off-diagonal pair into strong / weak / negative."""
    iu, ju = np.triu_indices(corr.n_assets, k=1)
    vals = corr.rho[iu, ju]
    strong = int((vals >= STRONG_THRESHOLD).sum())
    negative = int((vals < 0.0).sum())
    weak = int(vals.size - strong - negative)
    return CorrelationCensus(corr.n_assets, strong, weak, negative)
