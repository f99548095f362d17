"""Correlation-to-distance map.

``d = sqrt(2 (1 - rho))`` sends perfect correlation to 0, independence
to sqrt(2) and perfect anticorrelation to 2, and decreases monotonically
in rho. On a complete panel d is the Euclidean distance between the
columns centred and scaled to unit length, so it satisfies the three
metric axioms (the tests check them with a full triangle scan; two equal
columns are at distance 0). On a panel with missing cells each pair is
correlated over its own rows, and the triangle inequality can fail; the
spanning tree and the subdominant ultrametric are defined for any
dissimilarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationMatrix
from .errors import DomainError, SchemaError
from .panel import _adopt, _check_unique


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric, finite, non-negative matrix with zero diagonal over distinct asset labels."""

    assets: tuple[str, ...]
    d: np.ndarray

    def __post_init__(self) -> None:
        assets = tuple(self.assets)
        d = np.array(self.d, dtype=float)
        object.__setattr__(self, "assets", assets)
        object.__setattr__(self, "d", d)
        n = len(assets)
        if n < 1:
            raise SchemaError("distance matrix needs at least 1 asset")
        if d.shape != (n, n):
            raise SchemaError(f"matrix shape {d.shape} does not match {n} assets")
        if not np.array_equal(d, d.T, equal_nan=True):
            raise SchemaError("distance matrix must be symmetric")
        if not np.all(np.diag(d) == 0.0):
            raise SchemaError("distance diagonal must be exactly 0")
        if np.any(d < 0.0):
            raise SchemaError("distances must be non-negative")
        if not np.isfinite(d.max()):  # the entries are >= 0 or NaN here
            i, j = np.argwhere(~np.isfinite(d))[0]
            raise DomainError(
                f"non-finite distance {float(d[i, j])!r} between {assets[i]!r} and {assets[j]!r}"
            )
        _check_unique(assets)
        d.setflags(write=False)

    @property
    def n_assets(self) -> int:
        return len(self.assets)


def to_distance(corr: CorrelationMatrix, *, _overwrite: bool = False) -> DistanceMatrix:
    """Map a correlation matrix elementwise through ``sqrt(2 (1 - rho))``.

    ``_overwrite`` writes the distance over ``corr.rho``'s buffer, which leaves ``corr`` invalid:
    it is for a caller that owns ``corr`` and drops it.
    """
    if _overwrite:
        d = corr.rho
        d.setflags(write=True)
        np.subtract(1.0, d, out=d)  # not ``d -= 1; d *= -2``, which writes -0.0 where rho = 1
    else:
        d = 1.0 - corr.rho
    d *= 2.0
    np.sqrt(d, out=d)  # the unit diagonal maps to +0.0
    return _adopt(DistanceMatrix, corr.assets, d)
