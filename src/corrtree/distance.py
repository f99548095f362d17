"""Correlation-to-distance map and metric axiom checks.

``d = sqrt(2 (1 - rho))`` sends perfect correlation to 0, independence
to sqrt(2) and perfect anticorrelation to 2, and decreases monotonically
in rho. For matrices that came from actual data panels the result
satisfies the three metric axioms; ``check_metric_axioms`` verifies them
on any square matrix and reports each violated instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationMatrix
from .errors import SchemaError, ShapeError


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric non-negative matrix with zero diagonal, indexed by asset labels."""

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
        d.setflags(write=False)

    @property
    def n_assets(self) -> int:
        return len(self.assets)


def to_distance(corr: CorrelationMatrix) -> DistanceMatrix:
    """Map a correlation matrix elementwise through ``sqrt(2 (1 - rho))``."""
    d = np.sqrt(2.0 * (1.0 - corr.rho))
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(corr.assets, d)


# Size of one float64 block of the triangle scan; caps its memory at
# O(n^2) (one row) instead of O(n^3).
_TRIANGLE_BLOCK_BYTES = 1 << 22


@dataclass(frozen=True)
class AxiomViolation:
    """One failed metric-axiom instance.

    ``axiom`` is ``"identity"``, ``"symmetry"`` or ``"triangle"``;
    ``indices`` holds the offending row/column positions.
    """

    axiom: str
    indices: tuple[int, ...]
    detail: str


def check_metric_axioms(
    matrix: DistanceMatrix | np.ndarray, tol: float = 1e-9
) -> list[AxiomViolation]:
    """Report every violation of the three metric axioms, up to ``tol``.

    Checks identity of indiscernibles (zero diagonal, nonzero
    off-diagonal), symmetry, and the triangle inequality in its
    non-strict form ``d[i,j] <= d[i,k] + d[k,j]`` (equality is legal for
    collinear configurations). An empty list means the matrix passed.
    """
    d = matrix.d if isinstance(matrix, DistanceMatrix) else np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {d.shape}")
    n = d.shape[0]
    violations: list[AxiomViolation] = []

    for i in range(n):
        if abs(d[i, i]) > tol:
            violations.append(
                AxiomViolation("identity", (i, i), f"d[{i},{i}] = {d[i, i]!r}, expected 0")
            )
    for i in range(n):
        for j in range(i + 1, n):
            if abs(d[i, j]) <= tol:
                violations.append(
                    AxiomViolation(
                        "identity", (i, j), f"distinct items at zero distance: d[{i},{j}] = {d[i, j]!r}"
                    )
                )
            gap = abs(d[i, j] - d[j, i])
            if gap > tol:
                violations.append(
                    AxiomViolation("symmetry", (i, j), f"|d[{i},{j}] - d[{j},{i}]| = {gap!r}")
                )

    if n >= 3:
        # excess[i,j,k] = d[i,j] - (d[i,k] + d[k,j]), over blocks of rows i
        # in order, so the hits come out in the order of one full scan; only
        # i < j and k not in {i, j} count
        rows = max(1, _TRIANGLE_BLOCK_BYTES // (8 * n * n))
        cols = np.arange(n)
        hits = []
        for lo in range(0, n, rows):
            block = d[lo : lo + rows]
            own = np.arange(lo, lo + len(block))
            hit = block[:, :, None] - (block[:, None, :] + d.T[None, :, :]) > tol
            hit &= (own[:, None] < cols)[:, :, None]
            hit[own - lo, :, own] = False
            hit[:, cols, cols] = False
            hits.append(np.argwhere(hit) + (lo, 0, 0))
        for i, j, k in np.concatenate(hits):
            violations.append(
                AxiomViolation(
                    "triangle",
                    (int(i), int(j), int(k)),
                    f"d[{i},{j}] = {d[i, j]!r} exceeds "
                    f"d[{i},{k}] + d[{k},{j}] = {d[i, k] + d[k, j]!r}",
                )
            )

    violations.sort(key=lambda v: (v.axiom, v.indices))
    return violations
