"""Shared builders for test panels and matrices."""

from __future__ import annotations

import os
import tracemalloc
from pathlib import Path

import numpy as np

import corrtree
from corrtree import (
    CorrelationMatrix,
    DistanceMatrix,
    TimeSeriesPanel,
    pearson_matrix,
    to_distance,
)


def child_env(threads: int | None = None) -> dict[str, str]:
    """Environment for a ``python -m corrtree`` child process.

    The directory holding the imported ``corrtree`` package goes first on
    ``PYTHONPATH`` (inherited entries follow), so the child runs the code
    under test from any working directory, even where the inherited path
    is relative or another ``corrtree`` is installed. ``threads``, when
    given, pins the BLAS thread count. ``PYTEST_CURRENT_TEST`` is left
    out: it holds the running test's id, which can be longer than one
    environment string may be.
    """
    env = dict(os.environ)
    env.pop("PYTEST_CURRENT_TEST", None)
    root = str(Path(corrtree.__file__).resolve().parent.parent)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + inherited if inherited else "")
    if threads is not None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
    return env


def peak_bytes(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the peak is the most memory ``tracemalloc`` saw during the call."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def labels(n: int, prefix: str = "S") -> tuple[str, ...]:
    return tuple(f"{prefix}{i:02d}" for i in range(n))


def panel(values, prefix: str = "S") -> TimeSeriesPanel:
    values = np.asarray(values, dtype=float)
    return TimeSeriesPanel(
        labels(values.shape[1], prefix), tuple(range(values.shape[0])), values
    )


def write_panel(p: TimeSeriesPanel, path: Path) -> Path:
    """Write ``p`` to ``path`` in the format ``load_panel`` reads; return ``path``."""
    path.write_text(p.to_csv(), encoding="utf-8")
    return path


def returns(values, prefix: str = "S") -> TimeSeriesPanel:
    """A signal panel: the values as given, labelled S00, S01, ... and timestamped 0, 1, ..."""
    return panel(values, prefix)


def corr_from_pairs(names, pairs, default: float = 0.0) -> CorrelationMatrix:
    """Symmetric correlation matrix from {(a, b): rho} with a shared default."""
    names = tuple(names)
    index = {a: i for i, a in enumerate(names)}
    rho = np.full((len(names), len(names)), float(default))
    for (a, b), value in pairs.items():
        rho[index[a], index[b]] = rho[index[b], index[a]] = float(value)
    np.fill_diagonal(rho, 1.0)
    return CorrelationMatrix(names, rho)


def random_data_distance(rng: np.random.Generator, n: int, t: int | None = None) -> DistanceMatrix:
    """Distance matrix estimated from a random gaussian panel."""
    if t is None:
        t = n + int(rng.integers(2, 30))
    y = rng.standard_normal((t, n))
    return to_distance(pearson_matrix(returns(y)))
