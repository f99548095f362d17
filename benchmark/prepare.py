"""Generate one workload's input panel and its numpy-only reference answers.

    python3 benchmark/prepare.py --workload NAME --seed N [--smoke] --out DIR
    python3 benchmark/prepare.py --print-digests SEEDS   # regenerate digests.json

The panel is drawn here, not with ``corrtree.synth``, so that no change to
the library can change a workload. The reference (spanning-tree weights,
census counts) is computed with numpy alone. It runs in its own process so
that the benchmark's parent stays small: a child's peak RSS, as the kernel
reports it, is at least the RSS of the process that spawned it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload

# Factor model of corrtree.synth: Y_k = LOADING F_g + NOISE eps_k + GLOBAL G,
# with one Philox stream per (seed, stream kind, index).
LOADING = 0.7
NOISE = 0.6
GLOBAL = 0.3
_FACTOR, _NOISE, _GLOBAL, _MISSING = range(4)

STRONG_THRESHOLD = 0.5  # corrtree's census split between strong and weak
CENSUS_SLACK = 1e-9  # pairs this close to a census boundary may fall either side


def _stream(seed: int, kind: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(kind, index))))


def generate(w: Workload, seed: int) -> tuple[list[str], np.ndarray]:
    """Asset labels and the (length, n) panel; NaN marks a missing cell."""
    t = w.length
    common = GLOBAL * _stream(seed, _GLOBAL, 0).standard_normal(t)
    labels: list[str] = []
    columns: list[np.ndarray] = []
    for g in range(w.groups):
        factor = _stream(seed, _FACTOR, g).standard_normal(t)
        for k in range(w.members):
            eps = _stream(seed, _NOISE, g * w.members + k).standard_normal(t)
            columns.append(LOADING * factor + NOISE * eps + common)
            labels.append(f"G{g + 1:02d}_{k:02d}")
    returns = 0.01 * np.column_stack(columns)
    values = 100.0 * np.exp(np.cumsum(returns, axis=0)) if w.kind == "prices" else returns
    if w.missing:
        count = round(w.missing * values.size)
        cells = _stream(seed, _MISSING, 0).choice(values.size, size=count, replace=False)
        values.flat[cells] = np.nan
    return labels, values


def panel_csv(labels: list[str], values: np.ndarray) -> bytes:
    """The panel in corrtree's input format; floats as shortest round-trip repr."""
    lines = [",".join(["t", *labels])]
    for t, row in enumerate(values.tolist()):
        lines.append(f"{t}," + ",".join("NA" if v != v else repr(v) for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def signal(w: Workload, values: np.ndarray) -> np.ndarray:
    if w.signal == "log-return":
        logs = np.log(values)
        return logs[1:] - logs[:-1]
    if w.signal == "rank":
        return np.apply_along_axis(_mean_ranks_descending, 1, values)
    raise ValueError(f"no reference for signal {w.signal!r}")


def _mean_ranks_descending(row: np.ndarray) -> np.ndarray:
    sorted_vals = -np.sort(-row)
    # 1-based mean position of each value's tie group in descending order
    first = np.searchsorted(-sorted_vals, -row, side="left")
    last = np.searchsorted(-sorted_vals, -row, side="right")
    return (first + 1 + last) / 2.0


def correlation(x: np.ndarray) -> np.ndarray:
    """Pearson correlation; pairwise-complete over NaN cells."""
    if np.isnan(x).any():
        present = (~np.isnan(x)).astype(float)
        x0 = np.where(present > 0, x, 0.0)
        count = present.T @ present
        sum_i = (x0.T @ present) / count  # mean of asset i over the overlap with j
        sq_i = ((x0 * x0).T @ present) / count
        cov = (x0.T @ x0) / count - sum_i * sum_i.T
        rho = cov / np.sqrt((sq_i - sum_i**2) * (sq_i - sum_i**2).T)
    else:
        centered = x - x.mean(axis=0)
        gram = centered.T @ centered
        var = np.diag(gram)
        rho = gram / np.sqrt(np.outer(var, var))
    rho = np.clip((rho + rho.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(rho, 1.0)
    return rho


def mst_weight(rho: np.ndarray) -> float:
    """Total weight of a minimum spanning tree of sqrt(2(1 - rho)), by Prim."""
    d = np.sqrt(2.0 * (1.0 - rho))
    n = len(d)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = d[0].copy()
    picked = []
    for _ in range(n - 1):
        best[in_tree] = np.inf
        j = int(np.argmin(best))
        picked.append(float(best[j]))
        in_tree[j] = True
        np.minimum(best, d[j], out=best)
    return math.fsum(picked)


def census(rho: np.ndarray) -> dict[str, int]:
    vals = rho[np.triu_indices(len(rho), k=1)]
    strong = int((vals >= STRONG_THRESHOLD).sum())
    negative = int((vals < 0.0).sum())
    return {
        "strong": strong,
        "weak": int(vals.size - strong - negative),
        "negative": negative,
        "slack": int((np.abs(vals - STRONG_THRESHOLD) < CENSUS_SLACK).sum()
                     + (np.abs(vals) < CENSUS_SLACK).sum()),
    }


def reference(w: Workload, labels: list[str], values: np.ndarray) -> dict:
    x = signal(w, values)
    rho = correlation(x)
    ref = {
        "labels": labels,
        "rows": int(x.shape[0]),
        "mst_weight": mst_weight(rho),
        "census": census(rho),
        "window_weights": [],
    }
    if w.window is not None:
        width, step = w.window
        for k in range((x.shape[0] - width) // step + 1):
            ref["window_weights"].append(mst_weight(correlation(x[k * step : k * step + width])))
    return ref


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # provenance only: never fail a run over it
        return f"unknown ({exc!r})"


def digest(w: Workload, seed: int) -> str:
    return hashlib.sha256(panel_csv(*generate(w, seed))).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--print-digests", type=int, metavar="SEEDS",
                        help="print digests.json for seeds 0..SEEDS-1 and exit")
    args = parser.parse_args(argv)

    if args.print_digests is not None:
        pins = {"canary": {name: digest(w.smoke(), 0) for name, w in WORKLOADS.items()}}
        for name, w in WORKLOADS.items():
            pins[name] = {str(s): digest(w, s) for s in range(args.print_digests)}
        json.dump(pins, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    if args.workload is None or args.seed is None or args.out is None:
        parser.error("--workload, --seed and --out are required")

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = w.smoke()
    labels, values = generate(w, args.seed)
    text = panel_csv(labels, values)
    (args.out / "panel.csv").write_bytes(text)
    ref = reference(w, labels, values)
    ref["input_sha256"] = hashlib.sha256(text).hexdigest()
    ref["canary_sha256"] = digest(WORKLOADS[args.workload].smoke(), 0)
    ref["numpy"] = np.__version__
    ref["blas"] = _blas()
    json.dump(ref, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
