#!/usr/bin/env python3
"""Rolling-tree edge survival through a planted regime change.

Two factor panels with identical labels are spliced at the midpoint; in
the treatment arm half of each group migrates to the other group's
factor at the splice, in the control arm membership is unchanged. A
rolling minimum spanning tree is tracked across both arms and the
step-to-step edge survival is averaged over replications. Within a
regime the tree rewires only through estimation noise (equal loadings
make within-group edges highly degenerate, so some churn is the
baseline); windows whose comparison pair straddles the break lose
systematically more edges, and only in the treatment arm. With
overlapping windows the signature is a double dip: one drop when the
first mixed window meets the last clean one, another when the first
fully post-break window meets the mixed ones, with inflated survival in
between because neighbouring mixed windows resemble each other.

    python3 scripts/rolling_survival.py --width 150 --step 30 --seeds 20
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from corrtree import (
    FactorModelSpec,
    TimeSeriesPanel,
    generate,
    rolling_trees,
    split_compare,
)

GROUPS = (("A", 6), ("B", 6))


def spliced_panel(
    length: int, seed: int, loading: float, noise: float, reshuffle: bool
) -> TimeSeriesPanel:
    """Stitch two independent draws; optionally migrate half of each
    group to the other group's factor at the splice."""
    half = length // 2
    first = generate(FactorModelSpec(GROUPS, loading, noise, half, seed))
    second = generate(FactorModelSpec(GROUPS, loading, noise, length - half, seed + 1))

    perm = list(range(len(first.assets)))
    if reshuffle:
        # A_03..A_05 trade places with B_03..B_05: six of twelve assets
        # change block, the labels stay put
        for k in range(3, 6):
            perm[k], perm[6 + k] = perm[6 + k], perm[k]
    values = np.vstack([first.values, second.values[:, perm]])
    return TimeSeriesPanel(first.assets, tuple(range(length)), values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=1200)
    parser.add_argument("--width", type=int, default=120)
    parser.add_argument("--step", type=int, default=20)
    parser.add_argument("--loading", type=float, default=0.8)
    parser.add_argument("--noise", type=float, default=0.5)
    parser.add_argument("--seeds", type=int, default=15, help="replications per arm")
    parser.add_argument("--seed", type=int, default=11, help="base seed")
    args = parser.parse_args(argv)

    break_at = args.length // 2

    def mean_survival(reshuffle: bool) -> tuple[np.ndarray, list[tuple[int, int]], float]:
        series: list[list[float]] = []
        splits: list[float] = []
        windows = None
        for rep in range(args.seeds):
            returns = spliced_panel(
                args.length, args.seed + 2 * rep, args.loading, args.noise, reshuffle
            )
            sequence = rolling_trees(returns, args.width, args.step)
            windows = list(sequence.windows)
            series.append([s for s in sequence.survival_vs_previous() if s is not None])
            splits.append(split_compare(returns, break_at).survival_vs_previous()[1])
        assert windows is not None
        return np.mean(series, axis=0), windows, float(np.mean(splits))

    treated, windows, treated_split = mean_survival(reshuffle=True)
    control, _, control_split = mean_survival(reshuffle=False)

    def pair_touches_break(k: int) -> bool:
        # survival k compares windows k-1 and k; the break matters as
        # soon as either window of the pair sees mixed data
        (s0, e0), (s1, e1) = windows[k - 1], windows[k]
        return s0 < break_at < e0 or s1 < break_at < e1

    print(
        f"{len(windows)} windows of width {args.width}, step {args.step}; "
        f"break at t={break_at}; means over {args.seeds} replications"
    )
    print()
    print("window     span       reshuffled   control")
    for k in range(1, len(windows)):
        start, end = windows[k]
        bar = "#" * round(treated[k - 1] * 20)
        marker = "  <- break in pair" if pair_touches_break(k) else ""
        print(
            f"{k:>6} [{start:>5},{end:>5}) {treated[k - 1]:>10.2f} {control[k - 1]:>9.2f}"
            f"  {bar}{marker}"
        )

    inside = [treated[k - 1] for k in range(1, len(windows)) if not pair_touches_break(k)]
    near = [k for k in range(1, len(windows)) if pair_touches_break(k)]
    print()
    print(f"reshuffled arm: mean survival inside a regime {np.mean(inside):.3f}")
    if near:
        t_min = min(treated[k - 1] for k in near)
        c_min = min(control[k - 1] for k in near)
        print(f"deepest dip in the break region: reshuffled {t_min:.3f}, "
              f"control {c_min:.3f}")
    print(f"whole-half comparison at t={break_at}: "
          f"reshuffled {treated_split:.3f}, control {control_split:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
