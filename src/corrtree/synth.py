"""Deterministic synthetic panels from a group factor model.

Asset k in group g draws

    Y_k(t) = factor_loading * F_g(t) + noise_sigma * eps_k(t)
             + global_loading * G(t)

with independent standard normal F_g, eps_k, G. Streams are
counter-based (Philox) and keyed on (seed, stream kind, stream index),
so the same spec always yields a bitwise identical panel regardless of
evaluation order.

Ground truth: members of one group correlate at
(loading^2 + global^2) / (loading^2 + sigma^2 + global^2), which cluster
recovery tests compare against fitted trees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import GeneratorSpecError
from .panel import TimeSeriesPanel, _adopt, _whole

_STREAM_FACTOR = 0
_STREAM_NOISE = 1
_STREAM_GLOBAL = 2


@dataclass(frozen=True)
class FactorModelSpec:
    """Group layout and mixing weights for one synthetic panel."""

    groups: tuple[tuple[str, int], ...]
    factor_loading: float
    noise_sigma: float
    length: int
    seed: int
    global_loading: float = 0.0

    def __post_init__(self) -> None:
        try:
            groups = tuple(
                (str(label), _whole(f"size of group {label!r}", count, 1, GeneratorSpecError))
                for label, count in self.groups
            )
        except (TypeError, ValueError) as exc:
            raise GeneratorSpecError(f"malformed group list: {exc}") from None
        object.__setattr__(self, "groups", groups)
        if not groups:
            raise GeneratorSpecError("need at least one group")
        labels = [label for label, _ in groups]
        if len(set(labels)) != len(labels) or any(not label for label in labels):
            raise GeneratorSpecError("group labels must be unique and non-empty")
        if sum(count for _, count in groups) < 2:
            raise GeneratorSpecError("need at least 2 assets in total")
        if not (0.0 < self.factor_loading < 1.0):
            raise GeneratorSpecError(
                f"factor_loading must lie in (0, 1), got {self.factor_loading!r}"
            )
        if not np.isfinite(self.noise_sigma) or self.noise_sigma < 0.0:
            raise GeneratorSpecError(
                f"noise_sigma must be a finite real >= 0, got {self.noise_sigma!r}"
            )
        if not np.isfinite(self.global_loading) or self.global_loading < 0.0:
            raise GeneratorSpecError(
                f"global_loading must be a finite real >= 0, got {self.global_loading!r}"
            )
        object.__setattr__(self, "length", _whole("length", self.length, 2, GeneratorSpecError))
        object.__setattr__(self, "seed", _whole("seed", self.seed, 0, GeneratorSpecError))

    @property
    def n_assets(self) -> int:
        return sum(count for _, count in self.groups)

    def member_map(self) -> dict[str, tuple[str, ...]]:
        """Group label -> generated asset names, in generation order."""
        out: dict[str, tuple[str, ...]] = {}
        for label, count in self.groups:
            pad = max(2, len(str(count - 1)))
            out[label] = tuple(f"{label}_{k:0{pad}d}" for k in range(count))
        return out

    def implied_within_group_correlation(self) -> float:
        """Population correlation of two members of the same group."""
        common = self.factor_loading**2 + self.global_loading**2
        total = common + self.noise_sigma**2
        return common / total

    def implied_cross_group_correlation(self) -> float:
        """Population correlation of two members of different groups."""
        total = self.factor_loading**2 + self.noise_sigma**2 + self.global_loading**2
        return self.global_loading**2 / total


def _stream(seed: int, kind: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(kind, index))
    return np.random.Generator(np.random.Philox(ss))


def generate(spec: FactorModelSpec) -> TimeSeriesPanel:
    """Draw one panel, timestamped 0 .. length - 1; identical spec gives identical bits."""
    t = spec.length
    members = spec.member_map()
    names = tuple(name for label, _ in spec.groups for name in members[label])
    values = np.empty((t, len(names)))
    if spec.global_loading > 0.0:
        common = spec.global_loading * _stream(spec.seed, _STREAM_GLOBAL, 0).standard_normal(t)
    else:
        common = np.zeros(t)
    asset_index = 0
    for g, (_, count) in enumerate(spec.groups):
        factor = _stream(spec.seed, _STREAM_FACTOR, g).standard_normal(t)
        for _ in range(count):
            eps = _stream(spec.seed, _STREAM_NOISE, asset_index).standard_normal(t)
            values[:, asset_index] = spec.factor_loading * factor + spec.noise_sigma * eps + common
            asset_index += 1
    return _adopt(TimeSeriesPanel, names, tuple(range(t)), values)


_GROUPS_COMPACT = re.compile(r"^(\d+)\s*[xX]\s*(\d+)$")


def parse_group_spec(text: str) -> tuple[tuple[str, int], ...]:
    """Parse a group layout: '3x10' for equal groups or '10,5,5' for counts.

    Labels are assigned G1, G2, ... in order.
    """
    text = text.strip()
    m = _GROUPS_COMPACT.match(text)
    parts = [p.strip() for p in text.split(",")]
    if m:
        dims = [int(m.group(1)), int(m.group(2))]
    elif all(p.isdecimal() for p in parts):  # isdigit would take '²', which int() refuses
        dims = [int(p) for p in parts]
    else:
        raise GeneratorSpecError(
            f"cannot parse group spec {text!r}; expected 'KxM' or comma-separated counts"
        )
    if 0 in dims:
        raise GeneratorSpecError(f"group spec {text!r} has a zero dimension")
    counts = [dims[1]] * dims[0] if m else dims
    return tuple((f"G{g + 1}", count) for g, count in enumerate(counts))
