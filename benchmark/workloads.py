"""The benchmark's workloads: panel shape, CLI arguments, and the spans each must record.

Every workload drives ``corrtree run`` on one generated panel. The shapes
are chosen so that each stresses a different layer (see ``why``); the
per-layer trace shows whether that is still true after a change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

ALL_FORMATS = ("dot", "graphml", "newick", "csv", "json")

# Spans every `corrtree run` records, whatever its formats and windows.
_BASE_SPANS = frozenset({
    "cli.main",
    "panel.load_panel",
    "transforms.signal",
    "correlation.pearson_matrix",
    "correlation.census",
    "distance.to_distance",
    "mst.build_mst",
    "hierarchy.single_linkage",
    "export.graph",
})


@dataclass(frozen=True)
class Workload:
    """One generated panel and the `corrtree run` arguments used on it."""

    name: str
    why: str
    groups: int
    members: int
    length: int  # data rows of the generated CSV
    kind: str  # "prices" (levels, for log-return) or "returns"
    missing: float = 0.0  # share of cells written as NA
    signal: str = "log-return"
    formats: tuple[str, ...] = ALL_FORMATS
    window: tuple[int, int] | None = None  # (width, step)

    @property
    def n(self) -> int:
        return self.groups * self.members

    @property
    def rows_after_signal(self) -> int:
        """Rows the correlation sees: log returns drop one row, rank keeps all."""
        return self.length - 1 if self.signal == "log-return" else self.length

    @property
    def window_count(self) -> int:
        if self.window is None:
            return 0
        width, step = self.window
        return (self.rows_after_signal - width) // step + 1

    @property
    def expected_spans(self) -> frozenset[str]:
        """Spans that must record at least one call; zero calls means a bypassed wrapper."""
        spans = set(_BASE_SPANS)
        if "csv" in self.formats:
            spans |= {"export.matrix_csv", "hierarchy.subdominant_ultrametric"}
        if self.window is not None:
            spans.add("dynamics.rolling_trees")
        return frozenset(spans)

    def cli_args(self) -> list[str]:
        """Arguments after ``run INPUT --outdir DIR``."""
        args: list[str] = []
        if self.signal != "log-return":
            args += ["--signal", self.signal]
        if self.formats != ALL_FORMATS:
            args += ["--formats", ",".join(self.formats)]
        if self.window is not None:
            args += ["--width", str(self.window[0]), "--step", str(self.window[1])]
        return args

    def smoke(self) -> Workload:
        """The same workload shape at a size that runs in well under a second."""
        return replace(
            self,
            groups=min(self.groups, 3),
            members=4,
            length=120,
            window=(30, 10) if self.window is not None else None,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="wide-n1200",
            why="tree workload: n=1200, T=250, no matrix CSV; single_linkage "
            "and build_mst dominate, n^2 matrices set the RSS peak",
            groups=24,
            members=50,
            length=250,
            kind="prices",
            formats=("dot", "graphml", "newick", "json"),
        ),
        Workload(
            name="rolling-n300",
            why="many small trees: returns panel, rank signal, 41 windows; "
            "per-row ranking and 42 small build_mst calls dominate",
            groups=10,
            members=30,
            length=1250,
            kind="returns",
            signal="rank",
            formats=("dot", "json"),
            window=(250, 25),
        ),
        Workload(
            name="missing-n150",
            why="1% NA cells, all formats: the only workload on the pairwise-complete "
            "correlation path, ingest's missing-marker branch and the matrix CSV writes",
            groups=10,
            members=15,
            length=1500,
            kind="prices",
            missing=0.01,
        ),
    )
}
