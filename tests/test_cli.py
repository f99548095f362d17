"""Command-line behaviour: artifacts, exit codes, stdout contracts."""

import io
import json
import os
import stat
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrtree.cli
from corrtree import (
    CorrelationMatrix,
    Dendrogram,
    DistanceMatrix,
    FactorModelSpec,
    SpanningTree,
    TimeSeriesPanel,
    TreeSequence,
    census,
    generate,
    load_panel,
    matrix_csv,
    parse_group_spec,
    pearson_matrix,
    rebase,
    to_distance,
)
from corrtree.cli import _SIGNALS, main
from helpers import child_env, peak_bytes, write_panel
from test_panel import fuzz_text


def synth_args(path, groups="2x4", length="120", seed="3"):
    return [
        "synth",
        "--groups",
        groups,
        "--loading",
        "0.8",
        "--noise",
        "0.6",
        "--length",
        length,
        "--seed",
        seed,
        "--out",
        str(path),
    ]


@pytest.fixture
def panel_path(tmp_path):
    path = tmp_path / "panel.csv"
    assert main(synth_args(path)) == 0
    return path


@pytest.fixture
def na_panel_path(tmp_path):
    """A synth panel with every seventh data row missing one cell."""
    path = tmp_path / "na_panel.csv"
    assert main(synth_args(path)) == 0
    lines = path.read_text().splitlines()
    for k in range(1, len(lines), 7):
        cells = lines[k].split(",")
        cells[1 + k % 8] = "NA"
        lines[k] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSynthCommand:
    def test_writes_loadable_panel(self, panel_path):
        p = load_panel(panel_path)
        assert p.n_assets == 8
        assert p.n_obs == 120
        assert p.assets[0] == "G1_00"

    def test_deterministic_output_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(synth_args(a)) == 0
        assert main(synth_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dash_is_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args = ["synth", "--groups", "2x2", "--loading", "0.5", "--noise", "0.5", "--length", "5"]
        assert main([*args, "--out", "-"]) == 0
        spec = FactorModelSpec(parse_group_spec("2x2"), factor_loading=0.5, noise_sigma=0.5, length=5, seed=0)
        text = generate(spec).to_csv()
        assert capsys.readouterr().out == text
        assert list(tmp_path.iterdir()) == []
        assert main([*args, "--out", "./-"]) == 0  # only the exact string "-" is standard output
        assert capsys.readouterr().out == ""
        assert (tmp_path / "-").read_text() == text

    def test_bad_group_spec_is_usage_error(self, tmp_path, capsys):
        for groups in ("banana", "3,0"):
            code = main(synth_args(tmp_path / "x.csv", groups=groups))
            assert code == 1
            assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_bad_delimiter_is_usage_error(self, tmp_path, capsys, delimiter):
        path = tmp_path / "x.csv"
        assert main([*synth_args(path), "--delimiter", delimiter]) == 1
        assert "exactly one character" in capsys.readouterr().err
        assert not path.exists()

    def test_bad_loading_is_data_error(self, tmp_path):
        args = synth_args(tmp_path / "x.csv")
        args[args.index("--loading") + 1] = "1.5"
        assert main(args) == 2

    def test_missing_is_not_an_option(self, tmp_path, capsys):
        """A generated panel has no missing cell, so a marker would never be written."""
        path = tmp_path / "x.csv"
        assert main([*synth_args(path), "--missing", "NA"]) == 1
        assert "unrecognized arguments: --missing NA" in capsys.readouterr().err
        assert not path.exists()


class TestRunCommand:
    def test_all_artifacts_written(self, panel_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code = main(["run", str(panel_path), "--signal", "raw", "--outdir", str(out)])
        assert code == 0
        for name in (
            "corr.csv",
            "dist.csv",
            "ultrametric.csv",
            "mst.dot",
            "mst.graphml",
            "dendrogram.nwk",
            "census.json",
        ):
            assert (out / name).is_file()
        record = json.loads(capsys.readouterr().out)
        assert record == json.loads((out / "census.json").read_text())
        assert record["n"] == 8

    def test_census_stdout_matches_library(self, panel_path, tmp_path, capsys):
        out = tmp_path / "a"
        main(["run", str(panel_path), "--signal", "raw", "--outdir", str(out)])
        record = json.loads(capsys.readouterr().out)
        counts = census(pearson_matrix(load_panel(panel_path)))
        assert record == json.loads(counts.to_json())

    def test_dot_counts_for_thirty_assets(self, tmp_path):
        panel = tmp_path / "panel.csv"
        main(synth_args(panel, groups="3x10", length="300"))
        out = tmp_path / "arts"
        assert main(["run", str(panel), "--signal", "raw", "--outdir", str(out)]) == 0
        lines = (out / "mst.dot").read_text().splitlines()
        node_lines = [l for l in lines if l.endswith('";') and " -- " not in l]
        edge_lines = [l for l in lines if " -- " in l]
        assert len(node_lines) == 30
        assert len(edge_lines) == 29

    def test_two_asset_panel(self, tmp_path):
        panel = tmp_path / "two.csv"
        panel.write_text("t,A,B\n0,1.0,2.0\n1,1.1,2.3\n2,1.05,2.2\n3,1.2,2.5\n")
        out = tmp_path / "arts"
        assert main(["run", str(panel), "--outdir", str(out)]) == 0
        dot = (out / "mst.dot").read_text()
        assert dot.count(" -- ") == 1
        nwk = (out / "dendrogram.nwk").read_text()
        assert nwk.count(":") == 3  # two leaves plus the root

    def test_unreadable_input_leaves_no_outputs(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = main(["run", str(tmp_path / "missing.csv"), "--outdir", str(out)])
        assert code == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", corrtree.cli.EXPORT_FORMATS)
    def test_format_subset(self, panel_path, tmp_path, capsys, fmt):
        out = tmp_path / f"{fmt}_only"
        code = main(
            ["run", str(panel_path), "--signal", "raw", "--outdir", str(out), "--formats", fmt]
        )
        assert code == 0
        selected = {name for name, (entry, _, _) in corrtree.cli._ARTIFACTS.items() if entry == fmt}
        assert {p.name for p in out.iterdir()} == selected
        record = json.loads(capsys.readouterr().out)
        assert record["n"] == 8

    def test_failed_write_leaves_outdir_as_found(self, panel_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "windows").write_text("in the way\n")
        args = ["run", str(panel_path), "--signal", "raw", "--width", "40", "--outdir", str(out)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err and captured.out == ""  # no census line without the files
        assert [p.name for p in out.iterdir()] == ["windows"]
        assert (out / "windows").read_text() == "in the way\n"
        (out / "windows").unlink()
        assert main(args) == 0  # an existing --outdir is written into
        assert (out / "corr.csv").is_file() and (out / "windows" / "survival.csv").is_file()
        capsys.readouterr()

        # a text that fails after an earlier one was written: nothing moves, nothing is left behind
        found = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
        calls = []

        def second_fails(*a, matrix_csv=corrtree.cli.matrix_csv):
            calls.append(a)
            if len(calls) == 2:
                raise RuntimeError("second matrix text")
            return matrix_csv(*a)

        monkeypatch.setattr(corrtree.cli, "matrix_csv", second_fails)
        assert main(args) == 3
        captured = capsys.readouterr()
        assert "second matrix text" in captured.err and captured.out == ""
        assert len(calls) == 2
        assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == found
        assert {path for path in out.rglob("*") if path.is_dir()} == {out / "windows"}

    def test_matrix_csvs_round_trip(self, tmp_path):
        """``load_panel`` reads ``corr.csv`` and ``dist.csv`` back to the labels and the exact doubles."""
        names = ('A "quoted"', "B,comma", "C plain", "D' tick")  # sorted, as row keys must be
        rng = np.random.default_rng(4)
        panel = TimeSeriesPanel(names, tuple(range(60)), rng.standard_normal((60, 4)) + rng.standard_normal((60, 1)))
        path = tmp_path / "panel.csv"
        write_panel(panel, path)
        out = tmp_path / "arts"
        with redirect_stdout(io.StringIO()):
            assert main(["run", str(path), "--signal", "raw", "--formats", "csv", "--outdir", str(out)]) == 0
        corr = pearson_matrix(load_panel(path))
        for name, expected in (("corr.csv", corr.rho), ("dist.csv", to_distance(corr).d)):
            back = load_panel(out / name)
            assert back.assets == names and back.timestamps == names
            assert back.values.tobytes() == expected.tobytes(), name
        assert np.diag(back.values).tobytes() == np.zeros(len(names)).tobytes()  # dist.csv: +0.0

    def test_bad_format_list_is_usage_error(self, panel_path, tmp_path):
        code = main(
            ["run", str(panel_path), "--outdir", str(tmp_path / "x"), "--formats", "pdf"]
        )
        assert code == 1

    def test_rolling_window_outputs(self, panel_path, tmp_path):
        out = tmp_path / "arts"
        code = main(
            [
                "run",
                str(panel_path),
                "--signal",
                "raw",
                "--outdir",
                str(out),
                "--width",
                "40",
                "--step",
                "40",
            ]
        )
        assert code == 0
        windows = out / "windows"
        assert (windows / "survival.csv").is_file()
        assert (windows / "tree_000.dot").is_file()
        assert (windows / "tree_002.dot").is_file()
        assert not (windows / "tree_003.dot").exists()

    def test_containers_checked_only_at_the_boundary(self, panel_path, tmp_path, monkeypatch):
        """A windowed run checks no container, with or without ``--rebase``.

        ``load_panel``, ``rebase``, the signals and every later producer hand
        over what they build; ``rebase`` checks its ``numeraire`` label itself,
        as nothing else checks it.
        ``single_linkage`` needs no ``Dendrogram`` check, because
        ``SpanningTree`` rejects a hand-built tree's non-finite or negative weight.
        """
        synthetic = load_panel(panel_path)
        prices = tmp_path / "prices.csv"  # positive, for log returns and a rebase
        write_panel(TimeSeriesPanel(synthetic.assets, synthetic.timestamps, np.exp(synthetic.values)), prices)
        counts = dict.fromkeys(
            (TimeSeriesPanel, CorrelationMatrix, DistanceMatrix, SpanningTree, Dendrogram, TreeSequence),
            0,
        )
        for cls in counts:
            def counted(self, check=cls.__post_init__):
                counts[type(self)] += 1
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        cases = [(signal, []) for signal in _SIGNALS] + [("log-return", ["--rebase", "G1_00"])]
        for k, (signal, extra) in enumerate(cases):
            counts.update(dict.fromkeys(counts, 0))
            out = tmp_path / f"out{k}"
            args = ["run", str(prices), "--signal", signal, *extra, "--outdir", str(out)]
            args += ["--width", "40", "--step", "20"]
            with redirect_stdout(io.StringIO()):
                assert main(args) == 0
            assert {cls.__name__: count for cls, count in counts.items()} == {
                "TimeSeriesPanel": 0,
                "CorrelationMatrix": 0,
                "DistanceMatrix": 0,
                "SpanningTree": 0,
                "Dendrogram": 0,
                "TreeSequence": 0,
            }, (signal, extra)
            # 120 prices, 119 log returns: windows start every 20 rows while 40 fit
            windows = 4 if signal == "log-return" else 5
            assert len(list((out / "windows").glob("tree_*.dot"))) == windows

    def test_census_made_once_per_run(self, panel_path, tmp_path, monkeypatch, capsys):
        """``census.json`` and the stdout record share one census, made before the distance."""
        calls = []
        made, distance = corrtree.cli.census, corrtree.cli.to_distance
        monkeypatch.setattr(corrtree.cli, "census", lambda corr: calls.append("census") or made(corr))
        monkeypatch.setattr(corrtree.cli, "to_distance", lambda *a, **k: calls.append("dist") or distance(*a, **k))
        for formats in ("dot,graphml,newick,csv,json", "dot,newick,json"):  # rho kept, and rho overwritten
            calls.clear()
            out = tmp_path / formats
            assert main(["run", str(panel_path), "--signal", "raw", "--formats", formats, "--outdir", str(out)]) == 0
            assert calls == ["census", "dist"], formats
            assert capsys.readouterr().out == (out / "census.json").read_text()

    def test_tree_run_holds_one_matrix(self, tmp_path, capsys):
        """Without ``csv`` the distance is written over the correlation and the returns are dropped.

        About 1.9 n x n arrays at n = 400, T = 100, and 1.43 at n = 1200, T = 250 (2.83 and 2.44 when
        the run kept the returns, the correlation and the distance to its end).
        """
        rng = np.random.default_rng(5)
        steps = 0.01 * (rng.standard_normal((101, 400)) + rng.standard_normal((101, 1)))
        prices = TimeSeriesPanel(tuple(f"S{i:03d}" for i in range(400)), tuple(range(101)), np.exp(steps.cumsum(axis=0)))
        write_panel(prices, tmp_path / "p.csv")
        args = ["run", str(tmp_path / "p.csv"), "--outdir", str(tmp_path / "out"), "--formats", "dot,newick,json"]
        code, peak = peak_bytes(main, args)
        assert code == 0
        assert peak <= 2.2 * 8 * 400**2


class TestOneWriter:
    """Every file a subcommand leaves behind is a target of ``_write_artifacts``."""

    def test_every_file_is_a_writer_target(self, tmp_path, monkeypatch, capsys):
        targets = set()
        write = corrtree.cli._write_artifacts

        def recorded(outputs):
            return write((targets.add(Path(d)) or (d, t)) for d, t in outputs)

        monkeypatch.setattr(corrtree.cli, "_write_artifacts", recorded)
        panel = tmp_path / "panel.csv"
        assert main(synth_args(panel)) == 0
        common = [str(panel), "--signal", "raw"]
        for args in (
            ["run", *common, "--width", "40", "--step", "20", "--outdir", str(tmp_path / "run")],
            ["dynamics", *common, "--width", "40", "--outdir", str(tmp_path / "dyn")],
            ["corr", *common, "--out", str(tmp_path / "corr.csv")],
            ["dendro", *common, "--out", str(tmp_path / "d.nwk"), "--ultrametric", str(tmp_path / "u.csv")],
        ):
            assert main(args) == 0, args
        left = {path for path in tmp_path.rglob("*") if path.is_file()}
        assert len(left) > 20
        assert left <= targets

    def test_all_format_run_peak_memory(self, tmp_path, capsys):
        """Each text is made when it is written and dropped there, so few are alive at once."""
        panel = tmp_path / "panel.csv"
        assert main(synth_args(panel, groups="6x50", length="200")) == 0
        out = tmp_path / "out"
        code, peak = peak_bytes(main, ["run", str(panel), "--signal", "raw", "--outdir", str(out)])
        assert code == 0
        largest = max(path.stat().st_size for path in out.iterdir())
        assert peak <= 4 * largest, (peak, largest)

    @pytest.mark.skipif(
        not (os.path.exists("/dev/null") and stat.S_ISCHR(os.stat("/dev/null").st_mode)),
        reason="/dev/null is not a character device here",
    )
    def test_device_is_written_in_place(self, panel_path, capsys):
        assert main(["corr", str(panel_path), "--signal", "raw", "--out", "/dev/null"]) == 0
        assert capsys.readouterr().out == ""
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)

    def test_synth_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "p.csv"
        assert main(synth_args(path)) == 0
        assert load_panel(path).n_assets == 8

    def test_synth_under_a_file_leaves_nothing(self, tmp_path, capsys):
        blocker = tmp_path / "F"
        blocker.write_text("in the way\n")
        assert main(synth_args(blocker / "p.csv")) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert [path.name for path in tmp_path.iterdir()] == ["F"]
        assert blocker.read_text() == "in the way\n"


class TestMatrixCommands:
    def test_corr_to_file_matches_library(self, panel_path, tmp_path):
        out = tmp_path / "corr.csv"
        code = main(["corr", str(panel_path), "--signal", "raw", "--out", str(out)])
        assert code == 0
        corr = pearson_matrix(load_panel(panel_path))
        assert out.read_text() == matrix_csv(corr.assets, corr.rho)

    def test_dist_to_stdout(self, panel_path, capsys):
        assert main(["dist", str(panel_path), "--signal", "raw"]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head.startswith(",G1_00,")

    def test_census_one_line_json(self, panel_path, capsys):
        assert main(["census", str(panel_path), "--signal", "raw"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        record = json.loads(out)
        assert set(record) == {"n", "strong", "weak", "negative"}

    def test_log_return_rejects_nonpositive(self, tmp_path, capsys):
        panel = tmp_path / "bad.csv"
        panel.write_text("t,A,B\n0,1.0,2.0\n1,-1.0,2.1\n2,1.2,2.2\n")
        assert main(["corr", str(panel)]) == 2
        assert "error" in capsys.readouterr().err


class TestMstAndDendro:
    def test_mst_graphml_parses(self, panel_path, capsys):
        import xml.etree.ElementTree as ET

        assert main(["mst", str(panel_path), "--signal", "raw", "--format", "graphml"]) == 0
        root = ET.fromstring(capsys.readouterr().out)
        assert root.tag.endswith("graphml")

    def test_dendro_with_ultrametric_matrix(self, panel_path, tmp_path, capsys):
        upath = tmp_path / "u.csv"
        code = main(
            ["dendro", str(panel_path), "--signal", "raw", "--ultrametric", str(upath)]
        )
        assert code == 0
        assert capsys.readouterr().out.rstrip().endswith(";")
        assert upath.read_text().startswith(",G1_00,")

    def test_dash_destinations_go_to_stdout_in_option_order(self, panel_path, tmp_path, monkeypatch, capsys):
        nwk, upath = tmp_path / "d.nwk", tmp_path / "u.csv"
        args = ["dendro", str(panel_path), "--signal", "raw"]
        assert main([*args, "--out", str(nwk), "--ultrametric", str(upath)]) == 0
        assert capsys.readouterr().out == ""
        monkeypatch.chdir(tmp_path)
        assert main([*args, "--out", "-", "--ultrametric", "-"]) == 0
        assert capsys.readouterr().out == nwk.read_text() + upath.read_text()
        assert main([*args, "--out", str(tmp_path / "e.nwk"), "--ultrametric", "-"]) == 0
        assert capsys.readouterr().out == upath.read_text()
        assert (tmp_path / "e.nwk").read_text() == nwk.read_text()
        assert not (tmp_path / "-").exists()

    def test_same_file_destinations_are_a_usage_error(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the panel was read")

        monkeypatch.setattr(corrtree.cli, "load_panel", refuse)
        monkeypatch.chdir(tmp_path)
        args = ["dendro", "panel.csv", "--out", "same.txt", "--ultrametric", "./same.txt"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        same = os.path.realpath(tmp_path / "same.txt")
        assert captured.err == f"error: --out and --ultrametric both name {same}\n"
        assert list(tmp_path.iterdir()) == []


class TestDynamicsCommand:
    def test_writes_padded_window_files(self, tmp_path):
        panel = tmp_path / "panel.csv"
        main(synth_args(panel, length="200"))
        out = tmp_path / "dyn"
        code = main(
            [
                "dynamics",
                str(panel),
                "--signal",
                "raw",
                "--width",
                "50",
                "--step",
                "50",
                "--outdir",
                str(out),
            ]
        )
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["survival.csv", "tree_000.dot", "tree_001.dot", "tree_002.dot", "tree_003.dot"]
        first = (out / "survival.csv").read_text().splitlines()[1]
        assert first == "0,0,50,"


class TestViewsEqualRun:
    """Each single-artifact subcommand writes the bytes ``run`` writes for that artifact."""

    VIEWS = [
        (["corr"], "corr.csv"),
        (["dist"], "dist.csv"),
        (["mst"], "mst.dot"),
        (["mst", "--format", "graphml"], "mst.graphml"),
        (["dendro"], "dendrogram.nwk"),
        (["census"], "census.json"),
    ]

    def test_views_equal_run_artifacts(self, panel_path, na_panel_path, tmp_path, capsys):
        """On both correlation paths: ``run`` keeps rho for ``corr.csv``, the ``dist``, ``mst`` and
        ``dendro`` views write the distance over it."""
        for path in (panel_path, na_panel_path):
            arts = tmp_path / f"arts_{path.stem}"
            assert main(["run", str(path), "--signal", "raw", "--outdir", str(arts)]) == 0
            run_stdout = capsys.readouterr().out
            assert run_stdout == (arts / "census.json").read_text()
            for k, (command, artifact) in enumerate(self.VIEWS):
                out = tmp_path / f"view_{path.stem}_{k}"
                args = [command[0], str(path), "--signal", "raw", "--out", str(out)]
                assert main(args + command[1:]) == 0
                assert out.read_bytes() == (arts / artifact).read_bytes(), (path.stem, artifact)
            assert capsys.readouterr().out == ""
            ultra = tmp_path / f"u_{path.stem}.csv"
            args = ["dendro", str(path), "--signal", "raw", "--ultrametric", str(ultra)]
            assert main(args) == 0
            assert capsys.readouterr().out == (arts / "dendrogram.nwk").read_text()
            assert ultra.read_bytes() == (arts / "ultrametric.csv").read_bytes()

    def test_dist_view_of_a_duplicated_column_writes_no_negative_zero(self, panel_path, tmp_path, capsys):
        """rho = 1 off the diagonal maps to +0.0 in place as in the library's ``to_distance``."""
        p = load_panel(panel_path)
        twin = write_panel(
            TimeSeriesPanel((*p.assets, "TWIN"), p.timestamps, np.column_stack([p.values, p.values[:, 0]])),
            tmp_path / "twin.csv",
        )
        assert main(["dist", str(twin), "--signal", "raw"]) == 0
        text = capsys.readouterr().out
        assert "-0.0" not in text
        expected = to_distance(pearson_matrix(load_panel(twin)))
        assert expected.d[0, -1] == 0.0
        assert text == matrix_csv(expected.assets, expected.d)

    @pytest.mark.parametrize("fmt", ["dot", "graphml"])
    def test_dynamics_equals_run_windows(self, na_panel_path, tmp_path, fmt):
        window = ["--signal", "raw", "--width", "30", "--step", "20"]
        arts, dyn = tmp_path / "arts", tmp_path / "dyn"
        args = ["run", str(na_panel_path), *window, "--formats", fmt, "--outdir", str(arts)]
        assert main(args) == 0
        assert main(["dynamics", str(na_panel_path), *window, "--format", fmt, "--outdir", str(dyn)]) == 0
        windows = {p.name: p.read_bytes() for p in (arts / "windows").iterdir()}
        assert {p.name: p.read_bytes() for p in dyn.iterdir()} == windows
        assert len(windows) == 6

    def test_dynamics_skips_full_sample_correlation(self, na_panel_path, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dynamics computed the full-sample correlation")

        monkeypatch.setattr(corrtree.cli, "pearson_matrix", refuse)
        args = ["dynamics", str(na_panel_path), "--signal", "raw", "--width", "40",
                "--outdir", str(tmp_path / "d")]
        assert main(args) == 0


class TestExtremeScale:
    """Panels far from unit scale: the same correlation, or one error naming the asset."""

    PANEL = "t,A,B\n0,{0},{1}\n1,{1},{2}\n2,{3},{4}\n3,{0},{1}\n"

    def write(self, tmp_path, scale, extra_row=""):
        values = [f"{v}e{scale}" for v in ("1", "2", "4.1", "3", "5.9")]
        path = tmp_path / f"scaled_{scale}.csv"
        path.write_text(self.PANEL.format(*values) + extra_row)
        return path

    @pytest.mark.parametrize("scale", ["100", "-100", "300"])
    @pytest.mark.parametrize("extra_row", ["", "4,NA,3\n"], ids=["complete", "missing"])
    def test_scaled_panel_keeps_correlation(self, tmp_path, capsys, scale, extra_row):
        rows = []
        for s in ("0", scale):
            row = extra_row.replace("3", f"3e{s}") if extra_row else ""
            assert main(["corr", str(self.write(tmp_path, s, row)), "--signal", "raw"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            rows.append(float(captured.out.splitlines()[1].split(",")[2]))
        assert abs(rows[0] - 0.9992292869760642) <= 1e-12
        assert abs(rows[1] - rows[0]) <= 1e-12


EXTREME_CELLS = st.sampled_from(["1e300", "-1e200", "1e-320", "NA", "", "1", "2.5", "-3", "0.75"])


@st.composite
def numeric_panels(draw, max_assets=4, max_rows=8, cell=EXTREME_CELLS):
    """Small panels of extreme, tiny, ordinary and missing cells."""
    n = draw(st.integers(2, max_assets))
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=1, max_size=max_rows))
    lines = [",".join(["t", *"ABCDEFGH"[:n]])]
    lines += [",".join([str(k), *row]) for k, row in enumerate(rows)]
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=200)
@given(
    body=st.one_of(fuzz_text, numeric_panels()),
    signal=st.sampled_from(tuple(_SIGNALS)),
)
def test_fuzzed_panels_exit_cleanly(body, signal, tmp_path_factory):
    """Every input subcommand exits 0 in silence or 2 with one error line; never 3."""
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "panel.csv"
    path.write_bytes(body)
    for command in ("corr", "dist", "mst", "dendro", "census", "dynamics", "run"):
        args = [command, str(path), "--signal", signal]
        if command == "dynamics":
            args += ["--width", "3", "--outdir", str(tmp / command)]
        elif command == "run":
            args += ["--outdir", str(tmp / command)]
        else:
            args += ["--out", str(tmp / f"{command}.out")]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(args)
        message = err.getvalue()
        clean = code == 0 and message == ""
        failed = code == 2 and message.startswith("error: ") and message.count("\n") == 1
        assert clean or failed, (command, code, message)


class TestMissingMarker:
    def test_custom_marker_reads_as_its_na_twin(self, na_panel_path, tmp_path, capsys):
        marked = tmp_path / "marked.csv"
        marked.write_text(na_panel_path.read_text().replace("NA", "?"))
        texts = []
        for panel, extra in ((na_panel_path, []), (marked, ["--missing", "?"])):
            out = tmp_path / f"corr_{panel.stem}.csv"
            assert main(["corr", str(panel), "--signal", "raw", *extra, "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        assert b"nan" not in texts[0]

    def test_unknown_marker_names_its_line(self, na_panel_path, tmp_path, capsys):
        marked = tmp_path / "marked.csv"
        marked.write_text(na_panel_path.read_text().replace("NA", "?"))
        assert main(["corr", str(marked), "--signal", "raw"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # na_panel_path marks the second cell of its first data row (line 2) missing
        assert captured.err == f"error: {marked}: line 2: cannot parse '?' for asset 'G1_01'\n"


class TestSignalsAndRebase:
    @pytest.mark.parametrize("signal", ["raw", "rank"])
    def test_alternative_signals(self, panel_path, signal, capsys):
        assert main(["census", str(panel_path), "--signal", signal]) == 0
        json.loads(capsys.readouterr().out)

    def test_rebase_flow(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        quotes = np.exp(rng.standard_normal((40, 3)) * 0.05).cumprod(axis=0)
        lines = ["t,EUR,GBP,JPY"]
        for k, row in enumerate(quotes):
            lines.append(f"{k}," + ",".join(repr(float(v)) for v in row))
        panel = tmp_path / "fx.csv"
        panel.write_text("\n".join(lines) + "\n")
        assert main(["census", str(panel), "--rebase", "EUR"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["n"] == 3  # GBP, JPY and the USD unit column

    @pytest.mark.parametrize("missing", [False, True], ids=["complete", "missing"])
    def test_rebase_run_equals_run_on_reloaded_rebased_panel(self, tmp_path, capsys, missing):
        # the rebased panel is adopted unchecked; its bytes must equal those of the reloaded panel
        rng = np.random.default_rng(13)
        quotes = np.exp(0.05 * rng.standard_normal((80, 12))).cumprod(axis=0)
        if missing:
            quotes[:, 1:][rng.random((80, 11)) < 0.03] = np.nan
        fx = tuple(f"C{i:02d}" for i in range(12))
        write_panel(TimeSeriesPanel(fx, tuple(range(80)), quotes), tmp_path / "fx.csv")
        rebased = rebase(load_panel(tmp_path / "fx.csv"), "C00", numeraire="USD")
        write_panel(rebased, tmp_path / "rebased.csv")
        runs = []
        for name, extra in (("fx.csv", ["--rebase", "C00"]), ("rebased.csv", [])):
            outdir = tmp_path / f"out_{name}"
            argv = ["run", str(tmp_path / name), *extra, "--outdir", str(outdir), "--width", "30"]
            assert main([*argv, "--step", "10", "--formats", "csv,dot,graphml,newick,json"]) == 0
            files = sorted(p for p in outdir.rglob("*") if p.is_file())
            runs.append(([(p.relative_to(outdir), p.read_bytes()) for p in files], capsys.readouterr()))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) > 7

    def test_numeraire_names_the_unit_column(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        quotes = np.exp(0.05 * rng.standard_normal((30, 4))).cumprod(axis=0)
        panel = tmp_path / "fx.csv"
        write_panel(TimeSeriesPanel(("CHF", "EUR", "GBP", "JPY"), tuple(range(30)), quotes), panel)
        out = tmp_path / "corr.csv"
        assert main(["corr", str(panel), "--rebase", "CHF", "--numeraire", "EUR2", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == ",EUR,GBP,JPY,EUR2"
        # rebase checks the numeraire label itself, as nothing else checks it
        assert main(["corr", str(panel), "--rebase", "CHF", "--numeraire", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: asset labels must be non-empty strings\n"

    def test_rebase_unknown_label(self, panel_path):
        assert main(["census", str(panel_path), "--signal", "raw", "--rebase", "XXX"]) == 2

    def test_rebase_overflow_names_the_asset(self, tmp_path, capsys):
        panel = tmp_path / "fx.csv"
        panel.write_text("t,A,B,C\n0,1e300,1e-300,1\n1,2e300,2e-300,2\n2,3e300,1e-300,3\n")
        assert main(["corr", str(panel), "--rebase", "B"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "'A'" in captured.err


class TestBadInput:
    """Bad panel bytes exit 2 with one line naming the fault, and nothing else on stderr."""

    @pytest.mark.parametrize(
        ("body", "message"),
        [
            (b"t,A,B\n0,1,2\n1,\xff,3\n", "line 3: byte 0xff is not valid UTF-8"),
            (b"t,A,B\r0,1,2\r1,\xff,3\r", "line 3: byte 0xff is not valid UTF-8"),
            (b"t,A,B\n0,1,2\n1,inf,3\n2,2,4\n", "line 3: non-finite value 'inf' for asset 'A'"),
            (b"t,A,B\n0,1,NA\n1,2,nan\n2,2,4\n", "line 3: non-finite value 'nan' for asset 'B'"),
            pytest.param(
                b"t,A,B\n1,1,2\n2," + b"1" * 200_000 + b",2\n",
                "line 3: field larger than field limit (131072)",
                id="field-larger-than-limit",
            ),
        ],
    )
    def test_exit_code_and_sole_message(self, tmp_path, body, message):
        panel = tmp_path / "bad.csv"
        panel.write_bytes(body)
        out = subprocess.run(
            [sys.executable, "-m", "corrtree", "run", str(panel), "--signal", "raw",
             "--outdir", str(tmp_path / "arts")],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 2
        assert out.stderr == f"error: {panel}: {message}\n"
        assert not (tmp_path / "arts").exists()

    @pytest.mark.parametrize("command", ["run", "dynamics"])
    def test_window_error_names_its_window(self, tmp_path, capsys, command):
        """Column A varies over the panel but is constant on window 2's rows 20-39."""
        values = np.random.default_rng(8).standard_normal((60, 3))
        values[20:40, 0] = 1.0
        panel = write_panel(TimeSeriesPanel(("A", "B", "C"), tuple(range(60)), values), tmp_path / "p.csv")
        out = tmp_path / "arts"
        window = ["--signal", "raw", "--width", "20", "--step", "10", "--outdir", str(out)]
        assert main([command, str(panel), *window]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: window 2 (timestamps 20 to 39): asset 'A' has zero variance\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            pytest.param(
                ["corr"], "non-positive value -2.0 for asset 'B' at timestamp 1", id="log-return"
            ),
            pytest.param(
                ["corr", "--rebase", "B"],
                "base column 'B' must be present and positive; offending value -2.0 at timestamp 1",
                id="rebase",
            ),
        ],
    )
    def test_transform_message_shows_plain_number(self, tmp_path, capsys, args, message):
        panel = tmp_path / "prices.csv"
        panel.write_text("t,A,B\n0,1,2\n1,2,-2\n2,3,4\n")
        assert main([args[0], str(panel), *args[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_signal_choice(self, panel_path):
        assert main(["census", str(panel_path), "--signal", "wavelet"]) == 1

    def test_zscore_is_not_a_signal(self, panel_path, capsys):
        """Pearson correlation ignores each column's shift and scale; ``--signal raw`` gives the same tree."""
        assert main(["corr", str(panel_path), "--signal", "zscore"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --signal: invalid choice: 'zscore'" in captured.err

    def test_min_overlap_too_small(self, panel_path):
        assert main(["census", str(panel_path), "--min-overlap", "1"]) == 1

    def test_width_not_an_integer(self, panel_path, tmp_path, capsys):
        assert main(["run", str(panel_path), "--width", "abc", "--outdir", str(tmp_path / "out")]) == 1
        assert "argument --width: expected an integer, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_bad_delimiter(self, panel_path, capsys, delimiter):
        assert main(["census", str(panel_path), "--delimiter", delimiter]) == 1
        assert "exactly one character" in capsys.readouterr().err

    @pytest.mark.parametrize("line_end", ["\n", "\r"], ids=["LF", "CR"])
    def test_line_end_delimiter_is_usage_error(self, panel_path, tmp_path, capsys, line_end):
        """A panel split at a line end could not be read back."""
        synthesized = tmp_path / "x.csv"
        assert main([*synth_args(synthesized), "--delimiter", line_end]) == 1
        assert main(["census", str(panel_path), "--delimiter", line_end]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(f"exactly one character other than a line end, got {line_end!r}") == 2
        assert [p.name for p in tmp_path.iterdir()] == [panel_path.name]

    def test_parser_exits_two_and_main_returns_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            corrtree.cli.build_parser().parse_args(["run", "x", "--formats", "bogus", "--outdir", "o"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: corrtree run ") and "corrtree run: error: argument --formats" in err
        assert main(["run", "x", "--formats", "bogus", "--outdir", "o"]) == 1
        assert capsys.readouterr().err == err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_child_env_drops_test_id(self):
        assert "PYTEST_CURRENT_TEST" not in child_env()

    def test_module_entry_point_under_long_test_id(self, tmp_path, monkeypatch):
        # one environment string may hold at most 128 kB on Linux
        monkeypatch.setenv("PYTEST_CURRENT_TEST", "x" * 200_000)
        out = subprocess.run(
            [sys.executable, "-m", "corrtree", "--help"],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0

    def test_module_entry_point(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "corrtree", "--help"],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert "corrtree" in out.stdout
