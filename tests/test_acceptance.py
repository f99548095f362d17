"""Acceptance gate: every release-blocking criterion in one module.

Each test prints one ``[criterion NN] PASS/FAIL`` line (visible under
``pytest tests/test_acceptance.py -v -s``) and pins the tolerance it
enforces. Random suites use fixed seeds so failures reproduce.
"""

import hashlib
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

import corrtree as ct
from helpers import child_env, corr_from_pairs, labels, panel, returns


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:02d}] FAIL {description}")
        raise
    print(f"\n[criterion {number:02d}] PASS {description}")


def test_criterion_01_distance_anchors():
    with criterion(1, "d(0.72) within 0.005 of 0.75; d(0.68) = 0.80 exactly"):
        d72 = ct.to_distance(corr_from_pairs(("A", "B"), {("A", "B"): 0.72})).d[0, 1]
        assert abs(d72 - 0.75) < 0.005
        assert abs(d72 - 0.7483314773547883) <= 1e-15
        d68 = ct.to_distance(corr_from_pairs(("A", "B"), {("A", "B"): 0.68})).d[0, 1]
        assert abs(d68 - 0.80) <= 1e-12


def test_criterion_02_construction_trace():
    with criterion(2, "greedy trace: C-JPM, AXP-C, skip AXP-JPM, then GE-AXP"):
        bank = {
            ("C", "JPM"): 0.72,
            ("AXP", "C"): 0.68,
            ("AXP", "JPM"): 0.65,
            ("AXP", "GE"): 0.61,
            ("C", "GE"): 0.30,
            ("GE", "JPM"): 0.25,
        }
        tree = ct.build_mst(ct.to_distance(corr_from_pairs(("AXP", "C", "GE", "JPM"), bank)))
        order = tree.construction_order
        assert order[("C", "JPM")] == 0
        assert order[("AXP", "C")] == 1
        assert order[("AXP", "GE")] == 2
        assert ("AXP", "JPM") not in tree.edge_set()

        # same ordering embedded in a wider universe
        wide = dict(bank)
        wide[("KO", "PG")] = 0.40
        tree6 = ct.build_mst(
            ct.to_distance(corr_from_pairs(("AXP", "C", "GE", "JPM", "KO", "PG"), wide, default=0.2))
        )
        order6 = tree6.construction_order
        assert order6[("C", "JPM")] == 0
        assert order6[("AXP", "C")] == 1
        assert order6[("AXP", "GE")] == 2
        assert ("AXP", "JPM") not in tree6.edge_set()


def test_criterion_03_oracle_equivalence():
    with criterion(3, "greedy == exhaustive oracle on 1000 instances, n in 3..7, < 30 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(1234)
        for checked in range(1000):
            n = 3 + checked % 5
            if checked % 3 == 2:
                # quantized weights force heavy weight ties
                w = rng.integers(1, 6, size=(n, n)) / 4.0
                d = np.triu(w, 1)
                dist = ct.DistanceMatrix(labels(n), d + d.T)
            else:
                t = n + int(rng.integers(2, 25))
                dist = ct.to_distance(ct.pearson_matrix(returns(rng.standard_normal((t, n)))))
            assert ct.build_mst(dist).total_weight() == ct.mst_oracle(dist).total_weight()
        assert time.perf_counter() - start < 30.0


def test_criterion_04_metric_axioms():
    with criterion(4, "1000 data-derived distance matrices pass all axioms at 1e-9"):
        rng = np.random.default_rng(4321)
        for _ in range(1000):
            n = int(rng.integers(3, 13))
            t = n + int(rng.integers(2, 40))
            dist = ct.to_distance(ct.pearson_matrix(returns(rng.standard_normal((t, n)))))
            assert ct.check_metric_axioms(dist, tol=1e-9) == []


def test_criterion_05_ultrametric_suite():
    with criterion(5, "500 instances: strong triangle, dhat <= d, cophenetic == dhat at 1e-12"):
        rng = np.random.default_rng(555)
        for _ in range(500):
            n = int(rng.integers(3, 11))
            t = n + int(rng.integers(2, 30))
            dist = ct.to_distance(ct.pearson_matrix(returns(rng.standard_normal((t, n)))))
            dhat = ct.subdominant_ultrametric(ct.build_mst(dist)).d
            assert np.all(dhat <= dist.d + 1e-12)
            assert np.all(dhat[:, :, None] <= np.maximum(dhat[:, None, :], dhat[None, :, :]) + 1e-12)
            coph = ct.cophenetic_matrix(ct.single_linkage(dist)).d
            assert np.max(np.abs(dhat - coph)) <= 1e-12


def test_criterion_06_census_identity():
    with criterion(6, "census sums to n(n-1)/2; shaped panels give 9+426+0 and 1+188+1"):
        rng = np.random.default_rng(66)
        for _ in range(200):
            n = int(rng.integers(3, 15))
            counts = ct.census(ct.pearson_matrix(returns(rng.standard_normal((n + 5, n)))))
            assert counts.strong + counts.weak + counts.negative == n * (n - 1) // 2

        blue_chips = labels(30, "BC")
        strong_pairs = {(blue_chips[2 * k], blue_chips[2 * k + 1]): 0.7 for k in range(9)}
        counts = ct.census(corr_from_pairs(blue_chips, strong_pairs, default=0.2))
        assert (counts.strong, counts.weak, counts.negative) == (9, 426, 0)
        assert counts.total_pairs == 435

        warsaw = labels(20, "W")
        mixed = {(warsaw[0], warsaw[1]): 0.9, (warsaw[2], warsaw[3]): -0.3}
        counts = ct.census(corr_from_pairs(warsaw, mixed, default=0.2))
        assert (counts.strong, counts.weak, counts.negative) == (1, 188, 1)
        assert counts.total_pairs == 190


def test_criterion_07_factor_recovery():
    with criterion(7, "3x10 groups, loading .8, noise .6, T=1000: subtrees in >= 95% of 200 seeds, < 60 s"):
        start = time.perf_counter()
        hits = 0
        for seed in range(200):
            spec = ct.FactorModelSpec(
                groups=(("G1", 10), ("G2", 10), ("G3", 10)),
                factor_loading=0.8,
                noise_sigma=0.6,
                length=1000,
                seed=seed,
            )
            tree = ct.build_mst(ct.to_distance(ct.pearson_matrix(ct.generate(spec))))
            if all(
                ct.spans_connected_subtree(tree, members)
                for members in spec.member_map().values()
            ):
                hits += 1
        elapsed = time.perf_counter() - start
        assert hits >= 190, f"group recovery in only {hits}/200 seeds"
        assert elapsed < 60.0


def test_criterion_08_rebase_mechanics():
    with criterion(8, "two-step rebase round trip at 1e-12 relative; frame can change the tree"):
        rng = np.random.default_rng(88)
        quotes = np.exp(rng.standard_normal((50, 4)))
        panel = ct.TimeSeriesPanel(("EUR", "GBP", "JPY", "CHF"), tuple(range(50)), quotes)
        hop = ct.rebase(panel, "EUR", numeraire="USD")
        back = ct.rebase(hop, "USD", numeraire="EUR")
        assert set(back.assets) == set(panel.assets)
        for label in panel.assets:
            a = panel.values[:, panel.asset_index(label)]
            b = back.values[:, back.asset_index(label)]
            assert np.max(np.abs(b / a - 1.0)) <= 1e-12

        # demonstration (not a universal claim): one fixed panel whose
        # tree depends on the quoting frame
        names = ("AUD", "CAD", "CHF", "EUR", "GBP", "JPY")
        steps = np.random.default_rng(0).standard_normal((120, 6)) * 0.01
        steps[:, 2] = 0.7 * steps[:, 3] + 0.3 * steps[:, 2]
        fx = ct.TimeSeriesPanel(names, tuple(range(120)), np.exp(np.cumsum(steps, axis=0)))

        def tree_under(base):
            frame = ct.rebase(fx, base, numeraire="USD")
            return ct.build_mst(ct.to_distance(ct.pearson_matrix(ct.log_returns(frame)))).edge_set()

        assert tree_under("EUR") != tree_under("JPY")


def _run_cli(args, cwd, threads):
    proc = subprocess.run(
        [sys.executable, "-m", "corrtree", *args],
        cwd=cwd,
        env=child_env(threads),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _tree_bytes(root):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_criterion_09_byte_determinism(tmp_path):
    with criterion(9, "byte-identical artifacts across runs and thread counts"):
        synth = [
            "synth", "--groups", "3x10", "--loading", "0.8", "--noise", "0.6",
            "--length", "400", "--seed", "97", "--out", "panel.csv",
        ]
        digests = []
        stdouts = []
        for tag, threads in (("a", 1), ("b", 1), ("c", 4)):
            workdir = tmp_path / tag
            workdir.mkdir()
            _run_cli(synth, workdir, threads)
            stdout = _run_cli(
                [
                    "run", "panel.csv", "--signal", "raw", "--outdir", "arts",
                    "--width", "100", "--step", "100",
                ],
                workdir,
                threads,
            )
            stdouts.append(stdout)
            digest = _tree_bytes(workdir / "arts")
            digest["panel.csv"] = hashlib.sha256((workdir / "panel.csv").read_bytes()).hexdigest()
            digests.append(digest)
        assert digests[0] == digests[1], "same thread count, different bytes"
        assert digests[0] == digests[2], "thread count changed the bytes"
        assert stdouts[0] == stdouts[1] == stdouts[2]
        assert "mst.dot" in digests[0] and "windows/survival.csv" in digests[0]


def test_missing_data_bytes_independent_of_thread_count(tmp_path):
    # NA cells send every correlation down the pairwise-complete path; at
    # n = 100, T = 600 a BLAS Gram (OpenBLAS 0.3.31) writes different bytes
    # at 1 and 4 threads
    rng = np.random.default_rng(41)
    factors = np.repeat(rng.standard_normal((600, 4)), 25, axis=1)
    y = 0.8 * factors + 0.6 * rng.standard_normal((600, 100))
    y[rng.random(y.shape) < 0.01] = np.nan
    digests = []
    stdouts = []
    for threads in (1, 4):
        workdir = tmp_path / f"threads{threads}"
        workdir.mkdir()
        ct.dump_panel(panel(y), workdir / "panel.csv")
        stdouts.append(
            _run_cli(["run", "panel.csv", "--signal", "raw", "--outdir", "arts"], workdir, threads)
        )
        digests.append(_tree_bytes(workdir / "arts"))
    assert digests[0] == digests[1], "thread count changed the bytes"
    assert stdouts[0] == stdouts[1]
    assert "corr.csv" in digests[0] and "dendrogram.nwk" in digests[0]


def test_criterion_10_performance():
    with criterion(10, "n=500, T=2500: correlation + distance + tree in < 10 s"):
        rng = np.random.default_rng(1000)
        y = returns(rng.standard_normal((2500, 500)))
        start = time.perf_counter()
        tree = ct.build_mst(ct.to_distance(ct.pearson_matrix(y)))
        elapsed = time.perf_counter() - start
        assert tree.n_assets == 500
        assert len(tree.edges) == 499
        assert elapsed < 10.0, f"pipeline took {elapsed:.2f} s"
