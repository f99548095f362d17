"""Self-test of the benchmark: smoke runs of every workload, and injected faults.

    python3 benchmark/selftest.py        # from the root of a corrtree checkout; about a minute

Every workload shape runs at tiny size in both modes and must report exactly
the metrics BENCHMARK.json names. A non-zero exit, a corrupted artifact, a
changed but valid artifact and a bypassed trace wrapper must each be counted
as failed runs, and a changed input generator must stop the benchmark.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

import run as bench
from workloads import WORKLOADS, Workload

ROOT = Path.cwd()
SPEC = json.loads((bench.HERE.parent / "BENCHMARK.json").read_text())


def smoke(name: str, trace: bool = False) -> tuple[dict, dict]:
    return bench.measure(WORKLOADS[name], 0, 0.0, trace, True, ROOT)


def outdir_of(argv: list[str]) -> Path:
    return Path(argv[argv.index("--outdir") + 1])


def damage_second_run(damage):
    """A stand-in for ``spawn`` that applies ``damage`` to the artifacts of the first run after the warm-up."""
    real = bench.spawn
    runs = []

    def spawn(argv, *args):
        out = real(argv, *args)
        if "--outdir" in argv:
            runs.append(argv)
            if len(runs) == 2:
                damage(outdir_of(argv))
        return out

    return mock.patch.object(bench, "spawn", spawn)


class SmokeTest(unittest.TestCase):
    def test_spec_names_the_workloads(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))

    def test_every_workload_reports_every_metric(self):
        units = {
            False: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            True: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
        }
        for name in WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    result, details = smoke(name, trace)
                    self.assertEqual(details["problems"], [])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1 + bench.MIN_RUNS)
                    self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()}, units[trace])


class FaultTest(unittest.TestCase):
    def assert_failed(self, result: dict, details: dict, failed: int, message: str) -> None:
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], failed)
        self.assertAlmostEqual(details["error_rate"], failed / result["attempted"])
        self.assertIn(message, " ".join(details["problems"]))

    def test_nonzero_exit_is_counted(self):
        real = bench.Session.command

        def rejected(self, *args):
            return real(self, *args) + ["--width", "1"]  # below the CLI's minimum: exit 1

        with mock.patch.object(bench.Session, "command", rejected):
            result, details = smoke("missing-n150")
        self.assert_failed(result, details, result["attempted"], "exit code 1")
        self.assertEqual(result["metrics"]["success_rate"]["value"], 0.0)

    def test_corrupted_artifact_is_counted(self):
        def drop_an_edge(outdir: Path) -> None:
            path = outdir / "mst.graphml"
            text = path.read_text()
            start = text.index("    <edge ")
            path.write_text(text[:start] + text[text.index("</edge>\n", start) + len("</edge>\n"):])

        with damage_second_run(drop_an_edge):
            result, details = smoke("wide-n1200")
        self.assert_failed(result, details, 1, "mst.graphml")

    def test_changed_valid_artifact_is_counted(self):
        def swap_two_edges(outdir: Path) -> None:
            path = outdir / "mst.dot"
            lines = path.read_text().split("\n")
            first = next(k for k, line in enumerate(lines) if " -- " in line)
            lines[first], lines[first + 1] = lines[first + 1], lines[first]
            path.write_text("\n".join(lines))

        with damage_second_run(swap_two_edges):
            result, details = smoke("rolling-n300")
        self.assert_failed(result, details, 1, "digest differs")

    def test_span_without_calls_is_a_trace_miss(self):
        expected = WORKLOADS["missing-n150"].expected_spans | {"dynamics.rolling_trees"}
        with mock.patch.object(Workload, "expected_spans", new=expected):
            result, details = smoke("missing-n150", trace=True)
        self.assert_failed(result, details, result["attempted"] - 1 - bench.MIN_RUNS, "trace miss")

    def test_changed_generator_stops_the_benchmark(self):
        pins = json.loads((bench.HERE / "digests.json").read_text())
        pins["canary"]["wide-n1200"] = "0" * 64
        with mock.patch.object(bench, "load_pins", return_value=pins):
            with self.assertRaisesRegex(bench.BenchError, "canary"):
                smoke("wide-n1200")

    def test_refuses_to_run_without_the_program(self):
        empty = ROOT / ".bench_work" / f"selftest-empty-{os.getpid()}"
        empty.mkdir(parents=True, exist_ok=True)
        try:
            proc = subprocess.run(
                [sys.executable, str(bench.HERE / "run.py"), "--workload", "missing-n150", "--seconds", "1"],
                cwd=empty, capture_output=True, text=True, timeout=60,
            )
        finally:
            empty.rmdir()
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")
        self.assertIn("no corrtree sources", proc.stderr)


if __name__ == "__main__":
    unittest.main()
