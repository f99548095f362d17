#!/usr/bin/env python3
"""Benchmark of the corrtree command line on generated panels.

Run from the root of a corrtree checkout (corrtree need not be installed):

    python3 benchmark/run.py --workload wide-n1200 --seed 1 --seconds 38 --trace 0
    python3 benchmark/run.py --workload all --seconds 38      # every workload, both modes
    python3 benchmark/run.py --workload all --smoke --seconds 1

Each measured run is one ``python -m corrtree run ...`` child process,
started and reaped one at a time, after one discarded warm-up run. With
``--trace 0`` the benchmark reports the end-to-end metrics of those
untraced runs; with ``--trace 1`` it also runs the same command under
``tracer.py`` and reports per-layer spans. Every run's artifacts are
checked against a numpy-only reference and hashed; a run fails if it exits
non-zero, if an artifact fails a check, or if its digest differs from the
session's first valid run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the samples, digests and provenance. The parent imports no numpy and
allocates little, because a child's peak RSS as the kernel reports it is at
least the RSS of the process that spawned it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
MIN_RUNS = 3  # measured runs per session, even when --seconds is shorter
MIN_SETUP_PROBES = 5
HARD_LIMIT_S = 150  # one whole session: a much slower program still ends in time, with failed runs
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "success_rate": "ratio"}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in tracer.SPAN_NAMES:
        units |= {
            f"{name}.s": "s",
            f"{name}.self_s": "s",
            f"{name}.calls": "count",
            f"{name}.errors": "count",
            f"{name}.rss_delta_mb": "MB",
        }
    units |= {
        "panel.bytes_read": "bytes",
        "panel.cells": "count",
        "export.matrix_csv.bytes": "bytes",
        "dynamics.windows": "count",
        "cli.bytes_written": "bytes",
        "proc.start_s": "s",
        "proc.cpu_s": "s",
        "proc.wall_s": "s",
        "trace.unattributed_s": "s",
        "trace.overhead_s": "s",
    }
    return units


PER_LAYER_UNITS = _per_layer_units()


class BenchError(Exception):
    """The benchmark cannot measure: no program to run, or an input that is not the pinned one."""


@dataclass
class Run:
    wall_s: float
    peak_rss_mb: float
    problems: list[str]
    layers: dict[str, float] | None = None  # traced runs only

    @property
    def ok(self) -> bool:
        return not self.problems


def spawn(argv: list[str], env: dict[str, str], stdout: Path, stderr: Path, timeout: float):
    """Run one child to completion, or kill it after ``timeout`` seconds.

    Returns (spawn time, wall seconds, exit code, the child's own rusage).
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.monotonic()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        watchdog = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    return start, wall, os.waitstatus_to_exitcode(status), usage


def child_env(src: Path) -> dict[str, str]:
    """The children's environment: the checkout's sources first, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def _tail(path: Path) -> str:
    return path.read_text(errors="replace").strip()[-300:]


def layer_metrics(doc: dict, start: float, wall: float, usage) -> dict[str, float]:
    """Per-layer numbers of one traced run: span time, self time, calls, errors, RSS growth."""
    spans = doc["spans"]
    out: dict[str, float] = {name: 0 for name in PER_LAYER_UNITS}
    inner = [0.0] * len(spans)
    for s in spans:
        if s[tracer.PARENT] >= 0:
            inner[s[tracer.PARENT]] += s[tracer.END] - s[tracer.START]
    for s, covered in zip(spans, inner):
        name, duration = s[tracer.NAME], s[tracer.END] - s[tracer.START]
        out[f"{name}.s"] += duration
        out[f"{name}.self_s"] += duration - covered
        out[f"{name}.calls"] += 1
        out[f"{name}.errors"] += int(s[tracer.ERROR])
        out[f"{name}.rss_delta_mb"] += (s[tracer.RSS_AFTER_KB] - s[tracer.RSS_BEFORE_KB]) / 1024
    out.update(doc["counters"])
    main = next(s for s in spans if s[tracer.NAME] == "cli.main")
    out["proc.start_s"] = main[tracer.START] - start
    out["proc.cpu_s"] = usage.ru_utime + usage.ru_stime
    out["proc.wall_s"] = wall
    out["trace.unattributed_s"] = wall - out["proc.start_s"] - out["cli.main.s"]
    return out


class Session:
    """One workload's runs in one work directory, checked against one reference."""

    def __init__(self, w: Workload, work: Path, ref: dict, env: dict[str, str]) -> None:
        self.w = w
        self.work = work
        self.ref = ref
        self.env = env
        self.digest: str | None = None  # artifact digest of the session's first valid run
        self.count = 0
        self.hard_end = time.monotonic() + HARD_LIMIT_S

    def time_left(self) -> float:
        return max(1.0, self.hard_end - time.monotonic())

    def command(self, outdir: Path, spans: Path | None, run_id: int) -> list[str]:
        args = ["run", str(self.work / "panel.csv"), "--outdir", str(outdir), *self.w.cli_args()]
        if spans is None:
            return [sys.executable, "-m", "corrtree", *args]
        return [sys.executable, str(HERE / "tracer.py"), str(spans), str(run_id), "--", *args]

    def setup_probe(self) -> float:
        """Wall time of a fresh `python -m corrtree --help`: interpreter plus imports."""
        out, err = self.work / "setup.out", self.work / "setup.err"
        _, wall, code, _ = spawn([sys.executable, "-m", "corrtree", "--help"], self.env, out, err, self.time_left())
        if code != 0:
            raise BenchError(f"`corrtree --help` exited {code}: {_tail(err)}")
        return wall

    def run(self, traced: bool = False) -> Run:
        k = self.count
        self.count += 1
        outdir = self.work / f"out-{k}"
        stdout, stderr = self.work / f"stdout-{k}", self.work / f"stderr-{k}"
        spans = self.work / f"spans-{k}.json" if traced else None
        start, wall, code, usage = spawn(self.command(outdir, spans, k), self.env, stdout, stderr, self.time_left())
        run = Run(wall, usage.ru_maxrss / 1024, [])
        if code != 0:
            run.problems.append(f"exit code {code}: {_tail(stderr)}")
        else:
            run.problems += checks.run_problems(self.w, outdir, stdout.read_text(errors="replace"), self.ref)
            digest = checks.artifact_digest(outdir)
            if self.digest is None and run.ok:
                self.digest = digest
            elif digest != self.digest:
                what = "traced run's" if traced else "run's"
                run.problems.append(f"{what} artifact digest differs from the session's first valid run")
        if traced:
            self._trace(run, spans, outdir, start, usage)
        shutil.rmtree(outdir, ignore_errors=True)
        for path in (stdout, stderr, spans):
            if path is not None:
                path.unlink(missing_ok=True)
        return run

    def _trace(self, run: Run, spans: Path, outdir: Path, start: float, usage) -> None:
        try:
            doc = json.loads(spans.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            run.problems.append(f"no trace recorded: {exc!r}")
            return
        if doc["missing_hooks"]:
            run.problems.append(f"trace miss: references gone from the library: {doc['missing_hooks']}")
        run.layers = layer_metrics(doc, start, run.wall_s, usage)
        run.layers["cli.bytes_written"] = sum(p.stat().st_size for p in checks.artifact_files(outdir).values())
        silent = sorted(s for s in self.w.expected_spans if not run.layers[f"{s}.calls"])
        if silent:
            run.problems.append(f"trace miss: expected spans recorded no calls: {silent}")


def load_pins() -> dict:
    """SHA-256 of the pinned inputs: a smoke-size canary per workload and the first seeds of each."""
    return json.loads((HERE / "digests.json").read_text())


def prepare(w: Workload, seed: int, smoke: bool, work: Path, env: dict[str, str]) -> dict:
    """Generate the input panel and reference in a numpy child; check the pinned digests."""
    argv = [sys.executable, str(HERE / "prepare.py"), "--workload", w.name, "--seed", str(seed), "--out", str(work)]
    proc = subprocess.run(argv + ["--smoke"] * smoke, env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"input generation failed: {proc.stderr.strip()[-500:]}")
    ref = json.loads(proc.stdout)
    pins = load_pins()
    if ref["canary_sha256"] != pins["canary"][w.name]:
        raise BenchError(f"{w.name}: the input generator no longer reproduces the pinned canary panel")
    pinned = None if smoke else pins[w.name].get(str(seed))
    if pinned is not None and pinned != ref["input_sha256"]:
        raise BenchError(f"{w.name} seed {seed}: input SHA-256 {ref['input_sha256']} is not the pinned {pinned}")
    return ref


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def provenance(root: Path, ref: dict) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "corrtree").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    return {
        "git_commit": _git_commit(root),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": ref["numpy"],
        "blas": ref["blas"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
    }


def _summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "samples": values}


def measure(w: Workload, seed: int, seconds: float, trace: bool, smoke: bool, root: Path) -> tuple[dict, dict]:
    """One session of one workload: (result for the last line, details)."""
    src = root / "src"
    if not (src / "corrtree" / "__init__.py").is_file():
        raise BenchError(f"no corrtree sources under {src}; run from the root of a corrtree checkout")
    if smoke:
        w = w.smoke()
    work = root / ".bench_work" / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = child_env(src.resolve())
        ref = prepare(w, seed, smoke, work, env)
        session = Session(w, work, ref, env)
        runs = [session.run()]  # warm-up: page cache and .pyc files; checked, not timed
        measured: list[Run] = []
        traced: list[Run] = []
        setups: list[float] = []
        laps: list[float] = []
        deadline = time.monotonic() + seconds

        def another_lap() -> bool:
            end = time.monotonic() + (statistics.median(laps) if laps else 0.0)
            return end <= session.hard_end and (len(measured) < MIN_RUNS or end <= deadline)

        while not measured or another_lap():
            lap = time.monotonic()
            setups.append(session.setup_probe())
            measured.append(session.run())
            if trace:
                traced.append(session.run(traced=True))
            laps.append(time.monotonic() - lap)
        while len(setups) < MIN_SETUP_PROBES and time.monotonic() < session.hard_end:
            setups.append(session.setup_probe())
        runs += measured + traced
        details_extra = {"provenance": provenance(root, ref)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other session is using it

    failed = sum(not r.ok for r in runs)
    walls = [r.wall_s for r in measured]
    samples = {"wall_s": _summary(walls), "peak_rss_mb": _summary([r.peak_rss_mb for r in measured]),
               "setup_s": _summary(setups)}
    if trace:
        layer_runs = [r.layers for r in traced if r.layers is not None]
        metrics = {name: statistics.median(run[name] for run in layer_runs) if layer_runs else 0.0
                   for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced) - statistics.median(walls))
        units = PER_LAYER_UNITS
        samples["traced_wall_s"] = _summary([r.wall_s for r in traced])
    else:
        metrics = {
            "wall_s": samples["wall_s"]["median"],
            "peak_rss_mb": samples["peak_rss_mb"]["median"],
            "setup_s": samples["setup_s"]["median"],
            "success_rate": 1.0 - failed / len(runs),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "workload": w.name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "seconds": seconds,
        "error_rate": failed / len(runs),
        "problems": [p for r in runs for p in r.problems][:20],
        "input_sha256": ref["input_sha256"],
        "artifact_digest": session.digest,
        "samples": samples,
        "bench_parent_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **details_extra,
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the corrtree command line on generated panels.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0, help="measuring time of one session")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny panels of every workload's shape")
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if args.workload != "all":
            result, details = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                                      args.smoke, root)
            print(json.dumps(details))
            print(json.dumps(result))
            return 0
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in WORKLOADS.values():
            for trace in (False, True):
                result, details = measure(w, args.seed, args.seconds, trace, args.smoke, root)
                print(json.dumps(details))
                for name, m in result["metrics"].items():
                    print(f"{w.name:14} {name:42} {m['value']:>16.6g} {m['unit']}")
                    total["metrics"][f"{w.name}.{name}"] = m
                total["correct"] &= result["correct"]
                total["attempted"] += result["attempted"]
                total["failed"] += result["failed"]
        print(json.dumps(total))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
