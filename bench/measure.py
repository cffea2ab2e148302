"""Closed-loop passes over the real CLI, run in-process, and their metrics.

One client runs the six commands of a pass back to back through
``bwgeom.cli.main(argv)`` with stdout captured; each command starts only
after the previous one has returned.  Every output is checked after the
pass, outside the timed region.
"""

from __future__ import annotations

import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import bwgeom.cli as cli
from checks import Checker
from family import write_family
from spans import CALLS, Tracer

COMMANDS = ("mean", "mean_gpa", "pca", "multicouple", "distance", "geodesic")
DESCENT_COMMANDS = ("mean", "pca", "multicouple")
# Fresh interpreters started per run to time the import of bwgeom.cli.
SETUP_RUNS = 15
# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10

# The speed of a shared host moves by up to 1.8x, in phases that last from
# under a second to minutes (see bench/README.md, Steadiness).  A fixed slice
# of work like the program's own, timed right before and right after each
# command, measures the speed around it; every reported time is the measured
# one times CALIBRATION_S over the mean of the two slices, that is, seconds at
# the speed where a slice takes CALIBRATION_S.
CALIBRATION_S = 0.020
_cal = np.random.default_rng(0)
_CAL_TABLE = _cal.standard_normal((20, 20))
_CAL_SMALL = [_cal.standard_normal((12, 12)) for _ in range(10)]
_CAL_LARGE = [_cal.standard_normal((80, 80)) for _ in range(3)]
_CAL_SMALL, _CAL_LARGE = ([a @ a.T for a in group] for group in (_CAL_SMALL, _CAL_LARGE))


def calibrate() -> float:
    """Wall time of a fixed slice of Python and LAPACK work.

    Float formatting, small ``eigh`` calls and Python arithmetic, where
    interpreter overhead dominates, and ``eigh`` of 80x80 matrices, where
    LAPACK does, in about equal parts.
    """
    start = perf_counter()
    for _ in range(15):
        "\n".join(",".join(repr(float(x)) for x in row) for row in _CAL_TABLE)
        for a in _CAL_SMALL:
            np.linalg.eigh(a)
        total = 0.0
        for i in range(2000):
            total += i * 0.5
    for _ in range(5):
        for a in _CAL_LARGE:
            np.linalg.eigh(a)
    return perf_counter() - start


def scaled(seconds: list[float], slices: list[float]) -> list[float]:
    """Each time scaled by the slices timed just before and just after it."""
    return [t * 2.0 * CALIBRATION_S / (before + after) for t, before, after in zip(seconds, slices, slices[1:])]


@dataclass(frozen=True)
class Outcome:
    seconds: float
    code: int | None
    stdout: str
    error: str


def run_command(argv: list[str]) -> Outcome:
    """Time ``main(argv)`` from the call until it returns."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as e:
            error = repr(e)
        seconds = perf_counter() - start
    return Outcome(seconds, code, out.getvalue(), error or err.getvalue())


class Bench:
    """Generated families, their output directories and the failure tally.

    Every output is compared with the first output of the same command on
    the same family.
    """

    def __init__(self, workdir: str, dim: int, count: int, seed: int, families: int):
        self.families = [
            write_family(os.path.join(workdir, f"input{k}"), dim, count, seed, k) for k in range(families)
        ]
        self.checkers = [Checker(fam) for fam in self.families]
        self.outdirs = {c: os.path.join(workdir, "out", c) for c in COMMANDS}
        self.first_stdout: dict[tuple[int, str], str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def argv(self, cmd: str, k: int) -> list[str]:
        fam, out = self.families[k], self.outdirs[cmd]
        m1, m2 = fam.member_files[:2]
        return {
            "mean": ["mean", fam.manifest, "--output", out],
            "mean_gpa": ["mean", fam.manifest, "--algorithm", "gpa", "--output", out],
            "pca": ["pca", fam.manifest, "--output", out],
            "multicouple": ["multicouple", fam.manifest, "--output", out],
            "distance": ["distance", m1, m2],
            "geodesic": ["geodesic", m1, m2, "--steps", "11"],
        }[cmd]

    def run_pass(self, k: int, tracer: Tracer | None = None) -> tuple[dict[str, float], dict[str, float]]:
        """Scaled and measured time of each command of one pass on family ``k``.

        A calibration slice runs before the first command and after each
        command.  The checks run after the pass, outside the timed region.
        Outputs are not kept, so that the benchmark's own memory stays out of
        ``peak_rss_mb``.
        """
        outcomes = {}
        # Garbage left by the previous pass's checks is collected untimed.
        gc.collect()
        slices = [calibrate()]
        for cmd in COMMANDS:
            if tracer is None:
                outcomes[cmd] = run_command(self.argv(cmd, k))
            else:
                tracer.install()
                try:
                    with tracer.command(cmd):
                        outcomes[cmd] = run_command(self.argv(cmd, k))
                finally:
                    tracer.uninstall()
            slices.append(calibrate())
        for cmd, o in outcomes.items():
            self._check(k, cmd, o)
        measured = {cmd: o.seconds for cmd, o in outcomes.items()}
        return dict(zip(COMMANDS, scaled(list(measured.values()), slices))), measured

    def _check(self, k: int, cmd: str, o: Outcome) -> None:
        first = (k, cmd) not in self.first_stdout
        if o.code != 0:
            problems = [f"{cmd}: exit code {o.code}: {o.error.strip()}"]
        else:
            # The joint file is large; its blocks are compared on one pass per run.
            joint = first and k == 0
            problems = self.checkers[k].check(cmd, o.stdout, self.outdirs[cmd], joint=joint)
            if first:
                self.first_stdout[k, cmd] = o.stdout
            elif o.stdout != self.first_stdout[k, cmd]:
                problems.append(f"{cmd}: stdout differs from the first pass on family {k}")
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(problems[: max(0, 5 - len(self.problems))])


def setup_seconds(src: str) -> list[float]:
    """Scaled wall times of fresh interpreters that import bwgeom.cli."""
    env = dict(os.environ, PYTHONPATH=src)
    times, slices = [], [calibrate()]
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import bwgeom.cli"], env=env, check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
        slices.append(calibrate())
    return scaled(times, slices)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it.

    Below 20 samples that percentile would fall under the median and move
    with the sample count, so the median is reported instead (percentile 50).
    """
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return 50.0, statistics.median(samples)
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


def loop(bench: Bench, seconds: float, traced: bool):
    """Warm-up pass, then passes until the next would end past ``seconds``.

    Untraced passes rotate over the families.  A traced run keeps to the
    first family, so that its counts repeat exactly for a seed, and
    alternates untraced and traced passes so that both see the same host
    conditions.
    """
    bench.run_pass(0)
    plain, tracers = [], []
    start = perf_counter()
    while True:
        k = 0 if traced else (len(plain) + 1) % len(bench.families)
        plain.append(bench.run_pass(k))
        if traced:
            tracer = Tracer()
            tracers.append((bench.run_pass(0, tracer), tracer))
        elapsed = perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, tracers


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(bench: Bench, seconds: float, src: str) -> tuple[dict, dict]:
    setup = setup_seconds(src)
    plain, _ = loop(bench, seconds, traced=False)
    walls = [sum(t.values()) for t, _ in plain]
    percentile, tail_value = tail(walls)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "pass_s": _metric(statistics.median(walls), "s"),
        "pass_tail_s": _metric(tail_value, "s"),
    }
    for cmd in COMMANDS:
        metrics[f"cmd.{cmd}_s"] = _metric(statistics.median(t[cmd] for t, _ in plain), "s")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = _metric(peak_kib / 1024.0, "MB")
    detail = {
        "passes": len(walls),
        "pass_tail": {"percentile": percentile, "samples": len(walls)},
        "pass_samples_s": walls,
        "measured_pass_s": statistics.median(sum(m.values()) for _, m in plain),
        "setup_samples_s": setup,
    }
    return metrics, detail


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    plain, traced = loop(bench, seconds, traced=True)
    tables = [t.table() for _, t in traced]

    def total(table, name, column):
        return sum(row[column] for (cmd, n), row in table.items() if n == name)

    def median_of(fn):
        return statistics.median(fn(i) for i in range(len(traced)))

    metrics = {}
    for name in CALLS + [f"cli.{c}" for c in COMMANDS]:
        for column, suffix, unit in ((0, "calls", "count"), (1, "busy_s", "s"), (2, "self_s", "s")):
            metrics[f"{name}.{suffix}"] = _metric(median_of(lambda i: total(tables[i], name, column)), unit)
    for counter in ("io.bytes_written", "io.floats_read", "io.report_bytes"):
        metrics[counter] = _metric(median_of(lambda i: traced[i][1].counters[counter]), "count")
    for name in ("spectral.sym_eigen", "bures.optimal_map"):
        ratios = lambda i: traced[i][1].distinct(name) / max(1, total(tables[i], name, 0))
        metrics[f"{name}.distinct_ratio"] = _metric(median_of(ratios), "ratio")

    reports = {cmd: json.loads(bench.first_stdout[0, cmd]) for cmd in COMMANDS if (0, cmd) in bench.first_stdout}
    descent = [reports[c]["diagnostics"] for c in DESCENT_COMMANDS if c in reports]
    evaluated = sum(len(d["functional_trace"]) for d in descent)
    metrics["barycenter.descent.iterations"] = _metric(sum(d["iterations"] for d in descent), "count")
    metrics["barycenter.gpa.iterations"] = _metric(
        reports["mean_gpa"]["diagnostics"]["iterations"] if "mean_gpa" in reports else 0, "count"
    )
    metrics["barycenter.descent_iter_s"] = _metric(
        metrics["barycenter.mean_fixed_point.busy_s"]["value"] / max(1, evaluated), "s"
    )
    plain_pass = statistics.median(sum(t.values()) for t, _ in plain)
    traced_pass = statistics.median(sum(t.values()) for (t, _), _ in traced)
    metrics["trace.overhead_s"] = _metric(traced_pass - plain_pass, "s")

    by_command = {}
    for cmd in COMMANDS:
        names = {n for table in tables for (c, n) in table if c == cmd}
        by_command[cmd] = {
            n: [statistics.median(t.get((cmd, n), [0, 0.0, 0.0])[k] for t in tables) for k in range(3)]
            for n in sorted(names)
        }
    detail = {
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "untraced_pass_s": plain_pass,
        "traced_pass_s": traced_pass,
        "by_command": by_command,
        "distinct_by_command": {
            f"{cmd}/{n}": [len(s), tables[0][cmd, n][0]]
            for (cmd, n), s in sorted(traced[0][1].inputs.items())
        },
    }
    return metrics, detail


def machine_facts(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": blas_threads,
        "blas_threads_reported": _openblas_threads(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None
