"""Benchmark of the bwgeom CLI: three seeded workloads, one closed-loop client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli-d30-n40 --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  The line before it holds run details: machine facts,
sample counts and any failed checks.  The program is imported from ``src/``
of the checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")

# name -> (dimension, members, families).  Why each one is here is in
# BENCHMARK.json.  At d=5 the GPA iteration count depends on the family (4 or
# 5 iterations), so passes rotate over many families of the seed and the
# medians do not jump with the seed; at d=30 and d=100 every family takes the
# same iterations and one family keeps the untimed first pass to one.
WORKLOADS = {
    "cli-d5-n40": (5, 40, 16),
    "cli-d30-n40": (30, 40, 1),
    "cli-d100-n10": (100, 10, 1),
}
# OpenBLAS left to itself starts one thread per core; on a small shared host
# that adds contention the program does not cause.
BLAS_THREADS = 1


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bwgeom", "cli.py")):
        sys.stderr.write(f"error: no bwgeom sources under {SRC}\n")
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if hasattr(os, "sched_setaffinity"):
        # One core for the whole run, the interpreters of setup_s included, so
        # that the calibration slices time the core that does the work.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import measure  # imports numpy, so only after the thread count is pinned

    dim, count, families = WORKLOADS[args.workload]
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORKDIR, prefix=f"{args.workload}-")
    try:
        bench = measure.Bench(workdir, dim, count, args.seed, families)
        if args.trace:
            metrics, detail = measure.per_layer(bench, args.seconds)
        else:
            metrics, detail = measure.end_to_end(bench, args.seconds, SRC)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        machine=measure.machine_facts(BLAS_THREADS),
        failed_ratio=bench.failed / bench.attempted,
        problems=bench.problems,
    )
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
