"""Run-to-run spread of the end-to-end metrics over ten seeds.

Usage, from the root of a checkout:

    python3 bench/steadiness.py --first-seed 1 --out spread.json

Runs ``bench/run.py`` once per seed (first-seed .. first-seed+9) on each
workload, one run at a time, for the ``run_seconds`` that ``BENCHMARK.json``
sets, and reports for every end-to-end metric its median and the distance
between the first and third quartile as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=None, help="write the summary here as JSON")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    summary = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, check=True, capture_output=True, text=True,
            )
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "metrics": {k: spread([r["metrics"][k]["value"] for r in runs]) for k in runs[0]["metrics"]},
        }
        for k, s in summary[workload]["metrics"].items():
            print(f"{workload} {k}: median {s['median']:.6g} spread {s['spread']:.3f}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
