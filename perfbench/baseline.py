"""Measure a baseline: several seeded runs per workload and one traced run.

    python3 perfbench/baseline.py [-o FILE]

Runs ``run.py`` once per seed (1..RUNS) on every workload of
BENCHMARK.json, for its ``run_seconds``, then once traced on seed 1, and
prints (or writes to FILE) a JSON record: for each end-to-end metric the
median, the quartiles and their distance as a share of the median; the
traced run's per-layer numbers; and the runs' answer checks.  Run it from
the repository root with nothing else running.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
#: seeded runs per workload: the count the benchmark's spread is judged on
RUNS = 10


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["failed_ops"] = [line.split(": ")[1] for line in lines
                            if line.startswith("  failed: ")]
    return result


def summarize(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "runs": len(values),
                     "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None, "values": values}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("-o", "--output", default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]

    import numpy
    import scipy
    import networkx

    record = {"machine": {
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__ + " (HiGHS)",
        "networkx": networkx.__version__}, "workloads": {}}
    for w in bench["workloads"]:
        workload, results = w["name"], []
        for seed in range(1, RUNS + 1):
            results.append(one_run(workload, seed, seconds, 0))
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in results[-1]["metrics"].items()},
                  file=sys.stderr, flush=True)
        traced = one_run(workload, 1, seconds, 1)
        record["workloads"][workload] = {
            "why": w["why"], "run_seconds": seconds,
            "end_to_end": summarize(results),
            "checks": {"all_correct": all(r["correct"] for r in results),
                       "attempted": sum(r["attempted"] for r in results),
                       "failed": sum(r["failed"] for r in results),
                       "runs_in_which_each_op_failed": {
                           op: sum(op in r["failed_ops"] for r in results)
                           for op in sorted({o for r in results for o in r["failed_ops"]})}},
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    text = json.dumps(record, indent=1)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
