"""Record the benchmark baseline of the current checkout.

    python3 perfbench/baseline.py --seed 0 --repeats 5

Runs every workload --repeats times at the seed (each a separate run.py
process) and once traced, and writes perfbench/baseline.json: per
workload the median and quartiles of each end-to-end metric, the
per-layer metrics of the traced run, and the git revision, machine and
Python and numpy versions they were measured with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, WORKLOADS


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record the benchmark baseline")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    import numpy

    out = {
        "git_rev": _git_rev(),
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "repeats": args.repeats,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [_run(workload, args.seed, 0) for _ in range(args.repeats)]
        summary = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "unit": first["unit"]}
        traced = _run(workload, args.seed, 1)
        out["workloads"][workload] = {
            "attempted": runs[0]["attempted"],
            "failed": runs[0]["failed"],
            "end_to_end": summary,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        print(f"{workload}: done", file=sys.stderr)
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
