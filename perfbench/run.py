"""loopkit benchmark: run one workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload analyze --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the root of a loopkit checkout.  Each workload runs in a fresh
process (see worker.py).  With --trace 0 the run is timed and prints the
end-to-end metrics; set-up is measured SETUP_REPEATS more times in
processes that only set up, and setup_s is the median.  Times are
scaled to the reference speed of speed.py, so that the host's changing
speed cancels out (see speed.py).  With --trace 1
the run prints the per-layer metrics of a traced pass instead.  Every
metric is printed as "name value unit"; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  A failed
correctness check exits 1 without printing metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("analyze", "hunt", "abelian-routes", "catalog-add")
SETUP_REPEATS = 4
# A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170


def run_worker(workload, seed, seconds, mode, *extra):
    """Run worker.py in a fresh process and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src"), HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--spawned-at", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace):
    if trace:
        return run_worker(workload, seed, seconds, "trace")
    setups = [run_worker(workload, seed, seconds, "setup")["setup_s"] for _ in range(SETUP_REPEATS)]
    result = run_worker(workload, seed, seconds, "run")
    setups.append(result["metrics"]["setup_s"]["value"])
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def _print_metrics(workload, result):
    for name, m in result["metrics"].items():
        extra = f"  ({result['tail']})" if name == "op_tail_ms" else ""
        print(f"{workload}\t{name}\t{m['value']:.6g}\t{m['unit']}{extra}")
    if "tail" in result:
        share = result["failed"] / result["attempted"]
        print(f"{workload}\tfailed_share\t{share:.6g}\tratio"
              f"  ({result['failed']} of {result['attempted']} ops)")
        for failure in result["failures"]:
            print(f"{workload}\tfailed op\t{failure}")
    if "spans" in result:
        print(f"{workload}\tspans written to {result['spans']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="loopkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "loopkit", "__init__.py")):
        sys.stderr.write("error: run from the root of a loopkit checkout (no src/loopkit here)\n")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = result = run_workload(name, args.seed, args.seconds, args.trace)
        if result["problems"]:
            for problem in result["problems"]:
                sys.stderr.write(f"{name}: check failed: {problem}\n")
            return 1
        _print_metrics(name, result)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": True,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
