"""Record what the benchmark's checks compare against.

    python3 perfbench/record.py --workload analyze --ops 64
    python3 perfbench/record.py --workload abelian-routes --ops 400
    python3 perfbench/record.py --workload hunt --seeds 0-15 --ops 600

Runs every op of the corpus a run of --ops ops would use, untimed, in a
fresh process per seed, and stores the outputs in
perfbench/expected/<workload>.json:

  analyze         each table's report digest, by table key, under "any"
                  (the seed only orders the tables);
  abelian-routes  each table's route verdicts, by table key, under "any";
  hunt            each candidate's verdict, under the seed.

Record only on a commit whose outputs are known to be right: a run whose
outputs differ from the recorded ones fails its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import HERE, run_worker

SEED_INVARIANT = {"analyze": True, "abelian-routes": True, "hunt": False}


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record expected workload outputs")
    parser.add_argument("--workload", required=True, choices=sorted(SEED_INVARIANT))
    parser.add_argument("--seeds", type=seeds_arg, default=[0], help="N or N-M")
    parser.add_argument("--ops", type=int, required=True)
    args = parser.parse_args(argv)

    fresh = {}
    for seed in args.seeds:
        result = run_worker(args.workload, seed, 0, "record", "--max-ops", str(args.ops))
        fresh["any" if SEED_INVARIANT[args.workload] else str(seed)] = result["record"]
        print(f"{args.workload} seed {seed}: recorded", file=sys.stderr)
    path = os.path.join(HERE, "expected", f"{args.workload}.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        recorded = {}
    recorded.update(fresh)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
