"""The workload process: set up one workload, run its op phase, check it.

Started by run.py in a fresh interpreter for every run (loopkit's
module-level caches would otherwise carry results from one run into the
next), with PYTHONPATH pointing at the checkout's `src` and BLAS thread
counts pinned to 1.  Prints one JSON object on its last stdout line.  The set-up time runs
from the launcher's spawn to the first op, scaled to the reference speed
of speed.py by probes at the start of this process and at the end of
set-up.

Modes:
  setup   set up, report the set-up time, exit;
  run     set up, run the timed op phase, report end-to-end metrics;
  trace   run half as many ops untraced, then the same ops traced, and
          report the per-layer metrics and the tracing overhead;
  record  run every op of a corpus sized for --max-ops ops, untimed, and
          print what the checks compare against (see record.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# An op phase that runs this long stops after its current op, so that a
# run ends within the launcher's time limit even on a much slower program.
TIME_CAP_S = 120.0

# Per-layer metrics: name -> (unit, span name whose inclusive time it is).
# Metrics without a span come from counters.
PER_LAYER = {
    "perm.chain_s": ("s", "perm.group_order"),
    "perm.derived_series_s": ("s", "perm.derived_series"),
    "perm.lower_central_s": ("s", "perm.lower_central_series"),
    "perm.generators_in": ("count", None),
    "perm.series_steps": ("count", None),
    "multgrp.assoc_group_s": ("s", "multgrp.assoc_group"),
    "multgrp.generators": ("count", None),
    "structure.normal_enum_s": ("s", "structure.all_normal_subloops"),
    "structure.normal_subloops": ("count", None),
    "structure.center_s": ("s", "structure.center_subloop"),
    "commutator.commutator_s": ("s", "commutator.commutator_subloop"),
    "commutator.commutator_calls": ("count", None),
    "commutator.congruence_series_s": ("s", "commutator.congruence_derived_series"),
    "commutator.classical_series_s": ("s", "commutator.classical_derived_series"),
    "commutator.upper_central_s": ("s", "commutator.upper_central_series"),
    "commutator.a3_s": ("s", "commutator.is_abelian_in_A3"),
    "commutator.central_identities_s": ("s", "commutator.is_central_in"),
    "extensions.draw_s": ("s", "extensions.iter_cocycles_random"),
    "extensions.build_s": ("s", "extensions.build_extension"),
    "extensions.hit_share": ("ratio", None),
    "extensions.extract_s": ("s", "extensions.extract_cocycle"),
    "core.fingerprint_s": ("s", "core.fingerprint"),
    "core.fingerprint_cap_hits": ("count", None),
    "core.parse_s": ("s", "core.parse_table"),
    "catalog.append_s": ("s", "catalog.append_record"),
    "catalog.query_s": ("s", "catalog.query"),
    "catalog.records": ("count", None),
    "catalog.added_share": ("ratio", None),
    "cli.self_s": ("s", None),
    "trace.overhead_share": ("ratio", None),
    "trace.ops": ("count", None),
}


def _share(part, whole):
    return part / whole if whole else 0.0


def per_layer(tracer, untraced, traced) -> dict:
    """Span times in reference seconds, scaled by the traced phase's meter."""
    inclusive, self_time = tracer.totals(lambda s, e: traced.meter.measure(s, e)[1])
    counts = tracer.counts
    derived = {
        "extensions.hit_share": _share(counts["extensions.hits"], counts["extensions.candidates"]),
        "catalog.records": counts["catalog.added"],
        "catalog.added_share": _share(counts["catalog.added"], counts["catalog.adds"]),
        "cli.self_s": sum(v for k, v in self_time.items() if k.startswith("cli.")),
        "trace.overhead_share": traced.scaled_s / untraced.scaled_s - 1.0,
        "trace.ops": len(traced.results),
    }
    out = {}
    for name, (unit, span) in PER_LAYER.items():
        if span is not None:
            value = inclusive.get(span, 0.0)
        else:
            value = derived.get(name, counts.get(name, 0))
        out[name] = {"value": value, "unit": unit}
    return out


def load_expected(workload, seed):
    """What record.py stored for this workload: under "any" when it does
    not depend on the seed, else under the seed (None if not recorded)."""
    path = os.path.join(HERE, "expected", f"{workload}.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        return None
    return recorded.get("any", recorded.get(str(seed)))


def _same(a, b):
    """Traced and untraced results of one op agree (an op that hit its
    deadline in only one pass is not compared)."""
    if a.ok != b.ok:
        return "deadline" in (a.error, b.error)
    return not a.ok or a.output == b.output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "record"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the launcher just before it started this process")
    parser.add_argument("--max-ops", type=int, default=None)
    args = parser.parse_args(argv)

    import speed

    # Set-up runs from the launcher's spawn to the first op.  The part
    # before the first probe is scaled by that probe alone.
    spawned_s = time.monotonic() - args.spawned_at
    meter = speed.Meter()
    first_probe, started = meter.last, time.perf_counter()
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        with meter.sampling():
            import harness
            from spans import Tracer
            from workloads import WORKLOAD_CLASSES, forget_program_state, ops_for

            n_ops = args.max_ops or ops_for(args.workload, args.seconds)
            workload = WORKLOAD_CLASSES[args.workload](args.seed, workdir, n_ops)
            end = time.perf_counter()
            meter.mark()
        setup_s = spawned_s * speed.scale(first_probe, first_probe) + meter.measure(started, end)[1]
        if args.mode == "setup":
            result = {"setup_s": setup_s}
        elif args.mode == "record":
            phase = harness.run_phase(workload.ops())
            result = {"record": workload.record(phase.results)}
        elif args.mode == "run":
            phase = harness.run_phase(workload.ops(), seconds=TIME_CAP_S,
                                     sensitivity=workload.host_sensitivity)
            rss = harness.peak_rss_mb()
            problems = workload.check(phase.results, load_expected(args.workload, args.seed))
            result = {
                "problems": problems,
                "attempted": len(phase.results),
                "failed": len(phase.failed),
                "tail": harness.describe_tail(phase),
                "failures": sorted({f"{r.label}: {r.error}" for r in phase.failed})[:8],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                            harness.end_to_end(phase, setup_s, rss).items()},
            }
        else:
            untraced = harness.run_phase(workload.ops(), max_ops=(n_ops + 1) // 2,
                                         sensitivity=workload.host_sensitivity,
                                         seconds=TIME_CAP_S / 2)
            forget_program_state()
            tracer = Tracer()
            traced = harness.run_phase(workload.ops(tracer), max_ops=len(untraced.results),
                                       sensitivity=workload.host_sensitivity)
            expected = load_expected(args.workload, args.seed)
            problems = workload.check(untraced.results, expected)
            problems += workload.check(traced.results, expected)
            problems += [f"{a.label}: traced output differs from untraced"
                         for a, b in zip(untraced.results, traced.results) if not _same(a, b)]
            spans = os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.jsonl")
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            tracer.write(spans)
            result = {
                "problems": problems,
                "attempted": len(traced.results),
                "failed": len(traced.failed),
                "spans": os.path.relpath(spans),
                "metrics": per_layer(tracer, untraced, traced),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
