#!/usr/bin/env python3
"""Classify every loop reachable from the small exhaustive cocycle spaces.

Builds all extensions with |A| * |F| <= 6, dedupes them up to isomorphism
by canonical fingerprint, and prints one classification row per type.

Usage: python3 scripts/classify_small_loops.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from loopkit import fingerprint, hierarchy_report
from loopkit.pools import exhaustive_small_extensions, group_pool
from loopkit.util import format_value


def main():
    seen = {}
    for entry in group_pool() + exhaustive_small_extensions():
        if entry.table.order > 6:
            continue
        fp = fingerprint(entry.table)
        seen.setdefault(fp, (entry.tag, entry.table))
    print(f"{len(seen)} isomorphism types of order <= 6 in the pool\n")
    header = ("fingerprint", "order", "assoc", "comm", "nilp", "cong", "class", "super")
    print("  ".join(f"{h:>12}" for h in header))
    rows = []
    for fp, (tag, table) in seen.items():
        rep = hierarchy_report(table)
        rows.append(
            (
                f"{fp:012x}"[:12],
                rep.order,
                rep.associative,
                rep.commutative,
                format_value(rep.nilpotency_class),
                format_value(rep.congruence_solvability_class),
                format_value(rep.classical_solvability_class),
                rep.supernilpotent,
            )
        )
    for row in sorted(rows, key=lambda r: (r[1], r[0])):
        print("  ".join(f"{str(v):>12}" for v in row))


if __name__ == "__main__":
    main()
