#!/usr/bin/env python3
"""Locate the loops separating the solvability/nilpotence notions.

Runs the bounded searches end to end and prints one hierarchy report per
witness found:

  1. order 6, centrally nilpotent, not supernilpotent
     (exhaustive: the 16 central cocycles of Z2 by Z3)
  2. congruence solvable with non-solvable inner mapping group
     (random abelian extensions of Z2^3 by Z2)
  3. multiplication group solvable, classically solvable, yet NOT
     congruence solvable (order-8 block extensions with a normal Z4
     fiber; the fiber is not abelian in Q, so no cocycle presents it)
  4. the syntactic-condition optimality pair over Z4 block extensions

Usage: python3 scripts/find_counterexamples.py [seed]
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from loopkit import (
    AbelianGroupTable,
    Subloop,
    a3_subconditions,
    build_extension,
    g_oplus,
    hierarchy_report,
    is_supernilpotent,
    nilpotency_class_loop,
    supernilpotent_crosscheck,
)
from loopkit.cli import PRESETS
from loopkit.extensions import iter_cocycles_exhaustive, iter_cocycles_random
from loopkit.tables import cyclic, elementary_abelian, latin_squares


def show(title, table):
    print(f"== {title} (order {table.order})")
    print(hierarchy_report(table).to_lines())


def order6_nilpotent():
    for gamma in iter_cocycles_exhaustive(
        AbelianGroupTable(cyclic(2)), cyclic(3), central=True
    ):
        q = build_extension(gamma)
        if not q.is_associative and nilpotency_class_loop(q) == 2:
            assert not is_supernilpotent(q) and not supernilpotent_crosscheck(q)
            return q
    raise SystemExit("no order-6 witness (unexpected)")


def nonsolvable_inn(seed):
    stream = iter_cocycles_random(
        AbelianGroupTable(elementary_abelian(2, 3)), cyclic(2), seed=seed, budget=100_000
    )
    inn_nonsolvable = PRESETS["z2cubed-nonsolvable-inn"]["predicate"]
    for i, gamma in enumerate(stream):
        q = build_extension(gamma)
        if inn_nonsolvable(q):
            print(f"   (hit at candidate {i})")
            return q
    raise SystemExit("no non-solvable-Inn hit in budget (unexpected)")


def mlt_solvable_not_congruence_solvable():
    # the preset's test on the Z4 fiber 0..3: not abelian in Q, not
    # congruence solvable, classically solvable, Mlt solvable
    separates = PRESETS["z4-by-z2-nonabelian"]["predicate"]
    for oplus in latin_squares(4):
        q = g_oplus(cyclic(4), oplus)
        if separates(q):
            return q
    raise SystemExit("no block-extension witness (unexpected)")


def optimality_pair():
    not_i = not_vi = None
    for oplus in latin_squares(4):
        q = g_oplus(cyclic(4), oplus)
        sub = a3_subconditions(q, Subloop(q, (0, 1, 2, 3)))
        if not_i is None and not sub["i"] and all(
            sub[k] for k in ("ii", "iii", "iv", "v", "vi")
        ):
            not_i = q
        if not_vi is None and not sub["vi"] and all(
            sub[k] for k in ("i", "ii", "iii", "iv", "v")
        ):
            not_vi = q
        if not_i is not None and not_vi is not None:
            return not_i, not_vi
    raise SystemExit("optimality witnesses missing (unexpected)")


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    t0 = time.time()
    show("nilpotent, not supernilpotent", order6_nilpotent())
    show("congruence solvable, Inn not solvable", nonsolvable_inn(seed))
    show("Mlt solvable, not congruence solvable", mlt_solvable_not_congruence_solvable())
    not_i, not_vi = optimality_pair()
    show("fiber meets the identity conditions but not the restriction one", not_i)
    show("fiber meets restriction + four identities but not the pair condition", not_vi)
    print(f"total {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
