"""Deterministic loop pools used by the verification suite and scripts.

The pool has two halves: every loop of order at most 6 reachable from
exhaustive small-cocycle extension spaces plus the standard group tables,
and a fixed count of seeded random abelian extensions of orders 8..16.
Entries carry a human-readable tag; extension entries keep their cocycle
so round-trip checks can reuse it.  The census is every loop of a small
order up to isomorphism, independent of the extension code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import LoopTable, fingerprint
from .extensions import (
    AbelianGroupTable,
    Cocycle,
    build_extension,
    iter_cocycles_exhaustive,
    iter_cocycles_random,
)
from .tables import cyclic, elementary_abelian, klein, reduced_latin_squares, small_groups
from .util import SplitMix64

POOL_MASTER_SEED = 0xA11CE


@dataclass(frozen=True)
class PoolEntry:
    tag: str
    table: LoopTable
    cocycle: Cocycle | None = None


def exhaustive_small_extensions() -> list[PoolEntry]:
    """All extensions over the full cocycle spaces with |A|*|F| <= 6."""
    out = []
    spaces = [
        ("Z2byZ2", cyclic(2), cyclic(2)),
        ("Z2byZ3", cyclic(2), cyclic(3)),
        ("Z3byZ2", cyclic(3), cyclic(2)),
    ]
    for tag, a_table, f_table in spaces:
        A = AbelianGroupTable(a_table)
        for i, gamma in enumerate(iter_cocycles_exhaustive(A, f_table)):
            out.append(PoolEntry(f"{tag}#{i}", build_extension(gamma), gamma))
    return out


def census(n: int) -> list[LoopTable]:
    """One loop of order n per isomorphism class, in fingerprint order:
    of each fingerprint, the first square of reduced_latin_squares(n)
    (a loop with neutral 0).  There are 1, 1, 1, 2, 6, 109 classes for
    n = 1..6 (OEIS A057771)."""
    first = {}
    for square in reduced_latin_squares(n):
        Q = LoopTable(square)
        first.setdefault(fingerprint(Q), Q)
    return [first[fp] for fp in sorted(first)]


def group_pool() -> list[PoolEntry]:
    return [PoolEntry(name, table) for name, table in sorted(small_groups().items())]


_RANDOM_SHAPES = [
    ("Z2", lambda: cyclic(2), "Z4", lambda: cyclic(4)),
    ("Z2", lambda: cyclic(2), "K4", klein),
    ("Z2", lambda: cyclic(2), "Z5", lambda: cyclic(5)),
    ("Z2", lambda: cyclic(2), "Z6", lambda: cyclic(6)),
    ("Z2", lambda: cyclic(2), "Z7", lambda: cyclic(7)),
    ("Z2", lambda: cyclic(2), "Z8", lambda: cyclic(8)),
    ("Z3", lambda: cyclic(3), "Z3", lambda: cyclic(3)),
    ("Z3", lambda: cyclic(3), "Z4", lambda: cyclic(4)),
    ("Z3", lambda: cyclic(3), "K4", klein),
    ("Z3", lambda: cyclic(3), "Z5", lambda: cyclic(5)),
    ("Z4", lambda: cyclic(4), "Z2", lambda: cyclic(2)),
    ("Z4", lambda: cyclic(4), "Z3", lambda: cyclic(3)),
    ("Z4", lambda: cyclic(4), "Z4", lambda: cyclic(4)),
    ("K4", klein, "Z2", lambda: cyclic(2)),
    ("K4", klein, "Z3", lambda: cyclic(3)),
    ("K4", klein, "K4", klein),
    ("Z5", lambda: cyclic(5), "Z2", lambda: cyclic(2)),
    ("Z5", lambda: cyclic(5), "Z3", lambda: cyclic(3)),
    ("Z6", lambda: cyclic(6), "Z2", lambda: cyclic(2)),
    ("Z7", lambda: cyclic(7), "Z2", lambda: cyclic(2)),
    ("Z8", lambda: cyclic(8), "Z2", lambda: cyclic(2)),
    ("Z2^3", lambda: elementary_abelian(2, 3), "Z2", lambda: cyclic(2)),
]


def _build_shapes(shapes):
    """(tag, A, F) per shape, built once so that every entry of a shape
    shares its tables and their memoized automorphisms."""
    return [
        (f"{a_tag}by{f_tag}", AbelianGroupTable(a_fn()), f_fn())
        for a_tag, a_fn, f_tag, f_fn in shapes
    ]


def random_extension_pool(count: int = 200, master_seed: int = POOL_MASTER_SEED):
    """Seeded random abelian extensions of orders 8..16."""
    shapes = _build_shapes(_RANDOM_SHAPES)
    out = []
    seeds = SplitMix64(master_seed)
    while len(out) < count:
        tag, A, F = shapes[len(out) % len(shapes)]
        gamma = next(iter(iter_cocycles_random(A, F, seed=seeds.next_u64(), budget=1)))
        out.append(PoolEntry(f"{tag}#{len(out)}", build_extension(gamma), gamma))
    return out


_CENTRAL_SHAPES = [
    ("Z2", lambda: cyclic(2), "Z2", lambda: cyclic(2)),
    ("Z2", lambda: cyclic(2), "Z3", lambda: cyclic(3)),
    ("Z2", lambda: cyclic(2), "Z4", lambda: cyclic(4)),
    ("Z2", lambda: cyclic(2), "K4", klein),
    ("Z2", lambda: cyclic(2), "Z5", lambda: cyclic(5)),
    ("Z2", lambda: cyclic(2), "Z6", lambda: cyclic(6)),
    ("Z2", lambda: cyclic(2), "Z8", lambda: cyclic(8)),
    ("Z3", lambda: cyclic(3), "Z3", lambda: cyclic(3)),
    ("Z3", lambda: cyclic(3), "Z4", lambda: cyclic(4)),
    ("Z4", lambda: cyclic(4), "Z4", lambda: cyclic(4)),
    ("K4", klein, "Z4", lambda: cyclic(4)),
    ("Z4", lambda: cyclic(4), "Z6", lambda: cyclic(6)),
    ("Z3", lambda: cyclic(3), "Z8", lambda: cyclic(8)),
    ("K4", klein, "Z8", lambda: cyclic(8)),
]


def central_cocycle_pool(count: int = 100, master_seed: int = POOL_MASTER_SEED ^ 0xC0C):
    """Seeded random central cocycles over assorted (A, F), |F| <= 8."""
    shapes = _build_shapes(_CENTRAL_SHAPES)
    out = []
    seeds = SplitMix64(master_seed)
    while len(out) < count:
        tag, A, F = shapes[len(out) % len(shapes)]
        gamma = next(
            iter(iter_cocycles_random(A, F, seed=seeds.next_u64(), budget=1, central=True))
        )
        out.append((f"central-{tag}#{len(out)}", gamma))
    return out
