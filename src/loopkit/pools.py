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
from .tables import cyclic, reduced_latin_squares, small_groups
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


_RANDOM_SHAPES = [  # (A, F) by their small_groups tags
    ("Z2", "Z4"),
    ("Z2", "K4"),
    ("Z2", "Z5"),
    ("Z2", "Z6"),
    ("Z2", "Z7"),
    ("Z2", "Z8"),
    ("Z3", "Z3"),
    ("Z3", "Z4"),
    ("Z3", "K4"),
    ("Z3", "Z5"),
    ("Z4", "Z2"),
    ("Z4", "Z3"),
    ("Z4", "Z4"),
    ("K4", "Z2"),
    ("K4", "Z3"),
    ("K4", "K4"),
    ("Z5", "Z2"),
    ("Z5", "Z3"),
    ("Z6", "Z2"),
    ("Z7", "Z2"),
    ("Z8", "Z2"),
    ("Z2^3", "Z2"),
]

_CENTRAL_SHAPES = [
    ("Z2", "Z2"),
    ("Z2", "Z3"),
    ("Z2", "Z4"),
    ("Z2", "K4"),
    ("Z2", "Z5"),
    ("Z2", "Z6"),
    ("Z2", "Z8"),
    ("Z3", "Z3"),
    ("Z3", "Z4"),
    ("Z4", "Z4"),
    ("K4", "Z4"),
    ("Z4", "Z6"),
    ("Z3", "Z8"),
    ("K4", "Z8"),
]


def _draws(shapes, count: int, master_seed: int, central: bool):
    """(tag, cocycle) for count seeded draws, one per shape in turn, each
    from the next seed of SplitMix64(master_seed).  A shape's tables are
    built once, so its draws share them and their memoized automorphisms."""
    groups = small_groups()
    built = [(f"{a}by{f}", AbelianGroupTable(groups[a]), groups[f]) for a, f in shapes]
    seeds = SplitMix64(master_seed)
    for i in range(count):
        tag, A, F = built[i % len(built)]
        stream = iter_cocycles_random(A, F, seed=seeds.next_u64(), budget=1, central=central)
        yield f"{tag}#{i}", next(stream)


def random_extension_pool(count: int = 200, master_seed: int = POOL_MASTER_SEED):
    """Seeded random abelian extensions of orders 8..16."""
    draws = _draws(_RANDOM_SHAPES, count, master_seed, central=False)
    return [PoolEntry(tag, build_extension(gamma), gamma) for tag, gamma in draws]


def central_cocycle_pool(count: int = 100, master_seed: int = POOL_MASTER_SEED ^ 0xC0C):
    """Seeded random central cocycles over assorted (A, F), |F| <= 8."""
    draws = _draws(_CENTRAL_SHAPES, count, master_seed, central=True)
    return [(f"central-{tag}", gamma) for tag, gamma in draws]
