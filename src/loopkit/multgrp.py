"""Multiplication and inner mapping groups of a loop.

The inner generator families are the standard words

    T_x = R_x^-1 L_x          U_x = R_x^-1 M_x
    L_{x,y} = L_{xy}^-1 L_x L_y
    R_{x,y} = R_{yx}^-1 R_x R_y
    M_{x,y} = M_{y\\x}^-1 M_x M_y

and the groups are generated from these explicit word families over all
argument tuples: MLT by the translations L_x and R_x, INN by T, L and R.

Each table keeps one array per group, `word_rows`: the distinct maps of
its generating family.  `assoc_group` wraps it as a PermGroup; maps
indexed by their arguments come from `inner_maps`.  Inn(Q) is also Mlt_e
(Bruck, A Survey of Binary Systems, 1958), read off Mlt's chain
(`inner_group`).  Whatever reads a generating set of Inn asks the table
for one (`inner_rows`).

INN's words are evaluated in blocks of consecutive first arguments of at
most CHUNK_ENTRIES entries (at least one first argument), so no (n, n, n)
array is ever formed; up to n = 32 one block holds every x.
"""

from __future__ import annotations

import numpy as np

from .core import LoopTable
from .errors import ArityMismatch
from .perm import PermGroup, Permutation, base_stabilizer, generator_rows

INNER_ARITY = {"T": 1, "U": 1, "L": 2, "R": 2, "M": 2}
TOT_INNER_WORDS = ("T", "U", "L", "R", "M")
INNER_WORDS = ("T", "L", "R")
CHUNK_ENTRIES = 2**16  # entries of one block of word values, here and in A3 (i)


def inner_generator(Q: LoopTable, name: str, args) -> Permutation:
    """One generator of the (tot-)inner family; always fixes the neutral."""
    if name not in INNER_ARITY:
        raise ArityMismatch(f"unknown inner generator {name!r}")
    args = tuple(args)
    if len(args) != INNER_ARITY[name]:
        raise ArityMismatch(
            f"{name} takes {INNER_ARITY[name]} argument(s), got {len(args)}"
        )
    for a in args:
        Q.check_element(a)
    mul, ldiv, rdiv = Q.mul, Q.ldiv, Q.rdiv
    z = np.arange(Q.order)
    if name == "T":
        (x,) = args
        images = rdiv[mul[x, z], x]
    elif name == "U":
        (x,) = args
        images = rdiv[ldiv[z, x], x]
    elif name == "L":
        x, y = args
        images = ldiv[mul[x, y], mul[x, mul[y, z]]]
    elif name == "R":
        x, y = args
        images = rdiv[mul[mul[z, y], x], mul[y, x]]
    else:  # M
        x, y = args
        images = rdiv[ldiv[y, x], ldiv[ldiv[z, y], x]]
    return Permutation._wrap(tuple(images.tolist()))


def inner_maps(Q: LoopTable, word: str, points=None, first=slice(None)) -> np.ndarray:
    """W_args(z) for the argument tuples whose first argument lies in the
    slice first (default all) and every z in points (default the loop).

    For the k first arguments of the slice, the result has shape
    (k,) + (n,)*(arity-1) + (len(points),): entry [i, z] is W_x(points[z])
    and entry [i, y, z] is W_{x,y}(points[z]) for the i-th x of the slice.
    Computed on demand; nothing is cached.
    """
    n, mul, ldiv, rdiv = Q.order, Q.mul, Q.ldiv, Q.rdiv
    z = np.arange(n) if points is None else np.asarray(points, dtype=np.int64)
    if word == "T":  # (x z) / x
        return rdiv[mul[first, z], np.arange(n)[first, None]]
    if word == "U":  # (z \ x) / x
        return rdiv[ldiv[z, first].T, np.arange(n)[first, None]]
    # two arguments: one flat take from the outer division, its index built in place
    if word == "L":  # (x y) \ (x (y z))
        v = mul[first].take(mul[:, z], axis=1)
        return ldiv.take(np.add(v, mul[first, :, None] * n, out=v))
    if word == "R":  # ((z y) x) / (y x)
        v = mul.T[first].take(mul[z].T, axis=1)
        v *= n
        return rdiv.take(np.add(v, mul.T[first, :, None], out=v))
    if word == "M":  # (y \ x) / ((z \ y) \ x)
        v = ldiv.T[first].take(ldiv[z].T, axis=1)
        return rdiv.take(np.add(v, ldiv.T[first, :, None] * n, out=v))
    raise ArityMismatch(f"unknown inner generator {word!r}")


def word_rows(Q: LoopTable, which: str) -> np.ndarray:
    """The distinct maps of MLT's or INN's generating family as a
    read-only (k, n) array in first-occurrence order, identity included;
    uint8 up to 256 points, else uint16.  Computed once per table."""
    return Q.memo(("word_rows", which), lambda: _word_rows(Q, which))


def _word_rows(Q: LoopTable, which: str) -> np.ndarray:
    n = Q.order
    if which == "MLT":
        blocks = (Q.mul, Q.mul.T)
    elif which == "INN":
        blocks = (  # one block at a time, CHUNK_ENTRIES entries but at least one x
            inner_maps(Q, w, first=slice(x, x + step)).reshape(-1, n)
            for w in INNER_WORDS
            for step in [max(1, CHUNK_ENTRIES // n ** INNER_ARITY[w])]
            for x in range(0, n, step)
        )
    else:
        raise ValueError(f"unknown associated group {which!r}")
    dtype = np.dtype(np.uint8 if n <= 256 else np.uint16)
    key = np.dtype((np.void, dtype.itemsize * n))
    found: dict[bytes, None] = {}
    for block in blocks:  # rows keyed by their bytes; dict keeps the first of each
        found.update(dict.fromkeys(np.ascontiguousarray(block, dtype).view(key).ravel().tolist()))
    return np.frombuffer(b"".join(found), dtype=dtype).reshape(-1, n)


def assoc_group(Q: LoopTable, which: str) -> PermGroup:
    """MLT or INN of the loop as a permutation group over its distinct
    generating maps (word_rows, identity dropped), with the neutral as
    first base point, built once per table."""
    return Q.memo(
        ("assoc_group", which), lambda: PermGroup(Q.order, word_rows(Q, which), Q.neutral)
    )


def inner_group(Q: LoopTable) -> PermGroup:
    """Inn(Q) = Mlt_e, levels 1 and below of MLT's chain, whose first base
    point is e (`perm.base_stabilizer`), once per table.  Building it
    records its generators as the table's `inner_rows`, unless some
    reader has fixed them first."""
    inn = Q.memo("inner_group", lambda: base_stabilizer(assoc_group(Q, "MLT")))
    Q.memo("inner_rows", lambda: generator_rows(inn))
    return inn


def inner_rows(Q: LoopTable) -> np.ndarray:
    """The image rows of one generating set of Inn(Q), identity included,
    memoised on Q: the generators of `inner_group` when it has been built
    (the report and the Inn search presets build Mlt's chain anyway), and
    else INN's word rows, which need no chain and exist above 256 points.

    The table keeps whichever came first, and no result can depend on the
    choice, for every reader asks only about the group the rows generate:
    a set's orbits are the group's (the inner orbits, hence normality and
    normal closures), its common fixed set is the group's (the center,
    C3), and each map of the group restricts to an automorphism of A iff
    each of the set does (A3 (i)).  Its image in Inn(Q/N) generates
    Inn(Q/N), since a word in translations of Q induces the same word on
    the cosets (xa N = xN aN), so Mlt(Q) maps onto Mlt(Q/N) and Q's T, L
    and R words onto those of Q/N.  So the set fixes the cosets the group
    fixes, Z(Q/N) (the upper central series; the center of a loop is the
    fixed set of Inn, Bruck 1958), and N holds g(a)/a for each g of the
    set iff Inn(Q/N) is trivial (the derived subloop Q')."""
    return Q.memo("inner_rows", lambda: word_rows(Q, "INN"))
