"""Subloops, normality, normal closures, center, quotients, decompositions.

Coset representatives are least indices and all enumeration orders are
lexicographic, so results are stable across runs.  Normal subloops are
enumerated as the join-closure of singleton normal closures, never by
subset enumeration.

A subloop is normal iff it is invariant under the inner mapping group
(Bruck, A Survey of Binary Systems, 1958), that is iff it is a union of
Inn's orbits.  Each table memoises one orbit labelling (`inner_orbits`),
so `is_normal` is O(n) past the subloop check and `normal_closure`
alternates subloop closure with the union of the orbits the set meets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LoopTable, direct_product
from .errors import CapExceeded, NotNormal
from .multgrp import inner_rows
from .perm import orbit_roots

NORMAL_ENUM_CAP = 64


@dataclass(frozen=True)
class Subloop:
    """A subset of loop elements closed under mul, ldiv and rdiv."""

    loop: LoopTable
    elements: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(self.elements)))

    @property
    def size(self) -> int:
        return len(self.elements)

    def is_trivial(self) -> bool:
        return self.size == 1

    def is_whole(self) -> bool:
        return self.size == self.loop.order

    def induced_table(self) -> LoopTable:
        return self.loop.subtable(self.elements)

    def to_line(self) -> str:
        return " ".join(str(v) for v in self.elements)

    def __repr__(self):
        return f"Subloop({list(self.elements)})"


def _seed_mask(Q: LoopTable, seed) -> np.ndarray:
    """The seed's elements as a boolean mask; ValueError for one out of range."""
    member = np.zeros(Q.order, dtype=bool)
    for x in seed:
        member[Q.check_element(x)] = True
    return member


def _close_mask(Q: LoopTable, member: np.ndarray) -> np.ndarray:
    """Mark in place the least superset of the marked elements + neutral
    closed under mul/ldiv/rdiv, and return the mask."""
    member[Q.neutral] = True
    while True:
        idx = np.flatnonzero(member)
        grid = np.ix_(idx, idx)
        for table in (Q.mul, Q.ldiv, Q.rdiv):
            member[table[grid]] = True
        if np.count_nonzero(member) == len(idx):
            return member


def subloop_generated(Q: LoopTable, seed) -> Subloop:
    member = _close_mask(Q, _seed_mask(Q, seed))
    return Subloop(Q, tuple(np.flatnonzero(member).tolist()))


def inner_orbits(Q: LoopTable) -> np.ndarray:
    """root[x] = the least element of x's orbit under the inner mapping
    group, computed once per table (read-only) by `perm.orbit_roots` over
    the table's `multgrp.inner_rows`."""
    return Q.memo("inner_orbits", lambda: orbit_roots(inner_rows(Q)))


def is_normal(Q: LoopTable, A: Subloop) -> bool:
    """True when the element set is a subloop and a union of inner-mapping
    orbits (memoised).  A nonempty set that mul maps into itself is a
    subloop, as Q is finite (`core._bfs_labeling`)."""
    if A.loop is not Q and A.loop != Q:
        raise ValueError("subloop belongs to a different table")

    def verdict():
        idx = np.fromiter(A.elements, dtype=np.int64)
        member = np.zeros(Q.order, dtype=bool)
        member[idx] = True
        closed = idx.size > 0 and member[Q.mul[np.ix_(idx, idx)]].all()
        return bool(closed and (member == member[inner_orbits(Q)]).all())

    return Q.memo(("is_normal", A.elements), verdict)


def normal_closure(Q: LoopTable, seed) -> Subloop:
    """Least normal subloop containing the seed: alternate subloop closure
    and the union of the inner-mapping orbits the set meets, to a fixed
    point.  ValueError for a seed element out of range."""
    root = inner_orbits(Q)
    member = _seed_mask(Q, seed)
    while True:
        member = _close_mask(Q, member)
        met = np.zeros(Q.order, dtype=bool)
        met[root[member]] = True
        orbits = met[root]
        if np.array_equal(orbits, member):
            return Subloop(Q, tuple(np.flatnonzero(member).tolist()))
        member = orbits


def center_subloop(Q: LoopTable) -> Subloop:
    """Elements commuting and associating with everything: the fixed set
    of the inner mapping group (Bruck), that is the points every row of
    `multgrp.inner_rows` fixes."""
    fixed = (inner_rows(Q) == np.arange(Q.order)).all(axis=0)
    return Subloop(Q, tuple(np.flatnonzero(fixed).tolist()))


def all_normal_subloops(Q: LoopTable) -> list[Subloop]:
    """All normal subloops, sorted by size then lexicographically.

    They are the join-closure of the singleton normal closures, and the
    join of normal subloops A and B is the product set AB = {ab}: the term
    (x/y)z makes the congruences of a loop permute, so the join of the
    congruences of A and B is their composition, whose class of the
    neutral is AB.  Enumerated once per table.
    """
    if Q.order > NORMAL_ENUM_CAP:
        raise CapExceeded(
            f"order {Q.order} exceeds the normal-enumeration cap {NORMAL_ENUM_CAP}"
        )
    # the memo keeps element tuples: a Subloop would refer back to the table
    elements = Q.memo("normal_subloops", lambda: _normal_subloop_elements(Q))
    return [Subloop(Q, e) for e in elements]


def _normal_subloop_elements(Q: LoopTable) -> tuple[tuple[int, ...], ...]:
    n = Q.order
    found = {(Q.neutral,)} | {normal_closure(Q, (x,)).elements for x in range(n)}
    frontier = list(found)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(found):
                # the distinct products, as np.unique gives them without importing numpy.ma
                products = np.bincount(Q.mul[np.ix_(a, b)].ravel(), minlength=n)
                joined = tuple(np.flatnonzero(products).tolist())
                if joined not in found:
                    found.add(joined)
                    fresh.append(joined)
        frontier = fresh
    return tuple(sorted(found, key=lambda e: (len(e), e)))


def coset_representatives(Q: LoopTable, A: Subloop) -> np.ndarray:
    """rep[x] = the least element of the right coset A*x of a normal
    subloop A, for every x of Q; read-only, memoised on Q."""

    def labels():
        rep = Q.mul[np.fromiter(A.elements, dtype=np.int64)].min(axis=0)
        rep.setflags(write=False)
        return rep

    return Q.memo(("coset_representatives", A.elements), labels)


def quotient(Q: LoopTable, A: Subloop):
    """Coset table and the projection Q -> Q/A (a homomorphism); coset i
    is the one with the i-th least representative."""
    if not is_normal(Q, A):
        raise NotNormal("quotient requires a normal subloop")
    rep = coset_representatives(Q, A)
    reps = np.flatnonzero(np.bincount(rep, minlength=Q.order))
    cls = np.searchsorted(reps, rep)
    return LoopTable(cls[Q.mul[np.ix_(reps, reps)]]), [int(v) for v in cls]


def direct_decomposition(Q: LoopTable):
    """Unordered pairs (A, B) of nontrivial normal subloops realizing
    Q as their direct product through (a, b) -> a*b."""
    n = Q.order
    subs = all_normal_subloops(Q)
    out = []
    for i, A in enumerate(subs):
        if A.is_trivial() or A.is_whole():
            continue
        for B in subs[i:]:
            if B.is_trivial() or B.is_whole():
                continue
            if A.size * B.size != n:
                continue
            if len(set(A.elements) & set(B.elements)) != 1:
                continue
            ia = np.fromiter(A.elements, dtype=np.int64)
            ib = np.fromiter(B.elements, dtype=np.int64)
            pairing = Q.mul[np.ix_(ia, ib)]  # pairing[i, j] = a_i * b_j
            flat = pairing.T.ravel()  # index i + |A|*j, matching direct_product
            if len(set(flat.tolist())) != n:
                continue
            dp = direct_product(A.induced_table(), B.induced_table())
            if np.array_equal(flat[dp.mul], Q.mul[np.ix_(flat, flat)]):
                out.append((A, B))
    return out
