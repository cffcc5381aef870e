"""Subloops, normality, normal closures, center, quotients, decompositions.

Coset representatives are least indices and all enumeration orders are
lexicographic, so results are stable across runs.  Normal subloops are
enumerated as the join-closure of singleton normal closures, never by
subset enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LoopTable, direct_product
from .errors import CapExceeded, NotNormal
from .multgrp import INNER_WORDS, inner_maps

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

    def contains(self, x: int) -> bool:
        return x in set(self.elements)

    def induced_table(self) -> LoopTable:
        return self.loop.subtable(self.elements)

    def to_line(self) -> str:
        return " ".join(str(v) for v in self.elements)

    def __repr__(self):
        return f"Subloop({list(self.elements)})"


def _close_subset(Q: LoopTable, seed) -> tuple[int, ...]:
    """Least superset of seed + neutral closed under mul/ldiv/rdiv."""
    current = set(seed)
    current.add(Q.neutral)
    while True:
        idx = np.fromiter(sorted(current), dtype=np.int64)
        grid = np.ix_(idx, idx)
        new = set(Q.mul[grid].ravel().tolist())
        new.update(Q.ldiv[grid].ravel().tolist())
        new.update(Q.rdiv[grid].ravel().tolist())
        if new <= current:
            return tuple(sorted(current))
        current |= new


def subloop_generated(Q: LoopTable, seed) -> Subloop:
    for x in seed:
        Q.check_element(x)
    return Subloop(Q, _close_subset(Q, seed))


def _inner_images(Q: LoopTable, elements: np.ndarray) -> np.ndarray:
    """All images of the element set under the T, L, R generator families."""
    return np.concatenate([inner_maps(Q, w, elements).ravel() for w in INNER_WORDS])


def is_normal(Q: LoopTable, A: Subloop) -> bool:
    """True when every inner generator maps the element set onto itself."""
    if A.loop is not Q and A.loop != Q:
        raise ValueError("subloop belongs to a different table")
    member = np.zeros(Q.order, dtype=bool)
    idx = np.fromiter(A.elements, dtype=np.int64)
    member[idx] = True
    return bool(member[_inner_images(Q, idx)].all())


def normal_closure(Q: LoopTable, seed) -> Subloop:
    """Least normal subloop containing the seed: alternate subloop closure
    and inner-generator image closure to a fixed point."""
    current = set(_close_subset(Q, seed))
    while True:
        idx = np.fromiter(sorted(current), dtype=np.int64)
        images = set(_inner_images(Q, idx).tolist())
        if images <= current:
            return Subloop(Q, tuple(sorted(current)))
        current = set(_close_subset(Q, current | images))


def center_subloop(Q: LoopTable) -> Subloop:
    """Elements commuting and associating with everything.

    Computed twice, from the defining identities and as the fixed set of
    the inner generator families; the two answers are asserted equal.
    """
    mul = Q.mul
    n = Q.order
    ok = np.ones(n, dtype=bool)
    for a in range(n):
        if not np.array_equal(mul[a], mul[:, a]):
            ok[a] = False
            continue
        # (a x) y == a (x y);  (x a) y == x (a y);  (x y) a == x (y a)
        if not np.array_equal(mul[mul[a]], mul[a][mul]):
            ok[a] = False
            continue
        if not np.array_equal(mul[mul[:, a]], mul[:, mul[a]]):
            ok[a] = False
            continue
        if not np.array_equal(mul[mul, a], mul[:, mul[:, a]]):
            ok[a] = False
    fixed = np.ones(n, dtype=bool)
    for w in INNER_WORDS:
        fixed &= (inner_maps(Q, w).reshape(-1, n) == np.arange(n)).all(axis=0)
    if not np.array_equal(ok, fixed):
        raise AssertionError("center characterizations disagree; table corrupt?")
    return Subloop(Q, tuple(int(v) for v in np.nonzero(ok)[0]))


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
    found = {(Q.neutral,)} | {normal_closure(Q, (x,)).elements for x in range(Q.order)}
    frontier = list(found)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(found):
                joined = tuple(np.unique(Q.mul[np.ix_(a, b)]).tolist())
                if joined not in found:
                    found.add(joined)
                    fresh.append(joined)
        frontier = fresh
    return tuple(sorted(found, key=lambda e: (len(e), e)))


def cosets(Q: LoopTable, A: Subloop) -> list[tuple[int, ...]]:
    """Right cosets A*x of a normal subloop, sorted by least member."""
    idx = np.fromiter(A.elements, dtype=np.int64)
    seen = set()
    out = []
    for x in range(Q.order):
        if x in seen:
            continue
        coset = tuple(int(v) for v in np.sort(Q.mul[idx, x]))
        seen.update(coset)
        out.append(coset)
    return sorted(out, key=lambda c: c[0])


def coset_representatives(Q: LoopTable, A: Subloop) -> np.ndarray:
    """rep[x] = the least element of the right coset A*x of a normal
    subloop A, for every x of Q."""
    return Q.mul[np.fromiter(A.elements, dtype=np.int64)].min(axis=0)


def quotient(Q: LoopTable, A: Subloop):
    """Coset table and the projection Q -> Q/A (a homomorphism); coset i
    is the one with the i-th least representative."""
    if not is_normal(Q, A):
        raise NotNormal("quotient requires a normal subloop")
    rep = coset_representatives(Q, A)
    reps = np.unique(rep)
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
