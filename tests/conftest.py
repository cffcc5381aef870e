"""Shared fixtures and independent oracles for the loopkit suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from loopkit import all_normal_subloops, quotient
from loopkit.multgrp import inner_generator_family
from loopkit.pools import (
    central_cocycle_pool,
    exhaustive_small_extensions,
    full_pool,
    group_pool,
    random_extension_pool,
)


@pytest.fixture(scope="session")
def groups():
    return group_pool()


@pytest.fixture(scope="session")
def small_extensions():
    return exhaustive_small_extensions()


@pytest.fixture(scope="session")
def random_extensions():
    return random_extension_pool(200)


@pytest.fixture(scope="session")
def pool(groups, small_extensions, random_extensions):
    return groups + small_extensions + random_extensions


@pytest.fixture(scope="session")
def central_pool():
    return central_cocycle_pool(100)


# -- independent oracles -------------------------------------------------------


def closure_order(generators, cap=200_000) -> int:
    """Breadth-first closure count, independent of the stabilizer chain."""
    if not generators:
        return 1
    degree = len(generators[0])
    gens = [tuple(g) for g in generators]
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[v] for v in g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > cap:
                        raise RuntimeError("closure oracle cap exceeded")
        frontier = nxt
    return len(seen)


def group_inverse(Q, x: int) -> int:
    return Q.ldiv_at(x, Q.neutral)


def group_commutator_oracle(Q, A, B):
    """Brute-force [A,B] for a group table: subgroup generated by the
    element commutators, closed under conjugation."""
    assert Q.is_associative
    elems = {Q.neutral}
    for a in A.elements:
        for b in B.elements:
            c = Q.mul_at(
                Q.mul_at(Q.mul_at(a, b), group_inverse(Q, a)), group_inverse(Q, b)
            )
            elems.add(c)
    changed = True
    while changed:
        changed = False
        snapshot = list(elems)
        for x in snapshot:
            for y in snapshot:
                v = Q.mul_at(x, y)
                if v not in elems:
                    elems.add(v)
                    changed = True
        for g in range(Q.order):
            gi = group_inverse(Q, g)
            for x in snapshot:
                v = Q.mul_at(Q.mul_at(g, x), gi)
                if v not in elems:
                    elems.add(v)
                    changed = True
    return tuple(sorted(elems))


def group_derived_length(Q) -> int | None:
    """Derived length via element-level closure; None when non-solvable."""
    from loopkit import Subloop

    current = tuple(range(Q.order))
    length = 0
    while len(current) > 1:
        sub = Subloop(Q, current)
        nxt = group_commutator_oracle(Q, sub, sub)
        if nxt == current:
            return None
        current = nxt
        length += 1
    return length


def group_nilpotency_class(Q) -> int | None:
    """Lower central series length via element closure; None if it stalls."""
    from loopkit import Subloop

    whole = Subloop(Q, tuple(range(Q.order)))
    current = tuple(range(Q.order))
    length = 0
    while len(current) > 1:
        nxt = group_commutator_oracle(Q, whole, Subloop(Q, current))
        if nxt == current:
            return None
        current = nxt
        length += 1
    return length


def condition_i_oracle(Q, A) -> bool:
    """Abelianess condition (i) from the scalar inner-map words: every
    T_x, L_{x,y} and R_{x,y} maps A onto A and restricts to an automorphism
    of A.  Independent of the block kernels in loopkit.commutator."""
    elems = A.elements
    pairs = list(itertools.product(elems, repeat=2))
    for p in inner_generator_family(Q, ("T", "L", "R")):
        if {p(a) for a in elems} != set(elems):
            return False
        if any(p(Q.mul_at(a, b)) != Q.mul_at(p(a), p(b)) for a, b in pairs):
            return False
    return True


def commutator_oracle(Q, A, B) -> tuple[int, ...]:
    """[A,B] from the scalar inner-map words over all B-congruent argument
    tuples, not only each tuple against its class representative, closed
    under the operations and the scalar T, L, R maps.  Independent of the
    array kernel in loopkit.multgrp."""
    n = Q.order
    bset = set(B.elements)
    cls = [min(v for v in range(n) if Q.rdiv_at(u, v) in bset) for u in range(n)]
    devs = set()
    for word in ("T", "U", "L", "R", "M"):
        arity = 1 if word in ("T", "U") else 2
        tuples = itertools.product(range(n), repeat=arity)
        restricted = {}  # congruence class of the tuple -> images of A
        for args, g in zip(tuples, inner_generator_family(Q, (word,))):
            key = tuple(cls[u] for u in args)
            restricted.setdefault(key, set()).add(tuple(g(a) for a in A.elements))
        for images in restricted.values():
            for wp, wq in itertools.product(images, repeat=2):
                devs.update(Q.rdiv_at(u, v) for u, v in zip(wp, wq))
    inner = inner_generator_family(Q, ("T", "L", "R"))
    elems = {Q.neutral} | devs
    while True:
        new = {g(x) for g in inner for x in elems}
        for x, y in itertools.product(elems, repeat=2):
            new.update((Q.mul_at(x, y), Q.ldiv_at(x, y), Q.rdiv_at(x, y)))
        if new <= elems:
            return tuple(sorted(elems))
        elems |= new


def least_commutative_group_kernel(Q):
    """Least normal subloop with a commutative-group quotient, found by
    forming the quotient by every normal subloop from all_normal_subloops
    and keeping the least one whose quotient table is commutative and
    associative.  Independent of loopkit.commutator.derived_subloop: it
    never forms a commutator or associator element or a normal closure of
    them."""
    candidates = []
    for N in all_normal_subloops(Q):
        table, _ = quotient(Q, N)
        if table.is_commutative and table.is_associative:
            candidates.append(N)
    candidates.sort(key=lambda s: (s.size, s.elements))
    least = candidates[0]
    least_set = set(least.elements)
    if any(not least_set <= set(c.elements) for c in candidates):
        raise AssertionError("derived subloop is not the least candidate")
    return least


def normal_subloop_pairs(Q):
    subs = all_normal_subloops(Q)
    return [(A, B) for A in subs for B in subs]
