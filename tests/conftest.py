"""Shared fixtures and independent oracles for the loopkit suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from loopkit import INFINITE, Subloop, all_normal_subloops, center_subloop, quotient
from loopkit.cli import PRESETS
from loopkit.core import LoopTable
from loopkit.errors import NoNeutral, NotAbelianGroup, NotLatin
from loopkit.extensions import AbelianGroupTable, build_extension, iter_cocycles_random
from loopkit.multgrp import INNER_WORDS, inner_generator, inner_generator_family, inner_maps
from loopkit.perm import Permutation
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


def hunt_candidates(seed: int, count: int):
    """The first `count` candidate tables of the mltq-solvability-hunt
    preset at the seed, as `loopkit search` draws and builds them."""
    preset = PRESETS["mltq-solvability-hunt"]
    stream = iter_cocycles_random(
        AbelianGroupTable(preset["A"]()), preset["F"](), seed, count, preset["central"]
    )
    return [build_extension(gamma) for gamma in stream]


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


def _inner_images(Q, elements) -> set[int]:
    idx = np.fromiter(elements, dtype=np.int64)
    return set(np.concatenate([inner_maps(Q, w, idx).ravel() for w in INNER_WORDS]).tolist())


def is_normal_oracle(Q, A) -> bool:
    """True when every T, L and R map sends A's elements into A, from the
    images of the whole set.  Independent of the Inn-orbit labels of
    loopkit.structure.inner_orbits."""
    return _inner_images(Q, A.elements) <= set(A.elements)


def normal_closure_oracle(Q, seed) -> tuple[int, ...]:
    """Least normal subloop containing the seed: alternate closure under
    mul, ldiv and rdiv with the images under every T, L and R map, to a
    fixed point.  Independent of loopkit.structure.inner_orbits."""
    current = set(seed) | {Q.neutral}
    while True:
        idx = np.fromiter(sorted(current), dtype=np.int64)
        grid = np.ix_(idx, idx)
        new = _inner_images(Q, current)
        for table in (Q.mul, Q.ldiv, Q.rdiv):
            new.update(table[grid].ravel().tolist())
        if new <= current:
            return tuple(sorted(current))
        current |= new


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


def upper_central_oracle(Q):
    """(element tuples of Z0, Z1, ..., class or INFINITE) of the upper
    central series, each Z_{i+1} the preimage of center_subloop of the
    coset table Q/Z_i.  Independent of the gather over Q's own Inn rows
    in loopkit.commutator.upper_central_series: it builds every quotient
    table and its center."""
    series = [(Q.neutral,)]
    while len(series[-1]) < Q.order:
        table, proj = quotient(Q, Subloop(Q, series[-1]))
        center = set(center_subloop(table).elements)
        if len(center) == 1:
            return series, INFINITE
        series.append(tuple(x for x in range(Q.order) if proj[x] in center))
    return series, len(series) - 1


def normal_subloop_pairs(Q):
    subs = all_normal_subloops(Q)
    return [(A, B) for A in subs for B in subs]


def extract_cocycle_oracle(Q, A):
    """Cocycle extraction cell by cell from scalar operations, as
    (phi, psi, theta, F rows, transversal) with phi and psi as grids of
    image tuples, or None.  The transversal takes the least element of
    each right coset, the neutral for the fiber, and

        phi[x][y] = R_{y,x}|_A    psi[x][y] = (R_{xy}^-1 L_x R_y)|_A
        theta[x][y] = (xy) / (x o y).

    Independent of the array kernel in loopkit.extensions: phi comes from
    the scalar word inner_generator, each map is validated by Permutation
    and checked additive pair by pair, and the rebuilt table is formed
    from the pair product formula cell by cell."""
    try:
        fiber = AbelianGroupTable(A.induced_table())
    except NotAbelianGroup:
        return None
    add = fiber.table.rows
    elems = A.elements
    na = len(elems)
    pos = {e: i for i, e in enumerate(elems)}
    rep_of = {}
    for x in range(Q.order):
        coset = [Q.mul_at(a, x) for a in elems]
        rep_of[x] = Q.neutral if Q.neutral in coset else min(coset)
    reps = sorted(set(rep_of.values()))
    fpos = {r: i for i, r in enumerate(reps)}
    ftable = tuple(tuple(fpos[rep_of[Q.mul_at(x, y)]] for y in reps) for x in reps)
    try:
        one = LoopTable(ftable).neutral
    except (NotLatin, NoNeutral):
        return None

    def restricted(images):
        if any(v not in pos for v in images):
            return None
        try:
            p = Permutation(pos[v] for v in images)
        except ValueError:
            return None
        if any(p(add[a][b]) != add[p(a)][p(b)] for a in range(na) for b in range(na)):
            return None
        return p.images

    phi, psi, theta = [], [], []
    for x in reps:
        phi.append([]), psi.append([]), theta.append([])
        for y in reps:
            xy = Q.mul_at(x, y)
            r = inner_generator(Q, "R", (y, x))
            phi[-1].append(restricted([r(a) for a in elems]))
            psi[-1].append(restricted([Q.rdiv_at(Q.mul_at(x, Q.mul_at(b, y)), xy) for b in elems]))
            theta[-1].append(pos.get(Q.rdiv_at(xy, rep_of[xy])))
            if phi[-1][-1] is None or psi[-1][-1] is None or theta[-1][-1] is None:
                return None
    ident = tuple(range(na))
    zero = pos[Q.neutral]
    for i in range(len(reps)):
        if phi[i][one] != ident or psi[one][i] != ident:
            return None
        if theta[one][i] != zero or theta[i][one] != zero:
            return None
    # (a, x) -> a * x must carry the pair product onto Q
    witness = {(a, x): Q.mul_at(elems[a], reps[x]) for x in range(len(reps)) for a in range(na)}
    if len(set(witness.values())) != Q.order:
        return None
    for (a, x), u in witness.items():
        for (b, y), v in witness.items():
            c = add[add[phi[x][y][a]][psi[x][y][b]]][theta[x][y]]
            if witness[c, ftable[x][y]] != Q.mul_at(u, v):
                return None
    return (
        tuple(map(tuple, phi)),
        tuple(map(tuple, psi)),
        tuple(map(tuple, theta)),
        ftable,
        reps,
    )
