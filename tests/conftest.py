"""Shared fixtures and independent oracles for the loopkit suite."""

from __future__ import annotations

import collections
import itertools
import math

import numpy as np
import pytest

from loopkit import (
    INFINITE,
    Subloop,
    all_normal_subloops,
    g_oplus,
    normal_closure,
    quotient,
)
from loopkit.cli import PRESETS
from loopkit.commutator import commutator_generators
from loopkit.core import LoopTable
from loopkit.errors import NoNeutral, NotAbelianGroup, NotLatin
from loopkit.extensions import AbelianGroupTable, build_extension, iter_cocycles_random
from loopkit.multgrp import INNER_ARITY, INNER_WORDS, inner_generator, inner_maps, word_rows
from loopkit.perm import PermGroup, Permutation
from loopkit.pools import (
    census,
    central_cocycle_pool,
    exhaustive_small_extensions,
    group_pool,
    random_extension_pool,
)
from loopkit.tables import cyclic, klein, latin_squares, symmetric
from loopkit.util import SplitMix64, is_finite


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
def census_tables():
    return {n: census(n) for n in range(1, 7)}


@pytest.fixture(scope="session")
def census_classes(census_tables):
    """The 120 loops of order <= 6 up to isomorphism, by order, each with
    neutral 0; 100 of them are not congruence solvable."""
    return [Q for n in range(1, 7) for Q in census_tables[n]]


@pytest.fixture(scope="session")
def census_loops(census_classes):
    """The census classes, then a seeded relabeling of each in the same
    order (240 tables).  Above order 1 each relabeling moves the neutral
    off 0."""
    moved = [
        next(r for r in seeded_relabelings(Q, i, count=8) if r.neutral or Q.order == 1)
        for i, Q in enumerate(census_classes)
    ]
    return census_classes + moved


@pytest.fixture(scope="session")
def generic_loops():
    """`generic_loop(k)` for k = 3..6: orders 8, 16, 32 and 64."""
    return [generic_loop(k) for k in range(3, 7)]


@pytest.fixture(scope="session")
def central_pool():
    return central_cocycle_pool(100)


@pytest.fixture(scope="session")
def class_three():
    """Congruence class 3, which no pool table has: the 15 seed-0 draws of
    Z2 by S3 (order 12; classical class 2 on draws 1, 4 and 8, 3 on the
    others) and the first seed-0 draw of K4 by S3 (order 24, both 3)."""
    tables = []
    for A, budget in ((cyclic(2), 15), (klein(), 1)):
        stream = iter_cocycles_random(AbelianGroupTable(A), symmetric(3), seed=0, budget=budget)
        tables += [build_extension(gamma) for gamma in stream]
    return tables


def ac4_witness():
    """The first Z4[oplus] loop of the AC-4 search: order 8, not
    congruence solvable, classical class 2, Mlt solvable."""
    return g_oplus(cyclic(4), next(itertools.islice(latin_squares(4), 1, None)))


def seeded_relabelings(q, seed, count=3):
    """count relabelings of q, each by a Fisher-Yates shuffle drawn from
    SplitMix64(seed)."""
    rng = SplitMix64(seed)
    for _ in range(count):
        images = list(range(q.order))
        for j in range(q.order - 1, 0, -1):
            k = rng.below(j + 1)
            images[j], images[k] = images[k], images[j]
        yield q.relabel(images)


def generic_loop(k: int, seed: int = 0) -> LoopTable:
    """Z2^k's table (k >= 2) after 40 * 2^k intercalate switches that keep
    row and column 0, so the neutral stays 0.  Each try draws rows r, s
    and a column c from 1..n-1 with SplitMix64(seed); with d the column
    of row r holding s*c, the cells (r, c), (s, c), (r, d), (s, d) form an
    intercalate a b / b a when r != s, d != 0 and s*d = r*c, and the
    switch swaps a and b in them.  On orders 8-64 its Mlt is S_n."""
    n = 2**k
    mul = [[x ^ y for y in range(n)] for x in range(n)]
    column = [row[:] for row in mul]  # column[r][v]: where row r holds v
    rng = SplitMix64(seed)
    switches = 0
    while switches < 40 * n:
        r, s, c = (1 + rng.below(n - 1) for _ in range(3))
        a, b = mul[r][c], mul[s][c]
        d = column[r][b]
        if r != s and d and mul[s][d] == a:
            mul[r][c] = mul[s][d] = b
            mul[r][d] = mul[s][c] = a
            column[r][b] = column[s][a] = c
            column[r][a] = column[s][b] = d
            switches += 1
    return LoopTable(mul)


# a non-associative loop of order 5: its Mlt is S5, its Inn S4
ORDER_5_LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def hunt_candidates(seed: int, count: int):
    """The first `count` candidate tables of the mltq-solvability-hunt
    preset at the seed, as `loopkit search` draws and builds them."""
    preset = PRESETS["mltq-solvability-hunt"]
    stream = iter_cocycles_random(
        AbelianGroupTable(preset["A"]()), preset["F"](), seed, count, preset["central"]
    )
    return [build_extension(gamma) for gamma in stream]


# -- independent oracles -------------------------------------------------------


def closure_elements(generators, degree: int, cap=200_000) -> set:
    """The image tuples of the group generated by generators, by a
    breadth-first closure independent of the stabilizer chain."""
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
    return seen


def closure_order(generators, cap=200_000) -> int:
    """Breadth-first closure count, independent of the stabilizer chain."""
    if not generators:
        return 1
    return len(closure_elements(generators, len(generators[0]), cap))


def profiles_oracle(Q):
    """core._profiles from scalar walks: the orders of L_x and R_x by
    Permutation.order, whether x*x = x, and the y with x*y = y*x."""
    n = Q.order
    return [
        (
            Q.left_translation(x).order(),
            Q.right_translation(x).order(),
            int(Q.mul_at(x, x) == x),
            sum(Q.mul_at(x, y) == Q.mul_at(y, x) for y in range(n)),
        )
        for x in range(n)
    ]


def permutation_group_oracle(Q, which) -> PermGroup:
    """The associated group built from one Permutation per row of
    word_rows, the path groups took before they were fed arrays."""
    return PermGroup(Q.order, [Permutation(row) for row in word_rows(Q, which).tolist()])


def _then(q: tuple, p: tuple) -> tuple:
    """p after q on image tuples."""
    return tuple(p[x] for x in q)


def _invert(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


class _TextbookLevel:
    def __init__(self, base: int, identity: tuple):
        self.base = base
        self.gens = []
        self.transversal = {base: identity}
        self.inverses = {base: identity}
        self.queue = collections.deque()


class TextbookChain:
    """The deterministic Schreier-Sims chain without `perm._Chain`'s
    reductions, on image tuples: every residue joins levels 0..where, no
    Schreier pair is skipped and strip composes at every level.  It
    follows the same discovery order, so its orders and grown lists must
    equal the engine's; it shares none of the engine's primitives."""

    def __init__(self, degree: int, bound: int | None = None):
        self.identity = tuple(range(degree))
        self.levels = []
        self.grown = []
        self.bound = bound
        self.full = False

    def order(self) -> int:
        return math.prod(len(level.transversal) for level in self.levels)

    def strip(self, p, start=0):
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            u_inv = level.inverses.get(p[level.base])
            if u_inv is None:
                return p, i
            p = _then(p, u_inv)
        return p, len(self.levels)

    def add_generator(self, p) -> bool:
        if self.full:
            return False
        residue, where = self.strip(p)
        if residue == self.identity:
            return False
        self.grown.append(p)
        self._install(residue, where)
        for k in reversed(range(len(self.levels))):
            self._establish(k)
        return True

    def _install(self, residue, where):
        if where == len(self.levels):
            base = next(i for i, v in enumerate(residue) if v != i)
            self.levels.append(_TextbookLevel(base, self.identity))
        for level in self.levels[:where + 1]:
            level.gens.append(residue)
            level.queue.extend((p, len(level.gens) - 1) for p in level.transversal)

    def _establish(self, k):
        level = self.levels[k]
        while level.queue:
            p, gi = level.queue.popleft()
            g = level.gens[gi]
            g_u_p = _then(level.transversal[p], g)
            u_q = level.transversal.get(g[p])
            if u_q is None:
                level.transversal[g[p]] = g_u_p
                level.inverses[g[p]] = _invert(g_u_p)
                level.queue.extend((g[p], j) for j in range(len(level.gens)))
                if self.bound is not None and self.order() == self.bound:
                    self.full = True
                    for lv in self.levels:
                        lv.queue.clear()
                    return
                continue
            if g_u_p == u_q:
                continue
            residue, where = self.strip(_then(g_u_p, level.inverses[g[p]]), k + 1)
            if residue == self.identity:
                continue
            self._install(residue, where)
            for m in range(min(where, len(self.levels) - 1), k, -1):
                self._establish(m)


def textbook_closure(conjugators, seeds, degree, bound) -> TextbookChain:
    """Normal closure of seeds under the conjugators, sifting every
    candidate, bounded at bound (None for no bound)."""
    chain = TextbookChain(degree, bound)
    pairs = [(g, _invert(g)) for g in conjugators]
    queue = collections.deque(s for s in seeds if chain.add_generator(s))
    while queue and not chain.full:
        s = queue.popleft()
        for g, g_inv in pairs:
            conj = _then(_then(g_inv, s), g)
            if chain.add_generator(conj):
                queue.append(conj)
    return chain


def _textbook_commutators(pairs, identity) -> list:
    out = []
    for a, b in pairs:
        c = _then(_then(_then(_invert(b), _invert(a)), b), a)
        if c != identity:
            out.append(c)
    return out


def _textbook_derived(chain: TextbookChain, degree: int) -> TextbookChain:
    seeds = _textbook_commutators(itertools.combinations(chain.grown, 2), chain.identity)
    return textbook_closure(chain.grown, seeds, degree, chain.order())


def _textbook_descend(top: TextbookChain, step) -> list:
    """top and the terms step gives, down to the trivial group or the
    first term equal to the one before (not listed)."""
    chains = [top]
    while chains[-1].order() > 1:
        nxt = step(chains[-1])
        if nxt.order() == chains[-1].order():
            break
        chains.append(nxt)
    return chains


def _textbook_top(degree, generators) -> TextbookChain:
    top = TextbookChain(degree)
    for g in generators:
        top.add_generator(tuple(g))
    return top


def textbook_series(degree, generators):
    """(order, grown list, derived series terms, lower central terms) of
    the group the image tuples generate, each term as (order, grown list),
    by `TextbookChain` and the engine's choice of seeds and conjugators."""
    top = _textbook_top(degree, generators)

    def lower(chain):
        if chain is top:
            return _textbook_derived(top, degree)
        seeds = _textbook_commutators(itertools.product(top.grown, chain.grown), top.identity)
        return textbook_closure(top.grown, seeds, degree, chain.order())

    def terms(chains):
        return [(c.order(), c.grown) for c in chains]

    derived = terms(_textbook_descend(top, lambda c: _textbook_derived(c, degree)))
    return top.order(), top.grown, derived, terms(_textbook_descend(top, lower))


def textbook_derived_length(group):
    """Derived length of a PermGroup, INFINITE when the series stalls
    above the trivial group, by `TextbookChain` and `textbook_closure`
    from the group's generator images alone: no engine chain, closure or
    series runs."""
    top = _textbook_top(group.degree, [g.images for g in group.generators])
    chains = _textbook_descend(top, lambda c: _textbook_derived(c, group.degree))
    return INFINITE if chains[-1].order() > 1 else len(chains) - 1


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


def inner_generator_family(Q, names) -> list[Permutation]:
    """All generators of the given inner word families over all argument
    tuples, one scalar inner_generator call each: the oracle for the
    array kernels inner_maps and word_rows."""
    out = []
    for name in names:
        tuples = itertools.product(range(Q.order), repeat=INNER_ARITY[name])
        out.extend(inner_generator(Q, name, args) for args in tuples)
    return out


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


def least_abelian_series_length(Q):
    """The least length of a subnormal series of Q with commutative-group
    factors, or INFINITE: 0 for the trivial loop, else one more than the
    least such length of an N, taken as a loop of its own, over the normal
    subloops N != Q whose quotient table is commutative and associative.
    Independent of loopkit.commutator: it never forms a derived subloop,
    a commutator or the normal closure of either."""
    if Q.order == 1:
        return 0
    lengths = []
    for N in all_normal_subloops(Q):
        if N.is_whole():
            continue
        table, _ = quotient(Q, N)
        if table.is_commutative and table.is_associative:
            lengths.append(least_abelian_series_length(N.induced_table()))
    return min((k + 1 for k in lengths if is_finite(k)), default=INFINITE)


def center_by_identities(Q) -> tuple[int, ...]:
    """The elements a with ax = xa, (ax)y = a(xy), (xa)y = x(ay) and
    (xy)a = x(ya) for all x and y, one element at a time.  Independent
    of loopkit.structure.center_subloop, which reads the fixed points of
    INN's word rows."""
    mul = Q.mul
    out = []
    for a in range(Q.order):
        if (
            np.array_equal(mul[a], mul[:, a])
            and np.array_equal(mul[mul[a]], mul[a][mul])
            and np.array_equal(mul[mul[:, a]], mul[:, mul[a]])
            and np.array_equal(mul[mul, a], mul[:, mul[:, a]])
        ):
            out.append(a)
    return tuple(out)


def upper_central_oracle(Q):
    """(element tuples of Z0, Z1, ..., class or INFINITE) of the upper
    central series, each Z_{i+1} the preimage of the center of the coset
    table Q/Z_i by its defining identities (`center_by_identities`).
    Independent of the gather over Q's own Inn rows in
    loopkit.commutator.upper_central_series: it builds every quotient
    table and checks the identities on it."""
    series = [(Q.neutral,)]
    while len(series[-1]) < Q.order:
        table, proj = quotient(Q, Subloop(Q, series[-1]))
        center = set(center_by_identities(table))
        if len(center) == 1:
            return series, INFINITE
        series.append(tuple(x for x in range(Q.order) if proj[x] in center))
    return series, len(series) - 1


def word_commutator(Q, A, B) -> tuple[int, ...]:
    """[A, B] as the normal closure of the word deviations at every pair,
    [Q, Q] included, where commutator_subloop takes the derived subloop
    instead.  Independent of loopkit.commutator.derived_subloop."""
    gens = commutator_generators(Q, A, B)
    return normal_closure(Q, gens).elements if gens else (Q.neutral,)


def congruence_series_oracle(Q):
    """(element tuples of D0, D1, ..., class or INFINITE) of the
    congruence derived series with word_commutator at every step,
    [Q, Q] included.  Independent of loopkit.commutator.derived_subloop,
    which the series itself takes as D1."""
    series = [tuple(range(Q.order))]
    while len(series[-1]) > 1:
        current = Subloop(Q, series[-1])
        nxt = word_commutator(Q, current, current)
        if nxt == current.elements:
            return series, INFINITE
        series.append(nxt)
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
