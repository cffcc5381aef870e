"""Permutations and finitely generated permutation groups.

The group engine is a deterministic (non-randomized) Schreier-Sims
stabilizer chain.  Level 0's base point is the chain's first base point
(0 unless given) when the first generator that grows the chain moves it;
otherwise, and on every deeper level, it is the first of 0, 1, 2, ...
that the level's first generator moves.  Orbit points and Schreier
generators are processed in first-in-first-out discovery order with
generators applied in install order, so two constructions from the same
generators and first base point produce identical base sequences and
identical orders.

A PermGroup has degree d at most 256 (`_pack` raises CapExceeded above
it).  Inside the chain, the normal closures and the series, a
permutation is the d-byte `bytes` of its images, and "p after q" is
q.translate(t) for p's translation table t: p's images padded with
fixed points to 256 bytes, made once where t is (a level's generators,
the inverse representatives bytes.maketrans(p, _ID[:d]), closure
conjugators, commutator factors).  So products, hashes and the identity
test p == _ID[:d] cost d points, not 256.  `Permutation` keeps its
image tuple; a PermGroup keeps only the bytes of its generators, packed
in numpy from Permutations or from an image array (`_pack`), and
rebuilds Permutations when asked.  Each transversal representative is
stored with its inverse table, so sifting composes and never inverts.

Each chain records the generators whose sift grew it (`_Chain.grown`),
and the series and normal closures use only those.  This is exact:

- a generator that sifts to the identity lies in the group generated by
  the generators before it, so the recorded ones generate the group;
- G' is the normal closure in G of the commutators [a, b] of any
  generating set of G, and [G, N] for N normal in G is the normal
  closure of [g, c] over generators g of G and c of N; since
  [b, a] = [a, b]^-1, G' needs one commutator per unordered pair;
- in a finite group every g^-1 is a power of g, so a subgroup closed
  under conjugation by the generators is normal: it is the normal
  closure.

Level k of a chain holds generators S_k of a group H_k, all fixing the
base points b_0..b_{k-1}.  The chain is complete when each transversal
is the orbit of b_k under H_k and H_{k+1} is the stabilizer of b_k in
H_k.  By Schreier's lemma, for any generating set S of H and a
transversal u of the orbit of b with u_b = 1, that stabilizer is
generated by the Schreier generators u_p g u_{g(p)}^-1, g in S.  The
chain leaves out five pieces of the textbook run's work (Holt, Eick and
O'Brien, Handbook of Computational Group Theory, CRC 2005, sec. 4.4.2),
each exactly:

(a) A residue r found while level k is established joins levels
    k+1..where, not 0..where (`where` is the level its sift stopped at;
    r fixes b_0..b_{where-1} and moves b_where).  r is a Schreier
    generator of level k times inverse representatives of deeper levels,
    so it lies in H_k.  Each generator joins consecutive levels
    first..where, and level first - 1, if any, already generates it, so
    H_{m+1} <= H_m holds throughout and r lies in every H_m with m <= k.
    Adding r to levels 0..k would change no H_m, and by Schreier's lemma
    the Schreier generators of the generators already there suffice.
    So level 0 holds exactly the residues of add_generator, one per
    grown generator.
(b) The pair (b_k, g) with g(b_k) = b_k is skipped: its Schreier
    generator is g itself.  Every generator moves the base point of the
    deepest level it joins, so g's deepest level lies past k, and g
    joined every level in between, level k + 1 included, where it sifts
    to the identity.
(c) strip composes only where the base point moves: the representative
    of b_k is the identity.
(d) A normal closure sifts each distinct seed or conjugate once.  A
    candidate sifted once lies in the chain's group from then on, so a
    second sift would end at the identity and grow nothing.
(e) While one generator is added, a Schreier generator s sifted from
    level j + 1 is not sifted again from a level k + 1 <= j + 1.  The
    first sift either ended at the identity, so that s is a product of
    representatives of levels j + 1 onward, or installed its residue
    from level j + 1 on.  Either way s lies in H_{j+1} <= H_{k+1} from
    then on, which is all Schreier's lemma asks of it at level k.

A generator grows a chain iff it lies outside the group of those before
it, so neither the five nor the first base point changes an order or a
grown list, and no term of a series gets other generators.  Transversals
are discovered along fewer generators, so a base may differ from the
textbook run's; it stays deterministic.

A chain may also stop at the order of a group known to hold its
generators: G' lies in G and [G, N] in N, so a normal closure's chain
is given |G| or |N| as a bound.  A chain's
order, the product of its transversal lengths, never exceeds the order
of the group its generators generate.  Once it reaches the bound, every
transversal is a full orbit and the last stabilizer is trivial, so every
remaining Schreier generator and every remaining conjugate would sift to
the identity.  The chain then clears its pair queues and takes no more
generators.  What it leaves is what the same rules leave without the
bound: the same base, transversals, strong generators and grown list.
A seed of `normal_closure` outside the group it is closed under voids
that bound, so the public closure uses it only when every seed sifts
into the group's chain.

A complete chain, bounded or not, holds the stabilizer of its first
base point (`base_stabilizer`).  Levels 1 and below are a complete chain
of H_1 = G_{b_0}, of order |G| / |b_0^G|, and level 1's generators S_1
generate H_1, so they serve as its grown list; nothing is sifted.  A
chain may be built over any prescribed first base point (Seress, ch. 4),
so the stabilizer of a point p is that of the chain given p, when its
first growing generator moves p.

`solvable_class` is the derived series.  `is_solvable` walks the same
terms G, G', G'', ... and asks Burnside's p^a q^b theorem of each: a
term whose order has at most two prime divisors is solvable, and then so
is G, whose quotients G^(i) / G^(i+1) are abelian.  So it stops with
True at the first such term, and with False at a term whose order equals
its parent's, where the series stops at a nontrivial group.  Each term's
order comes from the chain its derived subgroup is built from, so the
test costs a trial division by 2..degree per term.

`galois_witness` takes a group as image rows and refutes its solvability
without the whole group's chain.  A transitive constituent, the
restriction to one orbit, is a quotient of the group, so a constituent
that is not solvable proves the group not solvable.  By Galois's
theorem a transitive group of prime degree p is solvable iff it is
conjugate into AGL(1, p), the maps x -> ax + b of Z/p, iff its order
divides p(p - 1).  (A solvable one lies in AGL(1, p).  Conversely, if
|G| divides p(p - 1), the number of Sylow p-subgroups is 1 mod p and
divides p - 1, so there is one, and G lies in its normalizer AGL(1, p).
Dixon and Mortimer, Permutation Groups, Springer 1996, ch. 3.)  An
element of AGL(1, p) is the identity, a p-cycle x -> x + b, or
x -> ax + b with a != 1, which fixes one point and moves the others in
cycles of the order of a.  So a restricted generator, or a product of
two cyclically consecutive ones, of any other cycle type proves the
constituent not solvable.  Only when all their types are affine is the
constituent's chain built, one generator at a time.  After each one the
chain is complete for the subgroup K generated so far, and by Lagrange
|K| divides the constituent's order, so the first partial order that
does not divide p(p - 1) proves it not solvable: the remaining
generators are never sifted.  A constituent that the cycle types prove not solvable has an
order that does not divide p(p - 1), so the chain would prove it too:
no verdict depends on which of the two settles it.  Constituents of
degree 2 and 3 are skipped, since S2 and S3 are solvable.  The witness
is one-sided: True proves the group not solvable, False proves nothing
(S6 on 6 points has no constituent of prime degree).

The order of a nilpotent group is bounded by its orbits
(`nilpotency_class_group`).  A transitive nilpotent group G of degree
m = prod p^a is the direct product of its Sylow subgroups P_p.  A point
stabilizer H is the product of its intersections H_p with the P_p, so
the points are the product of the coset spaces P_p / H_p, of p^a
points each, and the core of H, which is trivial, is the product of the
cores of the H_p in P_p: P_p acts faithfully on p^a points.  So |P_p| divides the p-part of
(p^a)!, which is p^((p^a - 1)/(p - 1)), and |G| divides
B(m) = prod p^((p^a - 1)/(p - 1)).  Any group embeds in the product of
its restrictions to its orbits O, each transitive, and nilpotent when
the group is, so a nilpotent group's order divides the product of the
B(|O|).  A group whose order does not is not nilpotent, and its lower
central series is not run.

(Seress, Permutation Group Algorithms, CUP 2003, sec. 2.3 and ch. 4.)

A PermGroup builds its chain lazily on first query, and its derived
subgroup G' on first use; G' is kept on the group, so the derived
series and the lower central series (whose second term [G, G] is G')
build it once.  Neither fill is locked; force them with order() and
derived_subgroup() before sharing a group between workers.  After that
every query is read-only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, pairwise, product, repeat
from math import lcm
from operator import index

import numpy as np

from .errors import CapExceeded
from .util import INFINITE, prime_divisors

_ID = bytes(range(256))


class Permutation:
    """A bijection of 0..degree-1, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        try:
            images = tuple(map(index, images))
        except TypeError:
            raise ValueError("images must be integers") from None
        if sorted(images) != list(range(len(images))):
            raise ValueError("images do not form a permutation")
        object.__setattr__(self, "images", images)

    @classmethod
    def _wrap(cls, images: tuple) -> "Permutation":
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._wrap(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p * q)(x) = p(q(x)): q acts first, matching L_x R_y style words.
        return Permutation._wrap(tuple(map(self.images.__getitem__, other.images)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation._wrap(tuple(inv))

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def cycles(self):
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                continue
            cycle = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                seen[j] = True
                cycle.append(j)
                j = self.images[j]
            out.append(tuple(cycle))
        return out

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def to_line(self) -> str:
        return " ".join(str(v) for v in self.images)

    @classmethod
    def from_line(cls, line: str) -> "Permutation":
        return cls(int(tok) for tok in line.split())

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return f"Permutation(id, degree={self.degree})"
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Permutation({text})"


class _Level:
    """One stabilizer-chain level.

    gens generates the level's group, a subgroup of the stabilizer of the
    previous base points that contains every deeper level's group (rule
    (a) of the module docstring).  Transversal entries are never
    replaced once written, which keeps previously processed Schreier
    generators valid; inverses holds their inverses.  Both are keyed in
    orbit discovery order.  gens and inverses hold translation tables.
    pair_queue holds (point, gen index) pairs awaiting Schreier processing.
    """

    __slots__ = ("base", "gens", "transversal", "inverses", "pair_queue")

    def __init__(self, base: int, identity: bytes):
        self.base = base
        self.gens: list = []
        self.transversal: dict = {base: identity}
        self.inverses: dict = {base: _ID}
        self.pair_queue: deque = deque()

    def add_gen(self, table):
        self.gens.append(table)
        self.pair_queue.extend(zip(self.transversal, repeat(len(self.gens) - 1)))

    def add_point(self, q: int, rep, rep_inverse):
        self.transversal[q] = rep
        self.inverses[q] = rep_inverse
        self.pair_queue.extend(zip(repeat(q), range(len(self.gens))))


class _Chain:
    """Mutable deterministic stabilizer chain over bytes permutations of
    the degree.  grown lists the added generators whose sift grew it.

    bound, when given, is the order of a group known to contain every
    generator the chain will be given.  Once the order reaches it the
    chain is complete (`full`): its pair queues are cleared and
    add_generator returns False without sifting.  The order, the product
    of the transversal lengths, is kept up to date as points are added.
    """

    def __init__(self, degree: int, bound: int | None = None, first_base: int = 0):
        self.identity = _ID[:degree]
        self.levels: list[_Level] = []
        self.grown: list = []
        self.bound = bound
        self.first_base = first_base
        self.full = False
        self._order = 1

    def strip(self, p, start: int = 0):
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            x = p[level.base]
            if x == level.base:
                continue  # rule (c): the representative is the identity
            u_inv = level.inverses.get(x)
            if u_inv is None:
                return p, i
            p = p.translate(u_inv)
        return p, len(self.levels)

    def contains(self, p) -> bool:
        residue, _ = self.strip(p)
        return residue == self.identity

    def order(self) -> int:
        return self._order

    def base_sequence(self):
        return tuple(level.base for level in self.levels)

    def add_generator(self, p) -> bool:
        """Sift p; if new, record it, install the residue and re-establish.
        True if grown."""
        if self.full:
            return False
        residue, where = self.strip(p)
        if residue == self.identity:
            return False
        self.grown.append(p)
        self._install(residue, where)
        sifted: dict = {}
        for k in range(len(self.levels) - 1, -1, -1):
            self._establish(k, sifted)
        return True

    def _install(self, residue, where: int, first: int = 0):
        """Add residue (which fixes the first `where` base points) to levels
        first..where."""
        if where == len(self.levels):
            base = self.first_base  # level 0's when the residue moves it
            if self.levels or residue[base] == base:
                moved = int.from_bytes(residue, "little") ^ int.from_bytes(self.identity, "little")
                base = ((moved & -moved).bit_length() - 1) >> 3  # the first byte that differs
            self.levels.append(_Level(base, self.identity))
        table = residue + _ID[len(residue):]
        for m in range(first, where + 1):
            self.levels[m].add_gen(table)

    def _establish(self, k: int, sifted: dict):
        """Drain level k's pair queue; deeper levels are re-established on
        demand.  sifted maps each Schreier generator sifted since the last
        add_generator to the deepest level its sift started at."""
        level = self.levels[k]
        queue, gens, transversal = level.pair_queue, level.gens, level.transversal
        while queue:
            p, gi = queue.popleft()
            g = gens[gi]
            q = g[p]
            if q == p == level.base:
                continue  # rule (b): the Schreier generator is g, on level k + 1
            g_u_p = transversal[p].translate(g)
            u_q = transversal.get(q)
            if u_q is None:
                level.add_point(q, g_u_p, bytes.maketrans(g_u_p, self.identity))
                self._order = self._order // (len(transversal) - 1) * len(transversal)
                if self._order == self.bound:
                    self.full = True
                    for lv in self.levels:
                        lv.pair_queue.clear()
                    return
                continue
            if g_u_p == u_q:
                continue  # the Schreier generator is the identity
            schreier = g_u_p.translate(level.inverses[q])
            if sifted.get(schreier, 0) > k:
                continue  # rule (e): it already lies in level k + 1's group
            sifted[schreier] = k + 1
            residue, where = self.strip(schreier, k + 1)
            if residue == self.identity:
                continue
            self._install(residue, where, k + 1)  # rule (a)
            for m in range(min(where, len(self.levels) - 1), k, -1):
                self._establish(m, sifted)


def _grow(degree: int, gens, divides: int | None = None, first_base: int = 0) -> _Chain | None:
    """The chain of gens, added in order, over first_base.  When divides
    is given, None as soon as the order of a chain still missing generators
    does not divide it: that partial chain is dropped, a complete one kept."""
    chain = _Chain(degree, first_base=first_base)
    for g in gens:
        if divides is not None and divides % chain.order():
            return None
        chain.add_generator(g)
    return chain


def _as_permutation(g, degree: int) -> Permutation:
    """g as a Permutation of the given degree; ValueError if it is not one."""
    if not isinstance(g, Permutation):
        g = Permutation(g)
    if len(g.images) != degree:
        raise ValueError("generator degree mismatch")
    return g


def _pack(degree: int, generators) -> list:
    """Permutations or image sequences of the degree, or a (k, degree)
    integer array of image rows, as bytes of that length; ValueError for a
    non-permutation, CapExceeded for a degree above 256."""
    if degree > len(_ID):
        raise CapExceeded(f"permutation degree {degree} exceeds cap {len(_ID)}")
    rows = generators
    if not isinstance(rows, np.ndarray):
        images = [_as_permutation(g, degree).images for g in generators]
        rows = np.array(images, dtype=np.int64).reshape(len(images), degree)
    if rows.ndim != 2 or rows.shape[1] != degree or rows.dtype.kind not in "iu":
        raise ValueError(f"generator rows must be integer arrays of degree {degree}")
    if not (np.sort(rows, axis=1) == np.arange(degree)).all():
        raise ValueError("images do not form a permutation")
    if not degree:
        return [b""] * len(rows)
    packed = np.ascontiguousarray(rows, dtype=np.uint8)
    return packed.view((np.void, degree)).ravel().tolist()  # one bytes per row


class PermGroup:
    """A permutation group given by generators (as _pack takes them), with
    a cached chain over first_base.  `_gens` holds them as bytes, each once
    and the identity dropped; `generators` rebuilds the Permutations.
    A group made with _chain is that chain's group, grown list and all."""

    def __init__(self, degree: int, generators=(), first_base: int = 0,
                 _chain: _Chain | None = None):
        if first_base and not 0 < first_base < degree:
            raise ValueError(f"first base point {first_base} is not a point of degree {degree}")
        store = dict.fromkeys(_pack(degree, generators) if _chain is None else _chain.grown)
        store.pop(_ID[:degree], None)
        self.degree = degree
        self.first_base = first_base
        self._gens = tuple(store)
        self._chain_cache = _chain
        self._derived: PermGroup | None = None

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return tuple(Permutation._wrap(tuple(p)) for p in self._gens)

    @property
    def _chain(self) -> _Chain:
        if self._chain_cache is None:
            self._chain_cache = _grow(self.degree, self._gens, first_base=self.first_base)
        return self._chain_cache

    def order(self) -> int:
        return self._chain.order()

    def base_sequence(self):
        return self._chain.base_sequence()

    def is_trivial(self) -> bool:
        return not self._gens

    def __contains__(self, p) -> bool:
        """Whether p, a Permutation or image sequence of the group's
        degree, lies in the group; ValueError as for a generator."""
        return self._chain.contains(_pack(self.degree, [p])[0])

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, ngens={len(self._gens)})"


def group_order(group: PermGroup) -> int:
    """Exact order via the stabilizer chain, an unbounded Python integer."""
    return group.order()


def base_stabilizer(group: PermGroup) -> PermGroup:
    """The stabilizer of the first base point: levels 1 and below of
    group's chain, shared, with level 1's generators as the grown list
    (module docstring).  The trivial group's is trivial."""
    chain, degree = group._chain, group.degree
    levels = chain.levels[1:]
    order = chain.order() // len(chain.levels[0].transversal) if chain.levels else 1
    sub = _Chain(degree, order)
    sub.levels, sub.grown = levels, [g[:degree] for g in levels[0].gens] if levels else []
    sub._order, sub.full = order, True
    return PermGroup(degree, _chain=sub)


def generator_rows(group: PermGroup) -> np.ndarray:
    """The identity's and the generators' images as a read-only
    (1 + k, degree) uint8 array."""
    packed = _ID[: group.degree] + b"".join(group._gens)
    return np.frombuffer(packed, np.uint8).reshape(-1, group.degree)


def contains(group: PermGroup, p) -> bool:
    return p in group


def normal_closure(group: PermGroup, seeds) -> PermGroup:
    """Smallest subgroup containing seeds and closed under conjugation by
    group.  Seeds are checked as generators are (ValueError).  The closure
    is bounded by |group| only when every seed lies in group."""
    chain = group._chain
    packed = _pack(group.degree, seeds)
    inside = all(chain.contains(s) for s in packed)
    return _closure(group, packed, group.order() if inside else None)


def _closure(group: PermGroup, seeds: list, bound: int | None) -> PermGroup:
    """Normal closure in group of seeds as bytes, conjugating
    by the generators that grew group's chain; bound, if not None, is the
    order of a subgroup of group known to contain the closure."""
    chain = _Chain(group.degree, bound)
    pad = _ID[group.degree:]
    # g s g^-1 is g^-1's images through s's table, then through g's
    conjugators = [(g + pad, bytes.maketrans(g, chain.identity)[: group.degree])
                   for g in group._chain.grown]
    sifted = set()

    def grows(candidate) -> bool:  # rule (d): each distinct candidate once
        if candidate in sifted:
            return False
        sifted.add(candidate)
        return chain.add_generator(candidate)

    queue = deque(s for s in seeds if grows(s))
    while queue and not chain.full:
        s = queue.popleft() + pad
        for g, g_inv in conjugators:
            conj = g_inv.translate(s).translate(g)
            if grows(conj):
                queue.append(conj)
    return PermGroup(group.degree, _chain=chain)


def _commutators(degree: int, pairs) -> list:
    """The non-identity [a, b] = a b a^-1 b^-1 over pairs (a, b)."""
    identity, pad = _ID[:degree], _ID[degree:]
    out = []
    for a, b in pairs:
        b_inv = bytes.maketrans(b, identity)[:degree]
        c = b_inv.translate(bytes.maketrans(a, identity)).translate(b + pad).translate(a + pad)
        if c != identity:
            out.append(c)
    return out


def derived_subgroup(group: PermGroup) -> PermGroup:
    """Normal closure in group of the commutators of generator pairs,
    computed once per group."""
    if group._derived is None:
        chain = group._chain
        pairs = combinations(chain.grown, 2)
        group._derived = _closure(group, _commutators(group.degree, pairs), group.order())
    return group._derived


@dataclass(frozen=True)
class SeriesResult:
    """A descending subgroup series with its classification.

    orders includes the starting group.  cls is INFINITE exactly when the
    series stabilized at a nontrivial term.  Each step at least halves the
    order, and a group has degree <= 256, so a series has at most
    log2(256!) < 1,684 steps.
    """

    groups: tuple[PermGroup, ...]
    orders: tuple[int, ...]
    cls: int | float


def derived_series(group: PermGroup) -> SeriesResult:
    return _descend(group, derived_subgroup)


def lower_central_series(group: PermGroup) -> SeriesResult:
    def step(current: PermGroup) -> PermGroup:
        if current is group:  # gamma_2 = [G, G] = G', kept on the group
            return derived_subgroup(group)
        pairs = product(group._chain.grown, current._chain.grown)
        return _closure(group, _commutators(group.degree, pairs), current.order())

    return _descend(group, step)


def _descend(group: PermGroup, step) -> SeriesResult:
    groups = [group]
    orders = [group.order()]
    while orders[-1] > 1:
        nxt = step(groups[-1])
        n = nxt.order()
        if n == orders[-1]:
            return SeriesResult(tuple(groups), tuple(orders), INFINITE)
        groups.append(nxt)
        orders.append(n)
    return SeriesResult(tuple(groups), tuple(orders), len(orders) - 1)


def orbit_roots(images: np.ndarray) -> np.ndarray:
    """root[x] = the least point of x's orbit under the group generated by
    the rows of a (k, n) image array (k >= 1), as a read-only array.

    Labels propagate with root[x] <- min(root[x], min over rows g of
    root[g(x)]) and pointer jumping root <- root[root], until nothing
    changes.  Each label stays in its point's orbit and only falls.  At
    the fixed point root[x] <= root[g(x)] for every g and x, and g has
    finite order, so the label is constant on each orbit; the orbit's
    least point keeps its own label, so that constant is the least point.
    """
    root = np.arange(images.shape[1])
    while True:
        step = np.minimum(root, root[images].min(axis=0))
        step = step[step]
        if np.array_equal(step, root):
            root.setflags(write=False)
            return root
        root = step


def _restrict(images: np.ndarray, root: np.ndarray, r: int) -> PermGroup:
    """The restriction to the orbit with least point r, relabeled 0..m-1
    in increasing order."""
    orbit = np.flatnonzero(root == r)
    label = np.empty(len(root), dtype=images.dtype)
    label[orbit] = np.arange(len(orbit))
    return PermGroup(len(orbit), label[images[:, orbit]])


def _affine_type(p: bytes) -> bool:
    """Whether the permutation p of prime degree has a cycle type of
    AGL(1, degree): the identity, one cycle through every point, or one
    fixed point and every other cycle of one length (module docstring)."""
    cycles = Permutation._wrap(tuple(p)).cycles()
    fixed = len(p) - sum(map(len, cycles))
    return len({len(c) for c in cycles}) <= 1 and fixed in (0, 1, len(p))


def galois_witness(images: np.ndarray) -> bool:
    """Whether the group generated by the rows of a (k, n) image array
    (k >= 1) has a constituent of prime degree m > 3 that fails Galois's
    rule: an element of a cycle type that AGL(1, m) lacks, or else an
    order not dividing m(m - 1) (module docstring); False proves
    nothing."""
    root = orbit_roots(images)
    for r, m in enumerate(np.bincount(root).tolist()):
        if m > 3 and prime_divisors(m, m) == (m,):
            gens = _restrict(images, root, r)._gens
            products = (g.translate(h + _ID[m:]) for g, h in pairwise(gens + gens[:1]))  # g, then h
            if not (all(map(_affine_type, gens)) and all(map(_affine_type, products))):
                return True
            limit = m * (m - 1)
            chain = _grow(m, gens, divides=limit)
            if chain is None or limit % chain.order():
                return True
    return False


def solvable_class(group: PermGroup) -> int | float:
    """Length of the derived series down to the trivial group."""
    return derived_series(group).cls


def is_solvable(group: PermGroup) -> bool:
    """Whether the derived series reaches the trivial group: True at its
    first term whose order has at most two prime divisors (Burnside's
    p^a q^b theorem), False at a term as large as its parent."""
    while len(prime_divisors(group.order(), group.degree)) > 2:
        derived = derived_subgroup(group)
        if derived.order() == group.order():
            return False
        group = derived
    return True


def _nilpotent_bound(sizes) -> int:
    """The product over m in sizes of the p-parts of (p^a)!, one for each
    prime power p^a exactly dividing m: p^((p^a - 1)/(p - 1))."""
    bound = 1
    for m in sizes:
        for p in prime_divisors(m, m):
            q = p
            while m % (q * p) == 0:
                q *= p
            bound *= p ** ((q - 1) // (p - 1))
    return bound


def nilpotency_class_group(group: PermGroup) -> int | float:
    """Length of the lower central series down to the trivial group;
    INFINITE without the series when |G| does not divide the nilpotent
    order bound of its orbits (module docstring)."""
    if group._gens:
        sizes = np.bincount(orbit_roots(generator_rows(group)[1:]))
        if _nilpotent_bound(sizes[sizes > 1].tolist()) % group.order():
            return INFINITE
    return lower_central_series(group).cls
