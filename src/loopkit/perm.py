"""Permutations and finitely generated permutation groups.

The group engine is a deterministic (non-randomized) Schreier-Sims
stabilizer chain.  Base points are found by scanning 0, 1, 2, ... for the
first point moved, orbit points and Schreier generators are processed in
first-in-first-out discovery order with generators applied in install
order, so two constructions from the same generator list produce
identical base sequences and identical orders.

A PermGroup builds its chain lazily on first query.  The fill is not
locked; force it with order() before sharing a group between workers.
After that every query is read-only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import CapExceeded
from .util import INFINITE, Infinite

GROUP_ORDER_CAP = 10**12


def _compose(p: tuple, q: tuple) -> tuple:
    """Image tuple of p after q: (p*q)(x) = p(q(x))."""
    return tuple(p[v] for v in q)


def _invert(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _is_id(p: tuple) -> bool:
    return all(i == v for i, v in enumerate(p))


class Permutation:
    """A bijection of 0..degree-1, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(v) for v in images)
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
        return Permutation._wrap(_compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation._wrap(_invert(self.images))

    def is_identity(self) -> bool:
        return _is_id(self.images)

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
        result = 1
        for cycle in self.cycles():
            k = len(cycle)
            g = _gcd(result, k)
            result = result // g * k
        return result

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


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class _Level:
    """One stabilizer-chain level.

    gens is the full strong generator list for the stabilizer of the
    previous base points (deeper levels' generators are repeated here, so
    orbits never miss a generator).  Transversal entries are never
    replaced once written, which keeps previously processed Schreier
    generators valid; pair_queue holds (point, gen index) pairs that still
    need Schreier processing.
    """

    __slots__ = ("base", "gens", "transversal", "orbit_order", "pair_queue")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.gens: list[tuple] = []
        self.transversal: dict[int, tuple] = {base: tuple(range(degree))}
        self.orbit_order: list[int] = [base]
        self.pair_queue: deque = deque()

    def add_gen(self, g: tuple):
        self.gens.append(g)
        gi = len(self.gens) - 1
        for p in self.orbit_order:
            self.pair_queue.append((p, gi))

    def add_point(self, q: int, rep: tuple):
        self.transversal[q] = rep
        self.orbit_order.append(q)
        for gi in range(len(self.gens)):
            self.pair_queue.append((q, gi))


class _Chain:
    """Mutable deterministic stabilizer chain."""

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []

    def strip(self, p: tuple, start: int = 0):
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            image = p[level.base]
            u = level.transversal.get(image)
            if u is None:
                return p, i
            p = _compose(_invert(u), p)
        return p, len(self.levels)

    def contains(self, p: tuple) -> bool:
        residue, _ = self.strip(p)
        return _is_id(residue)

    def order(self) -> int:
        total = 1
        for level in self.levels:
            total *= len(level.transversal)
        return total

    def base_sequence(self):
        return tuple(level.base for level in self.levels)

    def add_generator(self, p: tuple) -> bool:
        """Sift p; if new, install the residue and re-establish. True if grown."""
        residue, where = self.strip(p)
        if _is_id(residue):
            return False
        self._install(residue, where)
        for k in range(len(self.levels) - 1, -1, -1):
            self._establish(k)
        return True

    def _install(self, residue: tuple, where: int):
        """Add residue (which fixes the first `where` base points) to levels 0..where."""
        if where == len(self.levels):
            base = next(i for i, v in enumerate(residue) if v != i)
            self.levels.append(_Level(base, self.degree))
        for m in range(where + 1):
            self.levels[m].add_gen(residue)

    def _establish(self, k: int):
        """Drain level k's pair queue; deeper levels are re-established on demand."""
        level = self.levels[k]
        while level.pair_queue:
            p, gi = level.pair_queue.popleft()
            g = level.gens[gi]
            q = g[p]
            u_p = level.transversal[p]
            if q not in level.transversal:
                level.add_point(q, _compose(g, u_p))
                continue
            schreier = _compose(_invert(level.transversal[q]), _compose(g, u_p))
            residue, where = self.strip(schreier, k + 1)
            if _is_id(residue):
                continue
            self._install(residue, where)
            for m in range(min(where, len(self.levels) - 1), k, -1):
                self._establish(m)


class PermGroup:
    """A permutation group given by generators, with a cached chain."""

    def __init__(self, degree: int, generators, _chain: _Chain | None = None):
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if g.is_identity() or g.images in seen:
                continue
            seen.add(g.images)
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._chain_cache = _chain

    @property
    def _chain(self) -> _Chain:
        if self._chain_cache is None:
            chain = _Chain(self.degree)
            for g in self.generators:
                chain.add_generator(g.images)
            self._chain_cache = chain
        return self._chain_cache

    def order(self) -> int:
        return self._chain.order()

    def base_sequence(self):
        return self._chain.base_sequence()

    def is_trivial(self) -> bool:
        return not self.generators

    def __contains__(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError("degree mismatch in membership test")
        return self._chain.contains(p.images)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def group_order(group: PermGroup) -> int:
    """Exact order via the stabilizer chain; capped at 10**12."""
    n = group.order()
    if n > GROUP_ORDER_CAP:
        raise CapExceeded(f"group order {n} exceeds cap {GROUP_ORDER_CAP}")
    return n


def contains(group: PermGroup, p: Permutation) -> bool:
    return p in group


def normal_closure(group: PermGroup, seeds) -> PermGroup:
    """Smallest subgroup containing seeds and closed under conjugation by group."""
    chain = _Chain(group.degree)
    kept: list[Permutation] = []
    queue: deque[tuple] = deque()
    top = [g.images for g in group.generators]
    top_inv = [_invert(g) for g in top]
    for s in seeds:
        raw = s.images if isinstance(s, Permutation) else tuple(s)
        if chain.add_generator(raw):
            kept.append(Permutation._wrap(raw))
            queue.append(raw)
    while queue:
        s = queue.popleft()
        for g, ginv in zip(top, top_inv):
            conj = _compose(g, _compose(s, ginv))
            if chain.add_generator(conj):
                kept.append(Permutation._wrap(conj))
                queue.append(conj)
    return PermGroup(group.degree, kept, _chain=chain)


def _comm(a: tuple, b: tuple) -> tuple:
    return _compose(a, _compose(b, _compose(_invert(a), _invert(b))))


def derived_subgroup(group: PermGroup) -> PermGroup:
    """Normal closure in group of commutators of generator pairs."""
    group_order(group)
    comms = []
    for a in group.generators:
        for b in group.generators:
            c = _comm(a.images, b.images)
            if not _is_id(c):
                comms.append(Permutation._wrap(c))
    return normal_closure(group, comms)


@dataclass(frozen=True)
class SeriesResult:
    """A descending subgroup series with its classification.

    orders includes the starting group.  cls is INFINITE exactly when the
    series stabilized at a nontrivial term.  Each step at least halves an
    order of at most 10**12, so a series has at most 39 steps.
    """

    groups: tuple[PermGroup, ...]
    orders: tuple[int, ...]
    cls: int | Infinite


def derived_series(group: PermGroup) -> SeriesResult:
    group_order(group)
    return _descend(group, derived_subgroup)


def lower_central_series(group: PermGroup) -> SeriesResult:
    def step(current: PermGroup) -> PermGroup:
        comms = []
        for g in group.generators:
            for c in current.generators:
                k = _comm(g.images, c.images)
                if not _is_id(k):
                    comms.append(Permutation._wrap(k))
        return normal_closure(group, comms)

    group_order(group)
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


def solvable_class(group: PermGroup) -> int | Infinite:
    """Length of the derived series down to the trivial group."""
    return derived_series(group).cls


def nilpotency_class_group(group: PermGroup) -> int | Infinite:
    """Length of the lower central series down to the trivial group."""
    return lower_central_series(group).cls
