"""Finite loops as Latin-square Cayley tables.

Elements are 0-based indices into the table.  The neutral element is
detected, not required to be index 0; canonicalize() relabels it to 0 and
picks, for catalog storage, the least table among the labelings grown by
products from an isomorphism-invariant set of generator tuples.  All
tables are immutable after construction and every operation here is a
pure function.  A table is its read-only int64 arrays mul, ldiv and
rdiv, validated in numpy from lists or any integer array and copied, so
it never aliases its caller's array; it hashes and compares on the bytes
of mul.  A table memoizes data derived from it (LoopTable.memo), such as
`rows` (tuples of Python ints), so that data lives and dies with it.
"""

from __future__ import annotations

from math import lcm
from operator import index

import numpy as np

from .errors import CapExceeded, Malformed, NoNeutral, NotAbelianGroup, NotLatin
from .perm import Permutation
from .util import hash_tokens

ORDER_CAP = 512

CANONICAL_NODE_BUDGET = 100_000  # search-tree nodes, each O(n^2) work


def latin_neutral(mul: np.ndarray) -> int | None:
    """Check that a square array over 0..n-1 is a Latin square (raising
    NotLatin at the first bad row or column) and return its two-sided
    neutral element (the only x with x * 0 = 0), or None if it has none."""
    full = np.arange(n := len(mul))
    lines = np.concatenate((mul, mul.T))  # the rows, then the columns
    ok = np.sort(lines, axis=1) == full
    if not ok.all():
        bad = ~ok.all(axis=1)
        i = int(np.argmax(bad[:n] | bad[n:]))
        raise NotLatin(f"{'row' if bad[i] else 'column'} {i} repeats a value")
    e = mul[:, 0].tolist().index(0)
    return e if (lines[[e, n + e]] == full).all() else None


def _integer_square(rows) -> np.ndarray:
    """rows as a new C-ordered int64 (n, n) array over 0..n-1, else the
    first problem: a non-integer entry, an empty, oversized or non-square
    table, an entry out of range.  What numpy does not type as a 2-D
    integer array goes through operator.index entry by entry."""
    try:
        arr = rows if isinstance(rows, np.ndarray) else np.array(rows := list(rows))
    except (TypeError, ValueError):  # not iterable, or ragged rows
        arr = None
    if arr is None or arr.ndim != 2 or arr.dtype.kind not in "iu":
        try:
            arr = np.array([list(map(index, row)) for row in rows], dtype=object)
        except TypeError:
            raise Malformed("entries must be integers") from None
    n = len(arr)
    if n == 0:
        raise Malformed("empty table")
    if n > ORDER_CAP:
        raise CapExceeded(f"order {n} exceeds cap {ORDER_CAP}")
    if arr.shape != (n, n):
        raise Malformed("table is not square")
    try:
        mul = arr.astype(np.int64, order="C")
    except OverflowError:
        raise Malformed("entry out of range") from None
    if mul.min() < 0 or mul.max() >= n:
        raise Malformed("entry out of range")
    return mul


class LoopTable:
    """A finite loop: an n x n Latin square with a two-sided neutral element."""

    __slots__ = ("order", "neutral", "mul", "ldiv", "rdiv", "_memo")

    def __init__(self, rows):
        mul = _integer_square(rows)
        neutral = latin_neutral(mul)
        if neutral is None:
            raise NoNeutral("no two-sided neutral element")
        ldiv = np.argsort(mul, axis=1)
        rdiv = np.argsort(mul, axis=0)
        for a in (mul, ldiv, rdiv):
            a.setflags(write=False)
        object.__setattr__(self, "order", len(mul))
        object.__setattr__(self, "neutral", neutral)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "ldiv", ldiv)
        object.__setattr__(self, "rdiv", rdiv)
        object.__setattr__(self, "_memo", {})

    # -- arithmetic -------------------------------------------------------

    def check_element(self, x: int) -> int:
        if not 0 <= x < self.order:
            raise ValueError(f"element {x} out of range 0..{self.order - 1}")
        return x

    def mul_at(self, x: int, y: int) -> int:
        return int(self.mul[self.check_element(x), self.check_element(y)])

    def ldiv_at(self, x: int, y: int) -> int:
        """The unique z with x * z = y."""
        return int(self.ldiv[self.check_element(x), self.check_element(y)])

    def rdiv_at(self, x: int, y: int) -> int:
        """The unique z with z * y = x."""
        return int(self.rdiv[self.check_element(x), self.check_element(y)])

    # -- translations -----------------------------------------------------

    def left_translation(self, x: int) -> Permutation:
        """y -> x * y (the x-th row)."""
        return Permutation._wrap(self.rows[self.check_element(x)])

    def right_translation(self, x: int) -> Permutation:
        """y -> y * x (the x-th column)."""
        return Permutation._wrap(tuple(self.mul[:, self.check_element(x)].tolist()))

    def middle_translation(self, x: int) -> Permutation:
        """y -> y \\ x."""
        return Permutation._wrap(tuple(self.ldiv[:, self.check_element(x)].tolist()))

    # -- derived data -------------------------------------------------------

    def memo(self, key, compute):
        """The value stored under key, set to compute() on first use.

        Derived data is kept here rather than in global caches, so it is
        freed with the table; equal but distinct tables compute their own.
        An exception from compute() is raised and nothing is stored.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def rows(self) -> tuple:  # tuples of Python ints, built on first use
        return self.memo("rows", lambda: tuple(map(tuple, self.mul.tolist())))

    def _key(self) -> bytes:
        return self.memo("key", self.mul.tobytes)

    @property
    def is_commutative(self) -> bool:
        return self.memo("commutative", lambda: bool(np.array_equal(self.mul, self.mul.T)))

    @property
    def is_associative(self) -> bool:
        mul = self.mul
        return self.memo(
            "associative",
            lambda: all(np.array_equal(mul[mul[x]], mul[x][mul]) for x in range(self.order)),
        )

    # -- plumbing -----------------------------------------------------------

    def subtable(self, elements) -> "LoopTable":
        """The induced table on a multiplication-closed subset."""
        elements = np.sort(np.fromiter(elements, dtype=np.int64))
        products = self.mul[np.ix_(elements, elements)]
        pos = np.full(self.order, -1, dtype=np.int64)
        pos[elements] = np.arange(len(elements))
        table = pos[products]
        if (table < 0).any():
            raise Malformed(f"subset not closed under multiplication: {products[table < 0][0]}")
        return LoopTable(table)

    def relabel(self, images) -> "LoopTable":
        """Apply the bijection x -> images[x] to the table."""
        n = self.order
        images = list(images)
        if sorted(images) != list(range(n)):
            raise Malformed("relabeling is not a bijection")
        sigma = np.asarray(images, dtype=np.int64)
        inv = np.argsort(sigma)
        return LoopTable(sigma[self.mul[np.ix_(inv, inv)]])

    def __eq__(self, other):
        return isinstance(other, LoopTable) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError("LoopTable is immutable")

    def __repr__(self):
        return f"LoopTable(order={self.order}, neutral={self.neutral})"


# -- element words ---------------------------------------------------------


def op(Q: LoopTable, kind: str, x: int, y: int) -> int:
    """Dispatch mul / ldiv / rdiv by name."""
    if kind == "mul":
        return Q.mul_at(x, y)
    if kind == "ldiv":
        return Q.ldiv_at(x, y)
    if kind == "rdiv":
        return Q.rdiv_at(x, y)
    raise ValueError(f"unknown operation kind {kind!r}")


def translation(Q: LoopTable, kind: str, x: int) -> Permutation:
    if kind == "L":
        return Q.left_translation(x)
    if kind == "R":
        return Q.right_translation(x)
    if kind == "M":
        return Q.middle_translation(x)
    raise ValueError(f"unknown translation kind {kind!r}")


def commutator_element(Q: LoopTable, y: int, x: int) -> int:
    """((y*x)/y)/x; neutral exactly when x and y commute."""
    return Q.rdiv_at(Q.rdiv_at(Q.mul_at(y, x), y), x)


def associator_element(Q: LoopTable, x: int, y: int, z: int) -> int:
    """(((x*y)*z)/(y*z))/x; neutral exactly when (xy)z = x(yz)."""
    return Q.rdiv_at(Q.rdiv_at(Q.mul_at(Q.mul_at(x, y), z), Q.mul_at(y, z)), x)


# -- file format -------------------------------------------------------------


def parse_table(text: str) -> LoopTable:
    """Parse the Cayley-table format: order line, then n rows of n indices.

    Lines starting with '#' are comments and skipped.
    """
    lines = [ln for ln in text.splitlines() if not ln.lstrip().startswith("#")]
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise Malformed("empty input")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise Malformed(f"bad order line {lines[0]!r}") from None
    if n <= 0:
        raise Malformed(f"non-positive order {n}")
    if n > ORDER_CAP:
        raise CapExceeded(f"order {n} exceeds cap {ORDER_CAP}")
    if len(lines) != n + 1:
        raise Malformed(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError:
            raise Malformed(f"bad token in row {ln!r}") from None
        if len(row) != n:
            raise Malformed(f"row has {len(row)} entries, expected {n}")
        rows.append(row)
    return LoopTable(rows)


def format_table(Q: LoopTable) -> str:
    lines = [str(Q.order)]
    lines.extend(" ".join(str(v) for v in row) for row in Q.rows)
    return "\n".join(lines) + "\n"


# -- constructions ------------------------------------------------------------


def direct_product(Q1: LoopTable, Q2: LoopTable) -> LoopTable:
    """Componentwise table on pairs, encoded as x1 + |Q1| * x2."""
    n1, n2 = Q1.order, Q2.order
    if n1 * n2 > ORDER_CAP:
        raise CapExceeded(f"product order {n1 * n2} exceeds cap {ORDER_CAP}")
    blocks = Q1.mul[None, :, None, :] + n1 * Q2.mul[:, None, :, None]  # [x2, x1, y2, y1]
    return LoopTable(blocks.reshape(n1 * n2, n1 * n2))


def g_oplus(G: LoopTable, oplus) -> LoopTable:
    """Loop on G x Z2: pairs multiply additively unless both halves are odd,
    in which case the first coordinates combine through the supplied Latin
    square.  Pair (x, a) is encoded as x + n*a."""
    n = G.order
    if not (G.is_commutative and G.is_associative):
        raise NotAbelianGroup("base table must be a commutative group")
    op_arr = _integer_square(oplus)
    if len(op_arr) != n:
        raise Malformed("oplus table has wrong shape")
    table = np.empty((2 * n, 2 * n), dtype=np.int64)
    table[:n, :n] = G.mul
    table[:n, n:] = G.mul + n
    table[n:, :n] = G.mul + n
    table[n:, n:] = op_arr
    return LoopTable(table)


# -- isomorphism --------------------------------------------------------------


def _profiles(Q: LoopTable):
    """Per-element relabeling-invariant profile used for pruning: the
    orders of L_x and R_x, whether x*x = x, and how many y commute with x.

    All translations at once, as one flat array of successors: after
    round r of p <- p o p, root[y] is the least of y's first 2^r images,
    so after ceil(log2 n) rounds the least of its cycle, whose length is
    the number of points with that root.  Up to n = 256 an order fits in
    int64 (Landau's function, Massias 1984: g(n) <= exp(1.05313 sqrt(n ln n)))."""
    n, mul = Q.order, Q.mul
    step = (np.concatenate((mul, mul.T)) + n * np.arange(2 * n)[:, None]).ravel()
    root = np.arange(2 * n * n)  # row x: L_x, row n + x: R_x
    for _ in range((n - 1).bit_length()):
        root = np.minimum(root, root[step])
        step = step[step]
    lengths = np.bincount(root)[root].reshape(2 * n, n)
    orders = (np.lcm.reduce(lengths, axis=1).tolist() if n <= 256
              else [lcm(*set(row)) for row in lengths.tolist()])
    sq = [int(v == x) for x, v in enumerate(mul.diagonal().tolist())]
    comm = np.count_nonzero(mul == mul.T, axis=1).tolist()
    return list(zip(orders[:n], orders[n:], sq, comm))


def isomorphisms(Q1: LoopTable, Q2: LoopTable):
    """Every table isomorphism Q1 -> Q2, each as an image list.

    Deterministic: depth-first over positions in index order trying images
    in increasing order, so the isomorphisms come in lexicographic order
    of their image sequences.  Profiles (_profiles) prune the images.
    """
    if Q1.order != Q2.order:
        return
    if (Q1.is_commutative, Q1.is_associative) != (Q2.is_commutative, Q2.is_associative):
        return
    n = Q1.order
    prof1, prof2 = _profiles(Q1), _profiles(Q2)
    if sorted(prof1) != sorted(prof2) or prof2[Q2.neutral] != prof1[Q1.neutral]:
        return
    candidates = [
        [y for y in range(n) if prof2[y] == prof1[x]] for x in range(n)
    ]
    mul1, mul2 = Q1.rows, Q2.rows
    ldiv1 = Q1.ldiv.tolist()
    f = [-1] * n
    used = [False] * n
    f[Q1.neutral] = Q2.neutral
    used[Q2.neutral] = True

    def consistent(x: int) -> bool:
        """Whether f respects every product a * b = c among assigned
        elements that has x in it: as a factor, or as the product, with
        a assigned and b = a \\ x.  So each product is checked once its
        last element is assigned, and a full assignment is an isomorphism."""
        fx = f[x]
        for a in range(n):
            fa = f[a]
            if fa < 0:
                continue
            v = f[mul1[a][x]]
            if v >= 0 and mul2[fa][fx] != v:
                return False
            v = f[mul1[x][a]]
            if v >= 0 and mul2[fx][fa] != v:
                return False
            v = f[ldiv1[a][x]]
            if v >= 0 and mul2[fa][v] != fx:
                return False
        return True

    def extend(x: int):
        while x < n and f[x] >= 0:
            x += 1
        if x == n:
            yield list(f)
            return
        for y in candidates[x]:
            if used[y]:
                continue
            f[x] = y
            used[y] = True
            if consistent(x):
                yield from extend(x + 1)
            f[x] = -1
            used[y] = False

    yield from extend(0)


def is_isomorphic(Q1: LoopTable, Q2: LoopTable):
    """The first of isomorphisms(Q1, Q2), the one with the
    lexicographically least image sequence, or None."""
    return next(isomorphisms(Q1, Q2), None)


# -- canonical form ------------------------------------------------------------


def _bfs_labeling(Q: LoopTable, gens) -> list[int]:
    """The elements of the subloop gens generate, in label order: the
    neutral, then gens, then each product of two listed elements as it
    first appears, taking element m against elements 0..m in turn (the
    product with m on the right first).  A finite subset closed under
    multiplication is a subloop, so products alone reach all of it.  The
    walk stops once all n elements are listed, as no later product is new."""
    n = Q.order
    rows = Q.rows
    order = [Q.neutral, *gens]
    seen = set(order)
    m = 0
    while m < len(order):
        x = order[m]
        row_x = rows[x]
        for y in order[: m + 1]:
            for p in (rows[y][x], row_x[y]):
                if p not in seen:
                    seen.add(p)
                    order.append(p)
                    if len(order) == n:
                        return order
        m += 1
    return order


def canonicalize(Q: LoopTable) -> LoopTable:
    """The least table, compared row-major, among the BFS labelings
    (_bfs_labeling) from the generator tuples of a search tree whose
    shape depends on invariants alone.

    A node is a tuple of elements, S the subloop it generates; a node with
    S = Q is a leaf.  Its children append each element x outside S with
    the greatest key among those outside S: the profile of x (_profiles),
    then the least k with x^k in S (x^1 = x, x^(k+1) = x * x^k).  The key
    prefers elements that take S furthest, so tuples stay short.  An
    isomorphism maps this tree onto the tree of its image, so isomorphic
    tables get the same canonical table and the hashed fingerprint is
    relabeling-invariant.

    Two leaves with equal tables give an automorphism, sending one tuple
    to the other; leaf tables are kept by hash, and a map is used only
    once checked to be an automorphism.  The walk skips a child in the
    orbit of an explored sibling under the automorphisms found so far
    that fix the node's tuple; below a node of the first path every
    automorphism found fixes its tuple, so there these orbits are those
    of the tuple's stabiliser.  A leaf equal to an earlier leaf sends the
    sibling subtree holding that leaf, which is fully walked, onto the
    current one, so the walk resumes where the two tuples part (McKay and
    Piperno, "Practical graph isomorphism II", J. Symb. Comput. 2014).
    The walk visits at most CANONICAL_NODE_BUDGET nodes and raises
    CapExceeded, naming the order and the budget, beyond that.
    """
    n = Q.order
    return LoopTable(np.frombuffer(_canonical_key(Q), dtype=">u2").reshape(n, n))


def _canonical_key(Q: LoopTable) -> bytes:
    """The entries of canonicalize(Q), row-major, as big-endian uint16."""
    n = Q.order
    rows = Q.rows
    profile = _profiles(Q)
    autos: list[list[int]] = []
    leaves: dict[int, tuple] = {}  # hash of each leaf table seen -> (tuple, labeling)
    best: list[bytes] = []
    budget = [CANONICAL_NODE_BUDGET]

    def leaf(gens: tuple, labeled: list[int]) -> int:
        order = np.asarray(labeled)
        label = np.empty(n, dtype=np.int64)
        label[order] = np.arange(n)
        key = label[Q.mul[np.ix_(order, order)]].astype(">u2").tobytes()
        other, other_order = leaves.setdefault(hash(key), (gens, order))
        if other != gens:
            images = np.empty(n, dtype=np.int64)
            images[other_order] = order
            if np.array_equal(images[Q.mul], Q.mul[np.ix_(images, images)]):
                autos.append(images.tolist())
                return next(i for i, (a, b) in enumerate(zip(gens, other)) if a != b)
        if not best or key < best[0]:
            best[:] = [key]
        return len(gens)

    def walk(gens: tuple) -> int:
        """Walk the subtree at gens; returns the depth to resume at."""
        budget[0] -= 1
        if budget[0] < 0:
            raise CapExceeded(
                f"canonical form of order {n} exceeds node budget {CANONICAL_NODE_BUDGET}"
            )
        order = _bfs_labeling(Q, gens)
        if len(order) == n:
            return leaf(gens, order)
        inside = set(order)

        def rank(x: int):
            k, y, row = 1, x, rows[x]
            while y not in inside:
                k, y = k + 1, row[y]
            return profile[x], k

        ranks = {x: rank(x) for x in range(n) if x not in inside}
        top = max(ranks.values())
        root = list(range(n))  # orbits under the automorphisms fixing gens

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = x = root[root[x]]
            return x

        explored: list[int] = []
        used = 0
        for child in (x for x, r in ranks.items() if r == top):
            for a in autos[used:]:
                if all(a[g] == g for g in gens):
                    for x in range(n):
                        rx, ry = find(x), find(a[x])
                        if rx != ry:
                            root[max(rx, ry)] = min(rx, ry)
            used = len(autos)
            if find(child) in {find(x) for x in explored}:
                continue
            explored.append(child)
            resume = walk(gens + (child,))
            if resume < len(gens):
                return resume
        return len(gens)

    walk(())
    return best[0]


def fingerprint(Q: LoopTable) -> int:
    """64-bit relabeling-invariant fingerprint: hash of the canonical
    table's order, then its entries row-major."""
    entries = np.frombuffer(_canonical_key(Q), dtype=">u2")
    return hash_tokens([Q.order, *entries.tolist()])
