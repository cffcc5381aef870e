"""Constructors for standard group tables used in tests, pools and searches."""

from __future__ import annotations

import itertools

from .core import LoopTable, direct_product


def cyclic(n: int) -> LoopTable:
    return LoopTable([[(i + j) % n for j in range(n)] for i in range(n)])


def klein() -> LoopTable:
    return direct_product(cyclic(2), cyclic(2))


def elementary_abelian(p: int, k: int) -> LoopTable:
    out = cyclic(p)
    for _ in range(k - 1):
        out = direct_product(out, cyclic(p))
    return out


def _table_from_elements(elements, multiply) -> LoopTable:
    index = {e: i for i, e in enumerate(elements)}
    return LoopTable(
        [[index[multiply(a, b)] for b in elements] for a in elements]
    )


def symmetric(n: int) -> LoopTable:
    """S_n with elements in lexicographic image order; product composes
    right-to-left ((p*q)(x) = p(q(x)))."""
    elements = sorted(itertools.permutations(range(n)))
    return _table_from_elements(
        elements, lambda p, q: tuple(p[v] for v in q)
    )


def alternating(n: int) -> LoopTable:
    def sign(p):
        s = 1
        p = list(p)
        for i in range(len(p)):
            while p[i] != i:
                j = p[i]
                p[i], p[j] = p[j], p[i]
                s = -s
        return s

    elements = sorted(
        p for p in itertools.permutations(range(n)) if sign(p) == 1
    )
    return _table_from_elements(elements, lambda p, q: tuple(p[v] for v in q))


def dihedral(n: int) -> LoopTable:
    """Dihedral group of order 2n: elements (i, s) = rotation^i * flip^s."""
    elements = [(i, s) for s in range(2) for i in range(n)]

    def multiply(a, b):
        i, s = a
        j, t = b
        return ((i + j) % n if s == 0 else (i - j) % n, s ^ t)

    return _table_from_elements(elements, multiply)


def quaternion() -> LoopTable:
    """Q8 as units {1, i, j, k, -1, -i, -j, -k} encoded 0..7."""
    # index: sign*4 + axis, axis 0=1,1=i,2=j,3=k
    mult = {}
    table_ijk = {
        (1, 1): (0, 1),  # i*i = -1
        (1, 2): (3, 0),  # i*j = k
        (1, 3): (2, 1),  # i*k = -j
        (2, 1): (3, 1),  # j*i = -k
        (2, 2): (0, 1),
        (2, 3): (1, 0),  # j*k = i
        (3, 1): (2, 0),  # k*i = j
        (3, 2): (1, 1),  # k*j = -i
        (3, 3): (0, 1),
    }

    def multiply(a, b):
        sa, xa = divmod(a, 4)
        sb, xb = divmod(b, 4)
        if xa == 0:
            axis, extra = xb, 0
        elif xb == 0:
            axis, extra = xa, 0
        else:
            axis, extra = table_ijk[(xa, xb)]
        sign = sa ^ sb ^ extra
        return sign * 4 + axis

    return _table_from_elements(range(8), multiply)


def dicyclic3() -> LoopTable:
    """Dicyclic group of order 12: <a, b | a^6 = 1, b^2 = a^3, bab^-1 = a^-1>."""
    elements = [(i, s) for s in range(2) for i in range(6)]

    def multiply(x, y):
        i, s = x
        j, t = y
        if s == 0:
            return ((i + j) % 6, t)
        # (a^i b) * a^j = a^(i-j) b ; (a^i b)(a^j b) = a^(i-j+3)
        if t == 0:
            return ((i - j) % 6, 1)
        return ((i - j + 3) % 6, 0)

    return _table_from_elements(elements, multiply)


def _squares(n: int, reduced: bool):
    """Depth first over the cells in row-major order, each value tried in
    increasing order, so the squares come in lexicographic row-major
    order.  When reduced, row 0 and column 0 are held at 0..n-1."""
    rows = []
    held = [set() for _ in range(n)]  # held[j]: the values column j has

    def fill(row):
        i, j = len(rows), len(row)
        if j == n:  # the row is complete: start the next, or the square is
            rows.append(tuple(row))
            yield from fill([]) if len(rows) < n else [tuple(rows)]
            rows.pop()
            return
        for v in [j] if reduced and i == 0 else [i] if reduced and j == 0 else range(n):
            if v not in row and v not in held[j]:
                held[j].add(v)
                yield from fill(row + [v])
                held[j].discard(v)

    return fill([]) if n else iter([()])


def latin_squares(n: int):
    """All n x n Latin squares, in lexicographic row-major order."""
    return _squares(n, reduced=False)


def reduced_latin_squares(n: int):
    """All n x n Latin squares whose first row and first column are
    0..n-1 (the loops with neutral 0), in lexicographic row order."""
    return _squares(n, reduced=True)


def small_groups() -> dict[str, LoopTable]:
    """Named group tables of order <= 16 for oracles and pools."""
    out = {
        "Z1": cyclic(1),
        "Z2": cyclic(2),
        "Z3": cyclic(3),
        "Z4": cyclic(4),
        "Z5": cyclic(5),
        "Z6": cyclic(6),
        "Z7": cyclic(7),
        "Z8": cyclic(8),
        "Z9": cyclic(9),
        "Z12": cyclic(12),
        "Z16": cyclic(16),
        "K4": klein(),
        "Z2^3": elementary_abelian(2, 3),
        "Z3^2": elementary_abelian(3, 2),
        "Z4xZ2": direct_product(cyclic(4), cyclic(2)),
        "S3": symmetric(3),
        "D4": dihedral(4),
        "Q8": quaternion(),
        "D5": dihedral(5),
        "D6": dihedral(6),
        "A4": alternating(4),
        "Dic3": dicyclic3(),
        "D8": dihedral(8),
        "Z4xZ4": direct_product(cyclic(4), cyclic(4)),
    }
    return out
