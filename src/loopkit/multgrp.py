"""Multiplication and inner mapping groups of a loop.

The inner generator families are the standard words

    T_x = R_x^-1 L_x          U_x = R_x^-1 M_x
    L_{x,y} = L_{xy}^-1 L_x L_y
    R_{x,y} = R_{yx}^-1 R_x R_y
    M_{x,y} = M_{y\\x}^-1 M_x M_y

and the groups are generated from these explicit word families over all
argument tuples (not by a stabilizer computation inside the
multiplication group, so the stabilizer identity |MLT| = n * |INN| stays
a genuine cross-check).
"""

from __future__ import annotations

import numpy as np

from .core import LoopTable
from .errors import ArityMismatch
from .perm import PermGroup, Permutation

INNER_ARITY = {"T": 1, "U": 1, "L": 2, "R": 2, "M": 2}
TOT_INNER_WORDS = ("T", "U", "L", "R", "M")
INNER_WORDS = ("T", "L", "R")


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
    return Permutation._wrap(tuple(int(v) for v in images))


def inner_maps(Q: LoopTable, word: str, points=None) -> np.ndarray:
    """W_args(z) for every argument tuple of the word and every z in points.

    The result has shape (n,)*arity + (len(points),): entry [x, z] is
    W_x(points[z]) and entry [x, y, z] is W_{x,y}(points[z]).  points
    defaults to the whole loop.  Computed on demand; nothing is cached.
    """
    mul, ldiv, rdiv = Q.mul, Q.ldiv, Q.rdiv
    z = np.arange(Q.order) if points is None else np.asarray(points, dtype=np.int64)
    if word == "T":  # (x z) / x
        return rdiv[mul[:, z], np.arange(Q.order)[:, None]]
    if word == "U":  # (z \ x) / x
        return rdiv[ldiv[z].T, np.arange(Q.order)[:, None]]
    if word == "L":  # (x y) \ (x (y z))
        return ldiv[mul[:, :, None], mul[:, mul[:, z]]]
    if word == "R":  # ((z y) x) / (y x)
        return rdiv[mul.T[:, mul[z].T], mul.T[:, :, None]]
    if word == "M":  # (y \ x) / ((z \ y) \ x)
        return rdiv[ldiv.T[:, :, None], ldiv.T[:, ldiv[z].T]]
    raise ArityMismatch(f"unknown inner generator {word!r}")


def _translation_rows(Q: LoopTable, kinds) -> list[tuple]:
    rows = []
    for kind in kinds:
        if kind == "L":
            rows.extend(Q.rows)
        elif kind == "R":
            rows.extend(tuple(int(v) for v in Q.mul[:, x]) for x in range(Q.order))
        else:
            rows.extend(tuple(int(v) for v in Q.ldiv[:, x]) for x in range(Q.order))
    return rows


def inner_generator_family(Q: LoopTable, names) -> list[Permutation]:
    """All generators of the given families over all argument tuples."""
    out = []
    n = Q.order
    for name in names:
        if INNER_ARITY[name] == 1:
            out.extend(inner_generator(Q, name, (x,)) for x in range(n))
        else:
            out.extend(
                inner_generator(Q, name, (x, y))
                for x in range(n)
                for y in range(n)
            )
    return out


def assoc_group(Q: LoopTable, which: str) -> PermGroup:
    """MLT, INN, TMLT or TINN of the loop as a permutation group, built
    once per table."""
    return Q.memo(("assoc_group", which), lambda: _generated_group(Q, which))


def _generated_group(Q: LoopTable, which: str) -> PermGroup:
    """The group of the word rows, each distinct row wrapped once in
    first-occurrence order, so PermGroup.generators is as for all rows."""
    if which in ("MLT", "TMLT"):
        rows = dict.fromkeys(_translation_rows(Q, "LR" if which == "MLT" else "LRM"))
    elif which in ("INN", "TINN"):
        rows = _distinct_word_rows(Q, INNER_WORDS if which == "INN" else TOT_INNER_WORDS)
    else:
        raise ValueError(f"unknown associated group {which!r}")
    return PermGroup(Q.order, [Permutation._wrap(r) for r in rows])


def _distinct_word_rows(Q: LoopTable, words) -> list[tuple]:
    """The distinct rows of the words' maps in first-occurrence order.

    Each word's rows are keyed by their bytes in the narrowest dtype that
    holds the points, and only the first row of each key becomes a tuple.
    """
    n = Q.order
    dtype = np.uint8 if n <= 256 else np.uint16
    found: dict[bytes, np.ndarray] = {}
    for word in words:
        block = np.ascontiguousarray(inner_maps(Q, word).reshape(-1, n), dtype=dtype)
        keys = block.view(np.dtype((np.void, block.itemsize * n))).ravel()
        _, first = np.unique(keys, return_index=True)
        for i in np.sort(first).tolist():
            found.setdefault(keys[i].tobytes(), block[i])
    return [tuple(row.tolist()) for row in found.values()]
