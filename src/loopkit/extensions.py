"""Cocycles and abelian/central extensions of an abelian group by a loop.

An extension multiplies pairs over a cocycle (phi, psi, theta):

    (a, x) * (b, y) = (phi[x][y](a) + psi[x][y](b) + theta[x][y], x*y)

with pair (a, x) encoded as index a + |A|*x, so fibers are contiguous
blocks.  A *loop* cocycle pins the border cells (phi[y][1] = id,
psi[1][y] = id, theta[1][y] = theta[y][1] = 0) which makes (0, 1) the
neutral element.  Divisions have closed forms which the tests compare
cell-by-cell against the built table.  The table, the closed forms and
the extraction below are whole-array: all k^2 fiber blocks are formed in
one gather over a (k, k, |A|, |A|) array, k = |F|.

decompose_extension recovers a cocycle from a loop with a normal subloop
satisfying the syntactic abelianess conditions: the transversal takes the
least index of each right coset (the neutral represents the fiber), and

    phi[x][y] = R_{y,x}|_A    psi[x][y] = (R_{xy}^-1 L_x R_y)|_A
    theta[x][y] = (xy) / (x o y)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import LoopTable, format_table, latin_neutral, parse_table
from .errors import (
    CapExceeded,
    CocycleInvalid,
    Malformed,
    NoNeutral,
    NotAbelianGroup,
    NotAbelianIn,
    NotLatin,
    NotNeutralAt,
    NotNormal,
)
from .multgrp import assoc_group
from .perm import PermGroup, Permutation
from .structure import Subloop, coset_representatives, is_normal
from .util import SplitMix64

AUTOMORPHISM_CAP = 10
EXHAUSTIVE_SPACE_CAP = 10**8


class AbelianGroupTable:
    """A LoopTable checked commutative and associative, with negation."""

    __slots__ = ("table", "neg", "zero")

    def __init__(self, table: LoopTable):
        if not table.is_commutative or not table.is_associative:
            raise NotAbelianGroup("table is not a commutative group")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "zero", table.neutral)
        neg = table.ldiv[:, table.neutral]
        object.__setattr__(self, "neg", tuple(int(v) for v in neg))

    @property
    def order(self) -> int:
        return self.table.order

    def add(self, a: int, b: int) -> int:
        return self.table.mul_at(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.table.mul_at(a, self.neg[b])

    def __eq__(self, other):
        return isinstance(other, AbelianGroupTable) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __setattr__(self, name, value):
        raise AttributeError("AbelianGroupTable is immutable")

    def __repr__(self):
        return f"AbelianGroupTable(order={self.order})"


def automorphisms(A: AbelianGroupTable) -> list[Permutation]:
    """All additive bijections fixing zero, in lexicographic image order,
    enumerated once per table."""
    return list(A.table.memo("automorphisms", lambda: _enumerate_automorphisms(A)))


def _enumerate_automorphisms(A: AbelianGroupTable) -> tuple[Permutation, ...]:
    n = A.order
    if n > AUTOMORPHISM_CAP:
        raise CapExceeded(f"automorphism enumeration capped at {AUTOMORPHISM_CAP}")
    table = A.table
    mul = table.mul
    found: list[Permutation] = []
    images = [-1] * n
    used = [False] * n
    images[A.zero] = A.zero
    used[A.zero] = True

    # Assign images in element order; an element that is a sum of two
    # already-assigned ones has a forced image, the rest branch.
    def forced(x: int):
        for a in range(n):
            if images[a] < 0 or a == A.zero:
                continue
            b = int(table.ldiv[a, x])
            if b != A.zero and b != x and images[b] >= 0:
                return int(mul[images[a], images[b]])
        return None

    def valid_so_far(x: int) -> bool:
        for a in range(n):
            if images[a] < 0:
                continue
            s = int(mul[a, x])
            if images[s] >= 0 and images[s] != int(mul[images[a], images[x]]):
                return False
            s = int(mul[x, a])
            if images[s] >= 0 and images[s] != int(mul[images[x], images[a]]):
                return False
        return True

    def extend(x: int):
        while x < n and images[x] >= 0:
            x += 1
        if x == n:
            found.append(Permutation(images))
            return
        want = forced(x)
        options = [want] if want is not None else list(range(n))
        for y in options:
            if y is None or used[y]:
                continue
            images[x] = y
            used[y] = True
            if valid_so_far(x):
                extend(x + 1)
            images[x] = -1
            used[y] = False

    extend(0)
    return tuple(sorted(found, key=lambda p: p.images))


def _additive(A: AbelianGroupTable, images: np.ndarray) -> np.ndarray:
    """Per row of an (m, |A|) array of maps of A: whether it is additive."""
    add = A.table.mul
    return (images[:, add] == add[images[:, :, None], images[:, None, :]]).all(axis=(1, 2))


@dataclass(frozen=True)
class Cocycle:
    """The triple (phi, psi, theta) over an abelian group A and loop F.

    phi and psi entries must be automorphisms of A (checked);
    the loop-cocycle border conditions are checked by validate_cocycle.
    """

    A: AbelianGroupTable
    F: LoopTable
    phi: tuple[tuple[Permutation, ...], ...]
    psi: tuple[tuple[Permutation, ...], ...]
    theta: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k, na = self.F.order, self.A.order
        for name, grid in (("phi", self.phi), ("psi", self.psi)):
            if len(grid) != k or any(len(row) != k for row in grid):
                raise CocycleInvalid(f"{name} grid has wrong shape")
        if len(self.theta) != k or any(len(row) != k for row in self.theta):
            raise CocycleInvalid("theta grid has wrong shape")
        # each distinct map is checked once; they are listed in order of
        # first cell (phi then psi, row-major), so the first bad one names
        # the first bad cell
        cells = [p for grid in (self.phi, self.psi) for row in grid for p in row]
        maps = list(dict.fromkeys(cells))
        ok = np.array([p.degree == na for p in maps])
        if ok.any():
            images = np.asarray([p.images for p in maps if p.degree == na], dtype=np.int64)
            ok[ok] = _additive(self.A, images)
        if not ok.all():
            grid, cell = divmod(cells.index(maps[int(np.argmin(ok))]), k * k)
            x, y = divmod(cell, k)
            raise CocycleInvalid(
                f"{('phi', 'psi')[grid]}[{x}][{y}] is not an automorphism of A"
            )
        theta = np.asarray(self.theta, dtype=np.int64)
        if ((theta < 0) | (theta >= na)).any():
            raise CocycleInvalid("theta entry out of range")

    def is_central(self) -> bool:
        return all(
            p.is_identity() for row in self.phi for p in row
        ) and all(p.is_identity() for row in self.psi for p in row)


def trivial_cocycle(A: AbelianGroupTable, F: LoopTable) -> Cocycle:
    k = F.order
    ident = Permutation.identity(A.order)
    grid = tuple(tuple(ident for _ in range(k)) for _ in range(k))
    zeros = tuple(tuple(A.zero for _ in range(k)) for _ in range(k))
    return Cocycle(A, F, grid, grid, zeros)


def validate_cocycle(gamma: Cocycle) -> list[str]:
    """Loop-cocycle border diagnostics; empty exactly for a loop cocycle."""
    one = gamma.F.neutral
    zero = gamma.A.zero
    out = []
    for y in range(gamma.F.order):
        if not gamma.phi[y][one].is_identity():
            out.append(f"phi border: phi[{y}][{one}] != id")
        if not gamma.psi[one][y].is_identity():
            out.append(f"psi border: psi[{one}][{y}] != id")
        if gamma.theta[one][y] != zero:
            out.append(f"theta border: theta[{one}][{y}] != 0")
        if gamma.theta[y][one] != zero:
            out.append(f"theta border: theta[{y}][{one}] != 0")
    return out


def pair_index(gamma: Cocycle, a: int, x: int) -> int:
    return a + gamma.A.order * x


def _grid_arrays(phi, psi, theta):
    """The cocycle grids as arrays: (k, k, |A|) images of phi and of psi,
    and the (k, k) theta."""
    return (
        np.asarray([[p.images for p in row] for row in phi], dtype=np.int64),
        np.asarray([[p.images for p in row] for row in psi], dtype=np.int64),
        np.asarray(theta, dtype=np.int64),
    )


def _from_blocks(blocks: np.ndarray) -> np.ndarray:
    """The (k*|A|, k*|A|) table whose fiber block (x, y) is blocks[x, y]."""
    k, _, na, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(k * na, k * na)


def _extension_rows(A: AbelianGroupTable, f: np.ndarray, phi, psi, theta) -> np.ndarray:
    """Product table of the pairs over any Latin square f (loop or not)."""
    add = A.table.mul
    pa, pb, th = _grid_arrays(phi, psi, theta)
    blocks = add[add[pa[:, :, :, None], pb[:, :, None, :]], th[:, :, None, None]]
    return _from_blocks(blocks + A.order * np.asarray(f)[:, :, None, None])


def _raw_extension_table(gamma: Cocycle) -> np.ndarray:
    return _extension_rows(gamma.A, gamma.F.mul, gamma.phi, gamma.psi, gamma.theta)


def build_extension(gamma: Cocycle) -> LoopTable:
    """The extension table over a loop cocycle; neutral is (0, 1)."""
    problems = validate_cocycle(gamma)
    if problems:
        raise CocycleInvalid("; ".join(problems))
    return LoopTable(_raw_extension_table(gamma))


def division_closed_forms(gamma: Cocycle):
    """(ldiv, rdiv) tables predicted by the closed-form expressions."""
    A, F = gamma.A, gamma.F
    add = A.table.mul
    sub = add[:, np.asarray(A.neg)]
    phi, psi, theta = _grid_arrays(gamma.phi, gamma.psi, gamma.theta)
    k, na = F.order, A.order
    x, y, a = np.arange(k)[:, None], np.arange(k), np.arange(na)
    X, Y = x[:, :, None, None], y[None, :, None, None]
    # (a,x) \ (b,y) = (psi_{x,w}^-1 (b - phi_{x,w}(a) - theta_{x,w}), w), w = x\y
    w = F.ldiv
    inv = np.argsort(psi[x, w], axis=-1)
    vals = sub[sub[a, phi[x, w][:, :, :, None]], theta[x, w][:, :, None, None]]
    ldiv = _from_blocks(inv[X, Y, vals] + na * w[:, :, None, None])
    # (a,x) / (b,y) = (phi_{w,y}^-1 (a - psi_{w,y}(b) - theta_{w,y}), w), w = x/y
    w = F.rdiv
    inv = np.argsort(phi[w, y], axis=-1)
    vals = sub[sub[a[:, None], psi[w, y][:, :, None, :]], theta[w, y][:, :, None, None]]
    rdiv = _from_blocks(inv[X, Y, vals] + na * w[:, :, None, None])
    return ldiv, rdiv


def lemma31_analyze_raw(A: AbelianGroupTable, f_rows, phi, psi, theta):
    """Neutral pair (a, x) of an extension over quasigroup-shaped data.

    f_rows may be any Latin square (no neutral element required); phi and
    psi are grids of automorphisms of A and theta a grid of A-elements.
    The four displayed neutral conditions are checked directly and the
    answer is cross-validated by scanning the raw product table.
    """
    f = np.asarray([[int(v) for v in row] for row in f_rows], dtype=np.int64)
    k = f.shape[0]
    if f.shape != (k, k):
        raise Malformed("quasigroup table is not square")
    one = latin_neutral(f)
    answer = None
    if one is not None:
        border_ok = all(
            phi[y][one].is_identity() and psi[one][y].is_identity() for y in range(k)
        )
        if border_ok:
            for a in range(A.order):
                if all(
                    A.add(phi[one][y](a), theta[one][y]) == A.zero
                    and A.add(psi[y][one](a), theta[y][one]) == A.zero
                    for y in range(k)
                ):
                    answer = (a, one)
                    break
    # cross-validate against the raw product table
    e = latin_neutral(_extension_rows(A, f, phi, psi, theta))
    scan = None if e is None else (e % A.order, e // A.order)
    if answer != scan:
        raise AssertionError("neutral analysis disagrees with table scan")
    return answer


def lemma31_analyze(gamma: Cocycle):
    """Neutral pair (a, x) of the extension over gamma, if one exists."""
    return lemma31_analyze_raw(
        gamma.A, gamma.F.rows, gamma.phi, gamma.psi, gamma.theta
    )


def normalize_cocycle(gamma: Cocycle, a: int) -> Cocycle:
    """Shift theta so the neutral moves from (a, 1) to (0, 1).

    theta'[x][y] = theta[x][y] + phi[x][y](a) + psi[x][y](a) - a; the two
    extensions are isomorphic through (b, y) -> (b - a, y).
    """
    found = lemma31_analyze(gamma)
    if found is None or found[0] != a:
        raise NotNeutralAt(f"extension neutral is {found}, not ({a}, 1)")
    A = gamma.A
    theta = tuple(
        tuple(
            A.sub(
                A.add(
                    A.add(gamma.theta[x][y], gamma.phi[x][y](a)),
                    gamma.psi[x][y](a),
                ),
                a,
            )
            for y in range(gamma.F.order)
        )
        for x in range(gamma.F.order)
    )
    return Cocycle(gamma.A, gamma.F, gamma.phi, gamma.psi, theta)


# -- decomposition -----------------------------------------------------------


def extract_cocycle(Q: LoopTable, A: Subloop):
    """Raw cocycle extraction against the canonical transversal.

    Returns (cocycle, transversal) or None when any step fails: the fiber
    is not a commutative group, some map does not restrict to an
    automorphism of the fiber, the border conditions fail, or the rebuilt
    table does not match Q under (a, x) -> a*x.  Normality of A is
    assumed (checked by the callers).  Every map is formed for all cells
    at once, as (k, k, |A|) arrays over the k coset representatives.
    """
    try:
        fiber = AbelianGroupTable(A.induced_table())
    except NotAbelianGroup:
        return None
    n, na = Q.order, fiber.order
    mul, rdiv = Q.mul, Q.rdiv
    idx = np.fromiter(A.elements, dtype=np.int64)
    rep = coset_representatives(Q, A)
    rep[rep == rep[Q.neutral]] = Q.neutral  # the neutral represents the fiber
    reps = np.unique(rep)
    k = len(reps)
    xy = mul[np.ix_(reps, reps)]
    try:
        F = LoopTable(np.searchsorted(reps, rep[xy]))
    except (NotLatin, NoNeutral):
        return None
    pos = np.full(n, -1, dtype=np.int64)
    pos[idx] = np.arange(na)
    by = mul[idx][:, reps].T  # by[y, b] = b y
    # phi = R_{y,x}|_A : b -> ((b x) y) / (x y), at the representatives only
    phi = rdiv[mul[by[:, None, :], reps[:, None]], xy[:, :, None]]
    # psi = (R_{xy}^-1 L_x R_y)|_A : b -> (x (b y)) / (x y)
    psi = rdiv[mul[reps[:, None, None], by], xy[:, :, None]]
    maps = pos[np.stack((phi, psi))]
    theta = pos[rdiv[xy, rep[xy]]]
    if (maps < 0).any() or (theta < 0).any():
        return None  # an image escapes the fiber
    if (np.sort(maps, axis=-1) != np.arange(na)).any():
        return None  # a map is not a bijection of the fiber
    rows = list(map(tuple, maps.reshape(-1, na).tolist()))
    wrapped = {r: Permutation._wrap(r) for r in dict.fromkeys(rows)}  # once per map
    perms = [wrapped[r] for r in rows]
    phi_grid, psi_grid = (
        tuple(tuple(perms[i : i + k]) for i in range(start, start + k * k, k))
        for start in (0, k * k)
    )
    try:
        gamma = Cocycle(fiber, F, phi_grid, psi_grid, tuple(map(tuple, theta.tolist())))
    except CocycleInvalid:
        return None
    if validate_cocycle(gamma):
        return None
    # verify the canonical map (a, x) -> a * x is an isomorphism, cell by cell
    witness = mul[np.ix_(idx, reps)].T.ravel()
    if len(np.unique(witness)) != n:
        return None
    built = _raw_extension_table(gamma)
    if not np.array_equal(witness[built], mul[np.ix_(witness, witness)]):
        return None
    return gamma, reps.tolist()


def decompose_extension(Q: LoopTable, A: Subloop):
    """Cocycle and transversal for Q over the fiber A.

    Requires the syntactic abelianess conditions (the hypothesis the
    construction consumes); raises NotNormal / NotAbelianIn otherwise.
    """
    from .commutator import is_abelian_in_A3

    if not is_normal(Q, A):
        raise NotNormal("fiber must be a normal subloop")
    if not is_abelian_in_A3(Q, A):
        raise NotAbelianIn("fiber fails the syntactic abelianess conditions")
    result = extract_cocycle(Q, A)
    if result is None:
        raise AssertionError("extraction failed despite abelianess conditions")
    return result


# -- multiplication group element shapes --------------------------------------


@dataclass(frozen=True)
class FiberAffineForm:
    """Components of gamma(a, x) = (c_x + twist_x(a), base_map(x))."""

    shifts: tuple[int, ...]
    twists: tuple[Permutation, ...]
    base_map: Permutation
    twists_all_identity: bool
    inner: bool


def mlt_element_form(gamma: Cocycle, perm: Permutation) -> FiberAffineForm | None:
    """Extract the fiber-affine components of a permutation of A x F.

    Returns None when the permutation does not respect fibers or some
    fiber action is not affine over an automorphism.  The inner flag
    reports the membership test: shift at F's neutral is zero and the
    base map lies in the stabilizer of F's neutral inside Mlt(F).
    """
    A, F = gamma.A, gamma.F
    na, nf = A.order, F.order
    if perm.degree != na * nf:
        return None
    imgs = np.asarray(perm.images, dtype=np.int64)
    shifts, twists, base = [], [], []
    add = A.table.mul
    for x in range(nf):
        block = imgs[x * na : (x + 1) * na]
        targets = set((block // na).tolist())
        if len(targets) != 1:
            return None
        base.append(targets.pop())
        fiber_part = block % na
        c_x = int(fiber_part[A.zero])
        twist = [A.sub(int(v), c_x) for v in fiber_part]
        if sorted(twist) != list(range(na)):
            return None
        if not _additive(A, np.asarray([twist]))[0]:
            return None
        twist_perm = Permutation(twist)
        shifts.append(c_x)
        twists.append(twist_perm)
    if sorted(base) != list(range(nf)):
        return None
    base_map = Permutation(base)
    mlt_f = assoc_group(F, "MLT")
    inner = (
        shifts[F.neutral] == A.zero
        and base_map(F.neutral) == F.neutral
        and base_map in mlt_f
    )
    return FiberAffineForm(
        tuple(shifts),
        tuple(twists),
        base_map,
        all(t.is_identity() for t in twists),
        inner,
    )


# -- search --------------------------------------------------------------------


def free_cells(F: LoopTable, central: bool = False):
    """Cocycle cells not pinned by the loop-cocycle border conditions.

    Returns (phi_cells, psi_cells, theta_cells) in row-major order.
    """
    one = F.neutral
    k = F.order
    if central:
        phi_cells: list = []
        psi_cells: list = []
    else:
        phi_cells = [(x, y) for x in range(k) for y in range(k) if y != one]
        psi_cells = [(x, y) for x in range(k) for y in range(k) if x != one]
    theta_cells = [
        (x, y) for x in range(k) for y in range(k) if x != one and y != one
    ]
    return phi_cells, psi_cells, theta_cells


def cocycle_space_size(A: AbelianGroupTable, F: LoopTable, central: bool = False) -> int:
    phi_cells, psi_cells, theta_cells = free_cells(F, central)
    naut = len(automorphisms(A))
    return naut ** (len(phi_cells) + len(psi_cells)) * A.order ** len(theta_cells)


def _assemble(A, F, auts, phi_cells, psi_cells, theta_cells, values) -> Cocycle:
    k = F.order
    ident = Permutation.identity(A.order)
    phi = [[ident] * k for _ in range(k)]
    psi = [[ident] * k for _ in range(k)]
    theta = [[A.zero] * k for _ in range(k)]
    i = 0
    for (x, y) in phi_cells:
        phi[x][y] = auts[values[i]]
        i += 1
    for (x, y) in psi_cells:
        psi[x][y] = auts[values[i]]
        i += 1
    for (x, y) in theta_cells:
        theta[x][y] = values[i]
        i += 1
    return Cocycle(
        A,
        F,
        tuple(tuple(row) for row in phi),
        tuple(tuple(row) for row in psi),
        tuple(tuple(row) for row in theta),
    )


def iter_cocycles_exhaustive(A: AbelianGroupTable, F: LoopTable, central: bool = False):
    """All loop cocycles in lexicographic cell-assignment order."""
    size = cocycle_space_size(A, F, central)
    if size > EXHAUSTIVE_SPACE_CAP:
        raise CapExceeded(f"exhaustive space {size} exceeds {EXHAUSTIVE_SPACE_CAP}")
    phi_cells, psi_cells, theta_cells = free_cells(F, central)
    auts = automorphisms(A)
    naut = len(auts)
    ranges = [range(naut)] * (len(phi_cells) + len(psi_cells)) + [
        range(A.order)
    ] * len(theta_cells)
    for values in itertools.product(*ranges):
        yield _assemble(A, F, auts, phi_cells, psi_cells, theta_cells, values)


def iter_cocycles_random(
    A: AbelianGroupTable, F: LoopTable, seed: int, budget: int, central: bool = False
):
    """budget seeded random loop cocycles; duplicates permitted."""
    phi_cells, psi_cells, theta_cells = free_cells(F, central)
    auts = automorphisms(A)
    naut = len(auts)
    rng = SplitMix64(seed)
    for _ in range(budget):
        values = [rng.below(naut) for _ in range(len(phi_cells) + len(psi_cells))]
        values += [rng.below(A.order) for _ in range(len(theta_cells))]
        yield _assemble(A, F, auts, phi_cells, psi_cells, theta_cells, values)


def search_cocycles(
    A: AbelianGroupTable,
    F: LoopTable,
    predicate,
    mode: str = "exhaustive",
    seed: int = 0,
    budget: int | None = None,
    central: bool = False,
):
    """Stream of (cocycle, built table) hits satisfying the predicate.

    budget caps the candidates: the first budget cocycles of the
    exhaustive order (all when None), or budget random draws (none when
    None)."""
    if mode == "exhaustive":
        candidates = itertools.islice(iter_cocycles_exhaustive(A, F, central), budget)
    elif mode == "random":
        candidates = iter_cocycles_random(A, F, seed, budget or 0, central)
    else:
        raise ValueError(f"unknown search mode {mode!r}")
    for gamma in candidates:
        table = build_extension(gamma)
        if predicate(table):
            yield gamma, table


# -- cocycle file format ---------------------------------------------------------


def format_cocycle(gamma: Cocycle) -> str:
    auts = automorphisms(gamma.A)
    index_of = {p: i for i, p in enumerate(auts)}
    lines = ["A", format_table(gamma.A.table).rstrip("\n"), "F",
             format_table(gamma.F).rstrip("\n")]
    lines.append("PHI")
    for row in gamma.phi:
        lines.append(" ".join(str(index_of[p]) for p in row))
    lines.append("PSI")
    for row in gamma.psi:
        lines.append(" ".join(str(index_of[p]) for p in row))
    lines.append("THETA")
    for row in gamma.theta:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_cocycle(text: str) -> Cocycle:
    lines = [ln for ln in text.splitlines() if not ln.lstrip().startswith("#")]
    lines = [ln.strip() for ln in lines if ln.strip()]
    sections: dict[str, list[str]] = {}
    current = None
    for ln in lines:
        if ln in ("A", "F", "PHI", "PSI", "THETA"):
            if ln in sections:
                raise Malformed(f"duplicate section {ln}")
            current = ln
            sections[ln] = []
        elif current is None:
            raise Malformed(f"content before first section: {ln!r}")
        else:
            sections[current].append(ln)
    for needed in ("A", "F", "PHI", "PSI", "THETA"):
        if needed not in sections:
            raise Malformed(f"missing section {needed}")
    A = AbelianGroupTable(parse_table("\n".join(sections["A"])))
    F = parse_table("\n".join(sections["F"]))
    auts = automorphisms(A)
    k = F.order

    def read_grid(name, bound):
        rows = sections[name]
        if len(rows) != k:
            raise Malformed(f"{name} must have {k} rows")
        grid = []
        for ln in rows:
            try:
                row = [int(tok) for tok in ln.split()]
            except ValueError:
                raise Malformed(f"bad token in {name} row {ln!r}") from None
            if len(row) != k:
                raise Malformed(f"{name} row has {len(row)} entries, expected {k}")
            if any(v < 0 or v >= bound for v in row):
                raise Malformed(f"{name} index out of range")
            grid.append(row)
        return grid

    phi_idx = read_grid("PHI", len(auts))
    psi_idx = read_grid("PSI", len(auts))
    theta = read_grid("THETA", A.order)
    phi = tuple(tuple(auts[v] for v in row) for row in phi_idx)
    psi = tuple(tuple(auts[v] for v in row) for row in psi_idx)
    return Cocycle(A, F, phi, psi, tuple(tuple(row) for row in theta))
