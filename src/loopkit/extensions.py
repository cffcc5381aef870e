"""Cocycles and abelian/central extensions of an abelian group by a loop.

An extension multiplies pairs over a cocycle (phi, psi, theta):

    (a, x) * (b, y) = (phi[x][y](a) + psi[x][y](b) + theta[x][y], x*y)

with pair (a, x) encoded as index a + |A|*x, so fibers are contiguous
blocks.  A Cocycle holds phi and psi as (k, k, |A|) image arrays, so
phi[x][y](a) is phi[x, y, a], and theta as a (k, k) array.  A *loop*
cocycle pins the border cells (phi[y][1] = id, psi[1][y] = id,
theta[1][y] = theta[y][1] = 0) which makes (0, 1) the neutral element.
Divisions have closed forms which the tests compare cell-by-cell against
the built table.  The table, the closed forms and the extraction below
are whole-array: all k^2 fiber blocks are formed in one gather over a
(k, k, |A|, |A|) array, k = |F|.

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

from .core import (
    LoopTable, _integer_square, format_table, isomorphisms, latin_neutral, parse_table,
)
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
from .perm import Permutation
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
    """All additive bijections fixing zero, in lexicographic image order."""
    return [Permutation._wrap(tuple(images)) for images in _automorphism_images(A).tolist()]


def _automorphism_images(A: AbelianGroupTable) -> np.ndarray:
    """The automorphisms as one read-only (naut, |A|) image array, in the
    lexicographic order isomorphisms() yields them, enumerated once per
    table."""

    def enumerate_automorphisms():
        if A.order > AUTOMORPHISM_CAP:
            raise CapExceeded(
                f"automorphism enumeration of order {A.order} exceeds cap {AUTOMORPHISM_CAP}"
            )
        out = np.array(list(isomorphisms(A.table, A.table)), dtype=np.int64)
        out.setflags(write=False)
        return out

    return A.table.memo("automorphisms", enumerate_automorphisms)


def _additive(A: AbelianGroupTable, images: np.ndarray) -> np.ndarray:
    """Per row of an (m, |A|) array of maps of A: whether it is additive."""
    add = A.table.mul
    return (images[:, add] == add[images[:, :, None], images[:, None, :]]).all(axis=(1, 2))


def _grid(name: str, value, shape: tuple, bound: int | None = None) -> np.ndarray:
    """A read-only int64 copy of value, which numpy must read as an
    integer array of the given shape, with entries in 0..bound-1 when a
    bound is given."""
    try:
        arr = np.array(value)
    except (TypeError, ValueError):  # ragged rows
        arr = None
    if arr is None or arr.shape != shape:
        raise CocycleInvalid(f"{name} grid has wrong shape")
    if arr.dtype.kind not in "iu":
        raise CocycleInvalid(f"{name} entries must be integers")
    arr = arr.astype(np.int64, copy=False)
    if bound is not None and (arr.min() < 0 or arr.max() >= bound):
        raise CocycleInvalid(f"{name} entry out of range")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Cocycle:
    """The triple (phi, psi, theta) over an abelian group A and loop F.

    phi and psi are (k, k, |A|) arrays whose cell [x, y] holds the images
    of an automorphism of A (checked); theta is a (k, k) array of
    A-elements.  The constructor copies what it is given into read-only
    int64 arrays; equal cocycles hash alike.  The loop-cocycle border
    conditions are checked by validate_cocycle.
    """

    A: AbelianGroupTable
    F: LoopTable
    phi: np.ndarray
    psi: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        k, na = self.F.order, self.A.order
        for name, shape in (("phi", (k, k, na)), ("psi", (k, k, na))):
            object.__setattr__(self, name, _grid(name, getattr(self, name), shape))
        object.__setattr__(self, "theta", _grid("theta", self.theta, (k, k), na))
        # every cell at once, phi then psi row-major, so the first bad row
        # names the first bad cell
        maps = np.concatenate((self.phi, self.psi)).reshape(2 * k * k, na)
        ok = (np.sort(maps, axis=1) == np.arange(na)).all(axis=1)
        ok[ok] = _additive(self.A, maps[ok])
        if not ok.all():
            grid, x, y = np.unravel_index(np.argmin(ok), (2, k, k))
            raise CocycleInvalid(
                f"{('phi', 'psi')[grid]}[{x}][{y}] is not an automorphism of A"
            )

    def _key(self):
        return (self.A, self.F, self.phi.tobytes(), self.psi.tobytes(), self.theta.tobytes())

    def __eq__(self, other):
        return isinstance(other, Cocycle) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def is_central(self) -> bool:
        ident = np.arange(self.A.order)
        return bool((self.phi == ident).all() and (self.psi == ident).all())


def trivial_cocycle(A: AbelianGroupTable, F: LoopTable) -> Cocycle:
    k, na = F.order, A.order
    ident = np.broadcast_to(np.arange(na), (k, k, na))
    return Cocycle(A, F, ident, ident, np.full((k, k), A.zero))


def validate_cocycle(gamma: Cocycle) -> list[str]:
    """Loop-cocycle border diagnostics; empty exactly for a loop cocycle."""
    one = gamma.F.neutral
    zero = gamma.A.zero
    ident = list(range(gamma.A.order))
    phi_col, psi_row = gamma.phi[:, one].tolist(), gamma.psi[one].tolist()
    theta = gamma.theta.tolist()
    out = []
    for y in range(gamma.F.order):
        if phi_col[y] != ident:
            out.append(f"phi border: phi[{y}][{one}] != id")
        if psi_row[y] != ident:
            out.append(f"psi border: psi[{one}][{y}] != id")
        if theta[one][y] != zero:
            out.append(f"theta border: theta[{one}][{y}] != 0")
        if theta[y][one] != zero:
            out.append(f"theta border: theta[{y}][{one}] != 0")
    return out


def pair_index(gamma: Cocycle, a: int, x: int) -> int:
    return a + gamma.A.order * x


def _from_blocks(blocks: np.ndarray) -> np.ndarray:
    """The (k*|A|, k*|A|) table whose fiber block (x, y) is blocks[x, y]."""
    k, _, na, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(k * na, k * na)


def _extension_rows(A: AbelianGroupTable, f: np.ndarray, phi, psi, theta) -> np.ndarray:
    """Product table of the pairs over any Latin square f (loop or not)."""
    add = A.table.mul
    blocks = add[add[phi[:, :, :, None], psi[:, :, None, :]], theta[:, :, None, None]]
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
    phi, psi, theta = gamma.phi, gamma.psi, gamma.theta
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
    psi are (k, k, |A|) image arrays of automorphisms of A and theta a
    (k, k) array of A-elements.  The four displayed neutral conditions are
    checked directly and the answer is cross-validated by scanning the raw
    product table.  A square that is not one of integers raises Malformed,
    a grid of the wrong shape, of non-integers or with an entry outside
    0..|A|-1 CocycleInvalid.
    """
    f = _integer_square(f_rows)
    k, na = len(f), A.order
    phi, psi = (_grid(name, g, (k, k, na), na) for name, g in (("phi", phi), ("psi", psi)))
    theta = _grid("theta", theta, (k, k), na)
    one = latin_neutral(f)
    answer = None
    ident = np.arange(A.order)
    if one is not None and (phi[:, one] == ident).all() and (psi[one] == ident).all():
        # a is neutral iff phi[1][y](a) + theta[1][y] = 0 = psi[y][1](a) + theta[y][1]
        add = A.table.mul
        sums = np.concatenate((add[phi[one].T, theta[one]], add[psi[:, one].T, theta[:, one]]), 1)
        hits = np.flatnonzero((sums == A.zero).all(axis=1))
        if len(hits):
            answer = (int(hits[0]), one)
    # cross-validate against the raw product table
    e = latin_neutral(_extension_rows(A, f, phi, psi, theta))
    scan = None if e is None else (e % A.order, e // A.order)
    if answer != scan:
        raise AssertionError("neutral analysis disagrees with table scan")
    return answer


def lemma31_analyze(gamma: Cocycle):
    """Neutral pair (a, x) of the extension over gamma, if one exists."""
    return lemma31_analyze_raw(gamma.A, gamma.F.mul, gamma.phi, gamma.psi, gamma.theta)


def normalize_cocycle(gamma: Cocycle, a: int) -> Cocycle:
    """Shift theta so the neutral moves from (a, 1) to (0, 1).

    theta'[x][y] = theta[x][y] + phi[x][y](a) + psi[x][y](a) - a; the two
    extensions are isomorphic through (b, y) -> (b - a, y).
    """
    found = lemma31_analyze(gamma)
    if found is None or found[0] != a:
        raise NotNeutralAt(f"extension neutral is {found}, not ({a}, 1)")
    A = gamma.A
    add = A.table.mul
    theta = add[add[add[gamma.theta, gamma.phi[:, :, a]], gamma.psi[:, :, a]], A.neg[a]]
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
    Memoised on Q per element tuple; each call gets a fresh transversal list.
    """
    result = Q.memo(("extract_cocycle", A.elements), lambda: _extract_cocycle(Q, A))
    return None if result is None else (result[0], list(result[1]))


def _extract_cocycle(Q: LoopTable, A: Subloop):
    try:
        fiber = AbelianGroupTable(A.induced_table())
    except NotAbelianGroup:
        return None
    n, na = Q.order, fiber.order
    mul, rdiv = Q.mul, Q.rdiv
    idx = np.fromiter(A.elements, dtype=np.int64)
    rep = coset_representatives(Q, A).copy()
    rep[rep == rep[Q.neutral]] = Q.neutral  # the neutral represents the fiber
    reps = np.flatnonzero(np.bincount(rep, minlength=n))  # np.unique would import numpy.ma
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
    # an image outside the fiber is -1, which Cocycle rejects with any
    # map that is not an automorphism of the fiber
    try:
        gamma = Cocycle(fiber, F, pos[phi], pos[psi], pos[rdiv[xy, rep[xy]]])
    except CocycleInvalid:
        return None
    if validate_cocycle(gamma):
        return None
    # verify the canonical map (a, x) -> a * x is an isomorphism, cell by cell
    witness = mul[np.ix_(idx, reps)].T.ravel()
    if np.count_nonzero(np.bincount(witness, minlength=n)) != n:
        return None
    built = _raw_extension_table(gamma)
    if not np.array_equal(witness[built], mul[np.ix_(witness, witness)]):
        return None
    return gamma, tuple(reps.tolist())


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
    blocks = np.asarray(perm.images, dtype=np.int64).reshape(nf, na)
    targets = blocks // na
    if (targets != targets[:, :1]).any():  # some block leaves its fiber
        return None
    # a block sent into one fiber is sent onto it, so base map and twists
    # are bijections; twist_x(a) = c_x \ fiber image of (a, x)
    fiber = blocks % na
    shifts = fiber[:, A.zero]
    twists = A.table.ldiv[shifts[:, None], fiber]
    if not _additive(A, twists).all():
        return None
    shifts = tuple(shifts.tolist())
    twists = tuple(Permutation._wrap(tuple(t)) for t in twists.tolist())
    base_map = Permutation._wrap(tuple(targets[:, 0].tolist()))
    mlt_f = assoc_group(F, "MLT")
    inner = (
        shifts[F.neutral] == A.zero
        and base_map(F.neutral) == F.neutral
        and base_map in mlt_f
    )
    return FiberAffineForm(
        shifts, twists, base_map, all(t.is_identity() for t in twists), inner
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
    naut = len(_automorphism_images(A))
    return naut ** (len(phi_cells) + len(psi_cells)) * A.order ** len(theta_cells)


def _free_positions(F: LoopTable, central: bool):
    """The free cells as positions in one flat vector of the 3 k^2 cell
    values (phi row-major, then psi, then theta), with the number of
    free map cells, which come first."""
    k = F.order
    cells = free_cells(F, central)
    free = [part * k * k + x * k + y for part, grid in enumerate(cells) for x, y in grid]
    return np.array(free, dtype=np.int64), len(cells[0]) + len(cells[1])


def _assemble(A, F, auts, free, values) -> Cocycle:
    """The loop cocycle whose free cells take values: indices into the
    automorphism images auts for map cells, A-elements for theta cells.
    Pinned cells are the identity, auts[0] (the least permutation of
    all), and zero."""
    k = F.order
    cells = np.zeros(3 * k * k, dtype=np.int64)
    cells[2 * k * k :] = A.zero
    cells[free] = values
    maps = auts[cells[: 2 * k * k]].reshape(2, k, k, A.order)
    return Cocycle(A, F, maps[0], maps[1], cells[2 * k * k :].reshape(k, k))


def iter_cocycles_exhaustive(A: AbelianGroupTable, F: LoopTable, central: bool = False):
    """All loop cocycles in lexicographic cell-assignment order."""
    size = cocycle_space_size(A, F, central)
    if size > EXHAUSTIVE_SPACE_CAP:
        raise CapExceeded(f"exhaustive space {size} exceeds {EXHAUSTIVE_SPACE_CAP}")
    free, n_maps = _free_positions(F, central)
    auts = _automorphism_images(A)
    ranges = [range(len(auts))] * n_maps + [range(A.order)] * (len(free) - n_maps)
    for values in itertools.product(*ranges):
        yield _assemble(A, F, auts, free, values)


def iter_cocycles_random(
    A: AbelianGroupTable, F: LoopTable, seed: int, budget: int, central: bool = False
):
    """budget seeded random loop cocycles; duplicates permitted."""
    free, n_maps = _free_positions(F, central)
    auts = _automorphism_images(A)
    naut = len(auts)
    rng = SplitMix64(seed)
    for _ in range(budget):
        values = [rng.below(naut) for _ in range(n_maps)]
        values += [rng.below(A.order) for _ in range(len(free) - n_maps)]
        yield _assemble(A, F, auts, free, values)


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
    auts = _automorphism_images(gamma.A)
    lines = ["A", format_table(gamma.A.table).rstrip("\n"), "F",
             format_table(gamma.F).rstrip("\n")]

    def indices(maps):  # each cell's map is exactly one row of auts
        return (maps[:, :, None] == auts).all(axis=-1).argmax(axis=-1)

    grids = (("PHI", indices(gamma.phi)), ("PSI", indices(gamma.psi)), ("THETA", gamma.theta))
    for name, grid in grids:
        lines.append(name)
        lines.extend(" ".join(map(str, row)) for row in grid.tolist())
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
    auts = _automorphism_images(A)
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
    return Cocycle(A, F, auts[phi_idx], auts[psi_idx], theta)
