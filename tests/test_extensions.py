import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopkit import (
    AbelianGroupTable,
    Cocycle,
    LoopTable,
    Permutation,
    Subloop,
    all_normal_subloops,
    automorphisms,
    build_extension,
    decompose_extension,
    direct_product,
    division_closed_forms,
    format_cocycle,
    is_isomorphic,
    lemma31_analyze,
    mlt_element_form,
    normalize_cocycle,
    parse_cocycle,
    search_cocycles,
    trivial_cocycle,
    validate_cocycle,
)
from loopkit.cli import PRESETS
from loopkit.errors import CapExceeded, CocycleInvalid, Malformed, NotAbelianGroup, NotNeutralAt
from loopkit import extensions
from loopkit.extensions import (
    cocycle_space_size,
    extract_cocycle,
    iter_cocycles_exhaustive,
    iter_cocycles_random,
    pair_index,
)
from loopkit.commutator import is_abelian_in_A4, is_central_in
from loopkit.multgrp import inner_generator
from loopkit.structure import coset_representatives
from loopkit.tables import cyclic, elementary_abelian, klein, symmetric

from conftest import extract_cocycle_oracle

Z2 = AbelianGroupTable(cyclic(2))
Z3 = AbelianGroupTable(cyclic(3))
Z4 = AbelianGroupTable(cyclic(4))
K4 = AbelianGroupTable(klein())

IDENT2 = Permutation.identity(2).images
GRID2 = ((IDENT2, IDENT2), (IDENT2, IDENT2))


def z4_cocycle():
    return Cocycle(Z2, cyclic(2), GRID2, GRID2, ((0, 0), (0, 1)))


# -- automorphisms ------------------------------------------------------------


@pytest.mark.parametrize(
    "table, count",
    [(Z2, 1), (Z3, 2), (Z4, 2), (K4, 6), (AbelianGroupTable(elementary_abelian(2, 3)), 168)],
)
def test_automorphism_counts(table, count):
    auts = automorphisms(table)
    assert len(auts) == count
    assert auts == sorted(auts, key=lambda p: p.images)


def test_automorphisms_by_brute_force():
    """On every abelian group table of order <= 9: the permutations fixing
    the neutral, in lexicographic order, that are additive."""
    tables = {f"Z{n}": cyclic(n) for n in range(1, 10)}
    tables.update(
        K4=klein(),
        Z4xZ2=direct_product(cyclic(4), cyclic(2)),
        Z2xZ4=direct_product(cyclic(2), cyclic(4)),
        Z2cubed=elementary_abelian(2, 3),
        Z3squared=elementary_abelian(3, 2),
    )
    for name, t in tables.items():
        n, e = t.order, t.neutral
        others = [x for x in range(n) if x != e]
        perms = np.array(list(itertools.permutations(others)), dtype=np.int64)
        perms = np.insert(perms, e, e, axis=1)  # still in lexicographic order
        mul = t.mul
        additive = (perms[:, mul] == mul[perms[:, :, None], perms[:, None, :]]).all(axis=(1, 2))
        images = extensions._automorphism_images(AbelianGroupTable(t))
        assert images.dtype == np.int64 and not images.flags.writeable, name
        assert np.array_equal(images, perms[additive]), name
        auts = automorphisms(AbelianGroupTable(t))
        assert [list(p.images) for p in auts] == images.tolist(), name


def test_automorphism_cap():
    with pytest.raises(CapExceeded, match="automorphism enumeration of order 11 exceeds cap 10"):
        automorphisms(AbelianGroupTable(cyclic(11)))


def test_abelian_group_table_rejects_nonabelian():
    with pytest.raises(NotAbelianGroup):
        AbelianGroupTable(symmetric(3))


# -- validation ----------------------------------------------------------------


def test_validate_trivial_cocycle_is_clean():
    assert validate_cocycle(trivial_cocycle(Z3, cyclic(2))) == []


def test_validate_flags_theta_border():
    gamma = Cocycle(Z2, cyclic(2), GRID2, GRID2, ((0, 1), (0, 0)))
    problems = validate_cocycle(gamma)
    assert len(problems) == 1 and "theta border" in problems[0]


def test_validate_flags_phi_border():
    neg3 = Permutation((0, 2, 1)).images
    id3 = Permutation.identity(3).images
    phi = ((id3, id3), (neg3, id3))
    psi = ((id3, id3), (id3, id3))
    gamma = Cocycle(Z3, cyclic(2), phi, psi, ((0, 0), (0, 0)))
    problems = validate_cocycle(gamma)
    assert any("phi border" in p for p in problems)
    with pytest.raises(CocycleInvalid):
        build_extension(gamma)


def test_cocycle_entries_must_be_automorphisms():
    swap = Permutation((1, 0)).images  # moves zero: not additive on Z2? it is a bijection only
    with pytest.raises(CocycleInvalid):
        Cocycle(Z2, cyclic(2), ((swap, IDENT2), (IDENT2, IDENT2)), GRID2, ((0, 0), (0, 0)))


def test_cocycle_names_a_single_bad_cell():
    bad = Permutation((0, 1, 3, 2)).images  # fixes zero but 1 + 1 = 2 goes to 3
    id4 = Permutation.identity(4).images
    grid = ((id4, id4), (id4, id4))
    with pytest.raises(CocycleInvalid, match=r"^psi\[1\]\[0\] is not an automorphism"):
        Cocycle(Z4, cyclic(2), grid, ((id4, id4), (bad, id4)), ((0, 0), (0, 0)))


@pytest.mark.parametrize(
    "cells, first",
    [
        ({("psi", 0, 1), ("psi", 1, 0), ("phi", 1, 1)}, "phi[1][1]"),
        ({("psi", 1, 1), ("psi", 0, 1)}, "psi[0][1]"),
        ({("phi", 1, 0), ("phi", 0, 1), ("psi", 0, 0)}, "phi[0][1]"),
    ],
)
def test_cocycle_names_first_bad_cell_phi_then_psi(cells, first):
    bad = Permutation((0, 1, 3, 2)).images
    id4 = Permutation.identity(4).images
    phi, psi = (
        tuple(
            tuple(bad if (name, x, y) in cells else id4 for y in range(2)) for x in range(2)
        )
        for name in ("phi", "psi")
    )
    with pytest.raises(CocycleInvalid) as err:
        Cocycle(Z4, cyclic(2), phi, psi, ((0, 0), (0, 0)))
    assert str(err.value) == f"{first} is not an automorphism of A"


def _z4_grids():
    ident = np.broadcast_to(np.arange(4), (2, 2, 4))
    return ident.copy(), ident.copy(), np.zeros((2, 2), dtype=np.int64)


def test_cocycle_rejects_an_additive_map_that_is_not_a_bijection():
    phi, psi, theta = _z4_grids()
    phi[1, 1] = 0  # the zero map of Z4 is additive
    with pytest.raises(CocycleInvalid, match=r"^phi\[1\]\[1\] is not an automorphism of A$"):
        Cocycle(Z4, cyclic(2), phi, psi, theta)


@pytest.mark.parametrize("image", [4, -1, 2**40])
def test_cocycle_rejects_an_image_out_of_range(image):
    phi, psi, theta = _z4_grids()
    psi[0, 1, 3] = image
    with pytest.raises(CocycleInvalid, match=r"^psi\[0\]\[1\] is not an automorphism of A$"):
        Cocycle(Z4, cyclic(2), phi, psi, theta)


def test_cocycle_rejects_grids_of_the_wrong_shape():
    phi, psi, theta = _z4_grids()
    with pytest.raises(CocycleInvalid, match=r"^psi grid has wrong shape$"):
        Cocycle(Z4, cyclic(2), phi, theta, theta)  # a (k, k) grid for a map grid
    with pytest.raises(CocycleInvalid, match=r"^theta grid has wrong shape$"):
        Cocycle(Z4, cyclic(2), phi, psi, phi)
    with pytest.raises(CocycleInvalid, match=r"^phi grid has wrong shape$"):
        Cocycle(Z4, cyclic(2), [[(0, 1, 2, 3)], [(0, 1, 2, 3), (0, 1, 2, 3)]], psi, theta)
    with pytest.raises(CocycleInvalid, match=r"^theta entries must be integers$"):
        Cocycle(Z4, cyclic(2), phi, psi, theta + 0.5)


def test_cocycle_owns_read_only_copies_of_its_grids():
    phi, psi, theta = _z4_grids()
    theta[1, 1] = 1
    gamma = Cocycle(Z4, cyclic(2), phi, psi, theta)
    want = (gamma.phi.copy(), gamma.psi.copy(), gamma.theta.copy())
    phi[1, 1] = (0, 3, 2, 1)
    psi[:] = 0
    theta[1, 1] = 2
    assert all(np.array_equal(a, b) for a, b in zip((gamma.phi, gamma.psi, gamma.theta), want))
    assert gamma == Cocycle(Z4, cyclic(2), *want)
    for grid in (gamma.phi, gamma.psi, gamma.theta):
        assert grid.dtype == np.int64 and not grid.flags.writeable


def test_cocycle_hash_survives_the_file_round_trip():
    for seed in range(5):
        gamma = next(iter(iter_cocycles_random(K4, cyclic(3), seed=seed, budget=1)))
        back = parse_cocycle(format_cocycle(gamma))
        assert back == gamma and hash(back) == hash(gamma)
        assert len({gamma, back}) == 1
    assert isinstance(trivial_cocycle(K4, cyclic(3)).is_central(), bool)


# -- building -------------------------------------------------------------------


def test_trivial_cocycle_builds_direct_product():
    for a, f in [(Z2, cyclic(3)), (Z3, cyclic(2)), (K4, cyclic(2))]:
        assert build_extension(trivial_cocycle(a, f)) == direct_product(a.table, f)


def test_central_twist_builds_z4():
    q = build_extension(z4_cocycle())
    assert is_isomorphic(q, cyclic(4)) is not None


@given(st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_division_closed_forms_match_tables(seed):
    gamma = next(iter(iter_cocycles_random(Z4, cyclic(2), seed=seed, budget=1)))
    q = build_extension(gamma)
    ld, rd = division_closed_forms(gamma)
    assert np.array_equal(ld, q.ldiv)
    assert np.array_equal(rd, q.rdiv)


# -- neutral analysis -------------------------------------------------------------


def test_lemma31_loop_cocycle():
    assert lemma31_analyze(z4_cocycle()) == (0, 0)


def _shift_theta(gamma, a):
    A = gamma.A
    theta = tuple(
        tuple(
            A.add(
                A.sub(A.sub(gamma.theta[x, y], gamma.phi[x, y, a]), gamma.psi[x, y, a]),
                a,
            )
            for y in range(gamma.F.order)
        )
        for x in range(gamma.F.order)
    )
    return Cocycle(gamma.A, gamma.F, gamma.phi, gamma.psi, theta)


def test_lemma31_shifted_neutral():
    shifted = _shift_theta(z4_cocycle(), 1)
    assert lemma31_analyze(shifted) == (1, 0)


def test_lemma31_violated_condition_means_no_neutral():
    neg3 = Permutation((0, 2, 1)).images
    id3 = Permutation.identity(3).images
    phi_bad = ((id3, id3), (neg3, id3))  # phi[u][1] = negation breaks the border
    psi = ((id3, id3), (id3, id3))
    gamma = Cocycle(Z3, cyclic(2), phi_bad, psi, ((0, 0), (0, 0)))
    assert lemma31_analyze(gamma) is None


def test_lemma31_over_quasigroup_without_neutral():
    from loopkit.extensions import lemma31_analyze_raw

    ident = Permutation.identity(2).images
    grid = tuple(tuple(ident for _ in range(3)) for _ in range(3))
    zeros = tuple(tuple(0 for _ in range(3)) for _ in range(3))
    # subtraction mod 3 is Latin but has no two-sided neutral
    f = ((0, 2, 1), (1, 0, 2), (2, 1, 0))
    assert lemma31_analyze_raw(Z2, f, grid, grid, zeros) is None


@pytest.mark.parametrize(
    "square, message",
    [
        ([[0, 1.5, 2], [1, 2, 0], [2, 0, 1]], "entries must be integers"),
        ([["0", "1", "2"], ["1", "2", "0"], ["2", "0", "1"]], "entries must be integers"),
        ([[0, 1, 2], [1, 2], [2, 0, 1]], "table is not square"),
        ([[0, 1, 3], [1, 2, 0], [2, 0, 1]], "entry out of range"),
    ],
)
def test_lemma31_rejects_malformed_squares(square, message):
    ident = Permutation.identity(2).images
    grid = tuple(tuple(ident for _ in range(3)) for _ in range(3))
    zeros = tuple(tuple(0 for _ in range(3)) for _ in range(3))
    with pytest.raises(Malformed, match=message):
        extensions.lemma31_analyze_raw(Z2, square, grid, grid, zeros)


@pytest.mark.parametrize("bad", ["phi", "psi", "theta"])
def test_lemma31_rejects_non_integer_grids(bad):
    grids = {
        "phi": [[[0, 1], [0, 1]], [[0, 1], [0, 1]]],
        "psi": [[[0, 1], [0, 1]], [[0, 1], [0, 1]]],
        "theta": [[0, 0], [0, 1]],
    }
    assert extensions.lemma31_analyze_raw(Z2, cyclic(2).mul, **grids) == (0, 0)
    grids[bad] = np.array(grids[bad]) + 0.5
    with pytest.raises(CocycleInvalid, match=f"{bad} entries must be integers"):
        extensions.lemma31_analyze_raw(Z2, cyclic(2).mul, **grids)


@pytest.mark.parametrize("bad", ["phi", "psi", "theta"])
@pytest.mark.parametrize("value", [-1, 2])
def test_lemma31_rejects_out_of_range_grids(bad, value):
    """Over Z2 an entry is 0 or 1: -1 must not wrap through negative
    indexing, and 2 = |A| must not index past the table."""
    grids = {
        "phi": [[[0, 1], [0, 1]], [[0, 1], [0, 1]]],
        "psi": [[[0, 1], [0, 1]], [[0, 1], [0, 1]]],
        "theta": [[0, 0], [0, 1]],
    }
    assert extensions.lemma31_analyze_raw(Z2, cyclic(2).mul, **grids) == (0, 0)
    grid = np.array(grids[bad])
    grid.flat[-1] = value
    grids[bad] = grid
    with pytest.raises(CocycleInvalid, match=f"^{bad} entry out of range$"):
        extensions.lemma31_analyze_raw(Z2, cyclic(2).mul, **grids)


def test_normalize_roundtrip_with_explicit_witness():
    base = z4_cocycle()
    shifted = _shift_theta(base, 1)
    normalized = normalize_cocycle(shifted, 1)
    assert np.array_equal(normalized.theta, base.theta)
    from loopkit.extensions import _raw_extension_table

    raw = _raw_extension_table(shifted)
    fixed = build_extension(normalized)
    # explicit isomorphism (b, y) -> (b - a, y)
    a = 1
    f = [pair_index(base, base.A.sub(b, a), y) for y in range(2) for b in range(2)]
    for x, y in itertools.product(range(4), repeat=2):
        assert f[raw[x, y]] == fixed.mul_at(f[x], f[y])


def test_normalize_is_idempotent_once_neutral():
    gamma = z4_cocycle()
    assert np.array_equal(normalize_cocycle(gamma, 0).theta, gamma.theta)


def test_normalize_rejects_wrong_shift():
    with pytest.raises(NotNeutralAt):
        normalize_cocycle(z4_cocycle(), 1)


# -- decomposition ------------------------------------------------------------------


def test_decompose_direct_product_gives_trivial_cocycle():
    q = direct_product(Z3.table, cyclic(2))
    gamma, reps = decompose_extension(q, Subloop(q, (0, 1, 2)))
    assert all(Permutation(p).is_identity() for row in gamma.phi for p in row)
    assert all(Permutation(p).is_identity() for row in gamma.psi for p in row)
    assert all(v == gamma.A.zero for row in gamma.theta for v in row)


@given(st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_decompose_rebuild_roundtrip(seed):
    gamma0 = next(iter(iter_cocycles_random(Z4, cyclic(2), seed=seed, budget=1)))
    q = build_extension(gamma0)
    gamma, reps = decompose_extension(q, Subloop(q, tuple(range(4))))
    assert reps[0] == q.neutral
    rebuilt = build_extension(gamma)
    assert is_isomorphic(rebuilt, q) is not None


def test_decompose_output_satisfies_extra_border():
    gamma0 = next(iter(iter_cocycles_random(K4, cyclic(2), seed=5, budget=1)))
    q = build_extension(gamma0)
    gamma, _ = decompose_extension(q, Subloop(q, tuple(range(4))))
    one = gamma.F.neutral
    for y in range(gamma.F.order):
        assert Permutation(gamma.phi[one, y]).is_identity()


def _extraction_key(result):
    if result is None:
        return None
    gamma, reps = result
    return (
        tuple(tuple(map(tuple, row)) for row in gamma.phi.tolist()),
        tuple(tuple(map(tuple, row)) for row in gamma.psi.tolist()),
        tuple(map(tuple, gamma.theta.tolist())),
        gamma.F.rows,
        reps,
    )


def test_extract_cocycle_matches_scalar_oracle(pool):
    checked = extracted = 0
    for entry in pool:
        Q = entry.table
        for A in all_normal_subloops(Q):
            want = extract_cocycle_oracle(Q, A)
            assert _extraction_key(extract_cocycle(Q, A)) == want, (entry.tag, A.elements)
            checked += 1
            extracted += want is not None
    assert extracted and extracted < checked  # both outcomes are exercised


def test_extract_cocycle_propagates_programming_errors(monkeypatch):
    # only a quotient that is not a loop means "no cocycle"; any other
    # exception from building it is a fault and must surface
    def broken(rows):
        raise IndexError("broken table constructor")

    q = build_extension(z4_cocycle())
    monkeypatch.setattr(extensions, "LoopTable", broken)
    with pytest.raises(IndexError):
        extract_cocycle(q, Subloop(q, (0, 1)))


def test_a4_then_c4_extract_once_per_subloop(monkeypatch):
    """The extraction is kept on the table under the subloop's elements:
    A4 then C4 run it once, and a Subloop rebuilt with the same elements
    reads the same entry."""
    calls = []
    real = extensions._extract_cocycle
    monkeypatch.setattr(
        extensions, "_extract_cocycle", lambda Q, A: calls.append(A.elements) or real(Q, A)
    )
    q = build_extension(z4_cocycle())
    gamma = is_abelian_in_A4(q, Subloop(q, (0, 1)))
    assert gamma is not None and is_central_in(q, Subloop(q, (0, 1)), "C4")
    assert extract_cocycle(q, Subloop(q, (1, 0)))[0] is gamma
    assert calls == [(0, 1)]


def test_memoised_labels_are_read_only_and_transversals_fresh():
    q = build_extension(z4_cocycle())
    A = Subloop(q, (0, 1))
    rep = coset_representatives(q, A)
    with pytest.raises(ValueError):
        rep[0] = 1
    gamma, transversal = extract_cocycle(q, A)
    want = list(transversal)
    transversal[0] = 7
    transversal.append(99)
    assert extract_cocycle(q, A) == (gamma, want)
    assert coset_representatives(q, A) is rep and rep.tolist() == [0, 0, 2, 2]


# -- multiplication group element form ------------------------------------------------


def test_form_of_identity():
    gamma = next(iter(iter_cocycles_random(Z3, cyclic(2), seed=7, budget=1)))
    form = mlt_element_form(gamma, Permutation.identity(6))
    assert form.twists_all_identity and form.base_map.is_identity()
    assert form.shifts == (0, 0) and form.inner


def test_form_of_left_translations_matches_cocycle_rows():
    gamma = next(iter(iter_cocycles_random(Z3, cyclic(2), seed=7, budget=1)))
    q = build_extension(gamma)
    A, F = gamma.A, gamma.F
    for b in range(A.order):
        for y in range(F.order):
            form = mlt_element_form(gamma, q.left_translation(pair_index(gamma, b, y)))
            assert form is not None
            for x in range(F.order):
                assert form.shifts[x] == A.add(gamma.phi[y, x, b], gamma.theta[y, x])
                assert form.twists[x] == Permutation(gamma.psi[y, x])
            assert form.base_map == F.left_translation(y)
            assert form.inner == (y == F.neutral and form.shifts[F.neutral] == A.zero)


def test_form_closed_under_composition_and_inversion():
    gamma = next(iter(iter_cocycles_random(Z4, cyclic(2), seed=3, budget=1)))
    q = build_extension(gamma)
    gens = [q.left_translation(i) for i in range(q.order)]
    gens += [q.right_translation(i) for i in range(q.order)]
    words = gens + [g * h for g in gens[:4] for h in gens[:4]]
    words += [g * h * k for g in gens[:2] for h in gens[:2] for k in gens[:2]]
    for w in words:
        assert mlt_element_form(gamma, w) is not None
        assert mlt_element_form(gamma, w.inverse()) is not None


def test_form_rejects_fiber_breaking_permutation():
    gamma = next(iter(iter_cocycles_random(Z3, cyclic(2), seed=7, budget=1)))
    assert mlt_element_form(gamma, Permutation((1, 2, 3, 4, 5, 0))) is None


def test_form_rejects_wrong_degree():
    gamma = next(iter(iter_cocycles_random(Z3, cyclic(2), seed=7, budget=1)))
    for degree in (5, 7):
        assert mlt_element_form(gamma, Permutation.identity(degree)) is None


def test_form_rejects_non_additive_twist():
    """The permutation keeps both Z4 fibers of Z4 by Z2 in place but twists
    each by a -> (0, 2, 1, 3)[a], which is not additive: it sends 1 + 1 = 2
    to 1, not to 2 + 2 = 0."""
    gamma = next(iter(iter_cocycles_random(Z4, cyclic(2), seed=3, budget=1)))
    twist = (0, 2, 1, 3)
    assert not all(
        twist[(a + b) % 4] == (twist[a] + twist[b]) % 4 for a in range(4) for b in range(4)
    )
    assert mlt_element_form(gamma, Permutation(twist + tuple(4 + v for v in twist))) is None


def test_central_extensions_have_identity_twists():
    gamma = next(
        iter(iter_cocycles_random(Z4, cyclic(3), seed=1, budget=1, central=True))
    )
    q = build_extension(gamma)
    for i in range(q.order):
        for t in (q.left_translation(i), q.right_translation(i)):
            form = mlt_element_form(gamma, t)
            assert form.twists_all_identity


# -- the five displayed word evaluations ------------------------------------------------


def _formula_check(gamma):
    A, F = gamma.A, gamma.F
    phi = [[Permutation(p) for p in row] for row in gamma.phi]
    psi = [[Permutation(p) for p in row] for row in gamma.psi]
    q = build_extension(gamma)
    one = F.neutral
    for c, x, a in itertools.product(range(A.order), range(F.order), range(A.order)):
        base = pair_index(gamma, c, one)
        u = pair_index(gamma, a, x)
        assert inner_generator(q, "T", (u,))(base) == pair_index(
            gamma, phi[one][x].inverse()(psi[x][one](c)), one
        )
        assert inner_generator(q, "U", (u,))(base) == pair_index(gamma, A.neg[c], one)
        for y, b in itertools.product(range(F.order), range(A.order)):
            v = pair_index(gamma, b, y)
            xy, yx, w = F.mul_at(x, y), F.mul_at(y, x), F.ldiv_at(y, x)
            assert inner_generator(q, "L", (u, v))(base) == pair_index(
                gamma,
                psi[xy][one].inverse()(psi[x][y](psi[y][one](c))),
                one,
            )
            assert inner_generator(q, "R", (u, v))(base) == pair_index(
                gamma,
                phi[one][yx].inverse()(phi[y][x](phi[one][y](c))),
                one,
            )
            val = phi[one][w].inverse()(
                psi[y][w].inverse()(phi[y][w](phi[one][y](c)))
            )
            assert inner_generator(q, "M", (u, v))(base) == pair_index(
                gamma, A.neg[val], one
            )


def test_tot_inner_evaluations_match_closed_forms():
    for seed in (1, 9):
        _formula_check(
            next(iter(iter_cocycles_random(Z3, cyclic(2), seed=seed, budget=1)))
        )
    _formula_check(next(iter(iter_cocycles_random(K4, cyclic(2), seed=2, budget=1))))


def test_every_built_extension_has_abelian_fiber():
    # the semantic direction of the characterization: a cocycle
    # presentation forces the fiber to be abelian in the extension
    from loopkit import Subloop, is_abelian_in_A1

    for seed in (0, 1, 2, 3):
        gamma = next(iter(iter_cocycles_random(Z4, cyclic(2), seed=seed, budget=1)))
        q = build_extension(gamma)
        assert is_abelian_in_A1(q, Subloop(q, tuple(range(4))))


# -- search ----------------------------------------------------------------------------


def test_exhaustive_space_sizes():
    assert cocycle_space_size(Z2, cyclic(2)) == 2
    assert cocycle_space_size(Z4, cyclic(2)) == 64
    assert cocycle_space_size(Z3, cyclic(2)) == 48
    assert cocycle_space_size(Z2, cyclic(3), central=True) == 16


def test_exhaustive_z2_by_z2_all_groups_of_order_four():
    hits = list(search_cocycles(Z2, cyclic(2), lambda t: t.is_associative and t.order == 4))
    assert len(hits) == 2


def test_exhaustive_cap():
    big = AbelianGroupTable(elementary_abelian(2, 3))
    with pytest.raises(CapExceeded):
        list(iter_cocycles_exhaustive(big, cyclic(2)))


def test_random_search_is_reproducible():
    runs = []
    for _ in range(2):
        gammas = list(iter_cocycles_random(Z4, cyclic(2), seed=42, budget=6))
        runs.append([g.theta.tolist() for g in gammas])
    assert runs[0] == runs[1]
    other = [g.theta.tolist() for g in iter_cocycles_random(Z4, cyclic(2), seed=43, budget=6)]
    assert other != runs[0]


def test_search_candidates_are_freed():
    # derived data lives on each candidate table, so a tested candidate is
    # freed: the live table count does not grow with the budget
    preset = PRESETS["mltq-solvability-hunt"]

    def live_tables_after(budget):
        A = AbelianGroupTable(preset["A"]())
        for _ in search_cocycles(
            A, preset["F"](), preset["predicate"], "random", seed=0, budget=budget
        ):
            pass
        gc.collect()
        return sum(isinstance(obj, LoopTable) for obj in gc.get_objects())

    assert live_tables_after(10) == live_tables_after(20) == live_tables_after(30)


# -- file format -------------------------------------------------------------------------


def test_cocycle_file_roundtrip():
    gamma = next(iter(iter_cocycles_random(Z4, cyclic(3), seed=12, budget=1)))
    text = format_cocycle(gamma)
    back = parse_cocycle(text)
    assert back == gamma
    assert format_cocycle(back) == text


def test_cocycle_file_allows_comments():
    text = format_cocycle(z4_cocycle())
    seasoned = "# header comment\n" + text.replace("PHI", "# before phi\nPHI", 1)
    assert parse_cocycle(seasoned) == z4_cocycle()


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("THETA\n", ""),
        lambda t: t.replace("PSI", "PSI\n0 0"),
        lambda t: t + "EXTRA\n",
        lambda t: t.replace("THETA\n0 0\n0 1", "THETA\n0 0\n0 9"),
    ],
)
def test_cocycle_file_rejects_damage(mutation):
    text = format_cocycle(z4_cocycle())
    with pytest.raises(Malformed):
        parse_cocycle(mutation(text))
