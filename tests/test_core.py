import hashlib
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopkit import (
    LoopTable,
    associator_element,
    canonicalize,
    commutator_element,
    direct_product,
    fingerprint,
    format_table,
    g_oplus,
    is_isomorphic,
    isomorphisms,
    op,
    parse_table,
    translation,
)
from loopkit import core
from loopkit.errors import CapExceeded, Malformed, NoNeutral, NotAbelianGroup, NotLatin
from loopkit.extensions import AbelianGroupTable, build_extension, iter_cocycles_random
from loopkit.pools import POOL_MASTER_SEED, random_extension_pool
from loopkit.tables import (
    cyclic, dihedral, elementary_abelian, klein, latin_squares, quaternion, reduced_latin_squares,
    symmetric,
)
from loopkit.util import FINGERPRINT_BASIS, hash_tokens, mix64

from conftest import group_inverse, profiles_oracle, seeded_relabelings


Z2 = cyclic(2)
Z3 = cyclic(3)
Z4 = cyclic(4)
Z6 = cyclic(6)
K4 = klein()
S3 = symmetric(3)


# -- parsing -------------------------------------------------------------------


def test_parse_identity_case():
    q = parse_table("2\n0 1\n1 0")
    assert q.order == 2 and q.neutral == 0


def test_parse_rejects_duplicate_column():
    with pytest.raises(NotLatin):
        parse_table("2\n0 0\n1 1")


def test_parse_detects_shifted_neutral():
    q = parse_table("3\n1 2 0\n2 0 1\n0 1 2")
    assert q.neutral == 2
    assert is_isomorphic(q, Z3) is not None


def test_parse_rejects_no_neutral():
    # subtraction mod 3: right neutral only
    with pytest.raises(NoNeutral):
        parse_table("3\n0 2 1\n1 0 2\n2 1 0")


@pytest.mark.parametrize(
    "text",
    ["", "2\n0 1", "2\n0 1\n1 0\n0 1", "x\n0 1\n1 0", "2\n0 one\n1 0", "2\n0 1 0\n1 0 1"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(Malformed):
        parse_table(text)


@pytest.mark.parametrize("text", ["0", "-1\n0"])
def test_parse_rejects_a_non_positive_order(text):
    with pytest.raises(Malformed, match="non-positive order"):
        parse_table(text)


@pytest.mark.parametrize("rows", [[[0, 1], [1, 0.5]], [[0, 1], [1, 0.0]], [[0, 1], [1, "0"]]])
def test_table_rejects_non_integer_entries(rows):
    """A float is never truncated into an entry."""
    with pytest.raises(Malformed):
        LoopTable(rows)


@pytest.mark.parametrize("bad", [2, -1, 2**63, 2**70, -(2**70)])
def test_table_rejects_entries_out_of_range(bad):
    """Entries beyond int64 are out of range too, not an OverflowError."""
    with pytest.raises(Malformed, match="entry out of range"):
        LoopTable([[0, 1], [1, bad]])
    with pytest.raises(Malformed, match="entry out of range"):
        parse_table(f"2\n0 1\n1 {bad}\n")


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_table_accepts_numpy_integer_arrays(dtype):
    q = LoopTable(np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=dtype))
    assert q == Z3 and all(type(v) is int for row in q.rows for v in row)


def _integer_inputs():
    """S3 as each kind of input a table takes, by name."""
    base = np.array(S3.rows)
    spread = np.zeros((12, 12), dtype=np.int64)
    spread[::2, ::2] = base
    return {
        "list": [list(row) for row in S3.rows],
        "int64": base.astype(np.int64),
        "uint8": base.astype(np.uint8),
        "uint16": base.astype(np.uint16),
        ">u2": base.astype(">u2"),
        "strided": spread[::2, ::2],
        "fortran": np.asfortranarray(base),
        "transposed": base.T.copy().T,
    }


@pytest.mark.parametrize("kind", sorted(_integer_inputs()))
def test_every_integer_input_gives_one_table(kind):
    """Lists and integer arrays of any dtype, byte order or layout give
    equal tables with equal hashes and the same rows."""
    q = LoopTable(_integer_inputs()[kind])
    assert q == S3 and hash(q) == hash(S3) and q.rows == S3.rows
    assert q.mul.dtype == np.int64 and q.mul.flags.c_contiguous
    assert not (q.mul.flags.writeable or q.ldiv.flags.writeable or q.rdiv.flags.writeable)


@pytest.mark.parametrize("kind", ["int64", "uint8", "strided"])
def test_table_never_aliases_the_callers_array(kind):
    a = _integer_inputs()[kind]
    q = LoopTable(a)
    assert not np.shares_memory(q.mul, a)
    a[[0, 1]] = a[[1, 0]]  # still a Latin square, with another neutral
    assert q == S3 and q.rows == S3.rows and q.neutral == S3.neutral


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ([[0, 1], [1, 0.0]], Malformed, "entries must be integers"),
        (np.array([[0, 1], [1, 0]], dtype=float), Malformed, "entries must be integers"),
        ([["0", "1"], ["1", "0"]], Malformed, "entries must be integers"),
        (["01", "10"], Malformed, "entries must be integers"),
        ([[0, 1], [1, 2**70]], Malformed, "entry out of range"),
        (np.array([[0, 2**70], [1, 0]], dtype=object), Malformed, "entry out of range"),
        ([[0, 1], [1, 2**63]], Malformed, "entry out of range"),
        (np.array([[0, 2**64 - 1], [1, 0]], dtype=np.uint64), Malformed, "entry out of range"),
        (np.array([[True, False], [False, True]]), Malformed, "entries must be integers"),
        (np.zeros((2, 2, 2), dtype=np.int64), Malformed, "entries must be integers"),
        ([[[0]]], Malformed, "entries must be integers"),
        ([0], Malformed, "entries must be integers"),
        (5, Malformed, "entries must be integers"),
        (None, Malformed, "entries must be integers"),
        ([[0, 1], [1]], Malformed, "table is not square"),
        ([[0, 1.5], [1]], Malformed, "entries must be integers"),
        (np.zeros((2, 3), dtype=np.int64), Malformed, "table is not square"),
        ([[]], Malformed, "table is not square"),
        ([], Malformed, "empty table"),
        (np.zeros((0, 0), dtype=np.int64), Malformed, "empty table"),
        ([[0]] * 600, CapExceeded, "order 600 exceeds cap 512"),
        ([[0]] * 599 + [[0, 1]], CapExceeded, "order 600 exceeds cap 512"),
    ],
)
def test_table_rejects_irregular_input(rows, error, message):
    """Each kind of bad input keeps its exception class and message."""
    with pytest.raises(error) as info:
        LoopTable(rows)
    assert type(info.value) is error and str(info.value) == message


def test_table_takes_python_bools_and_any_iterable_of_rows():
    q = LoopTable([[True, False], [False, True]])
    assert q.rows == ((1, 0), (0, 1)) and q.neutral == 1
    assert LoopTable(row for row in Z3.rows) == Z3
    assert LoopTable(np.array(Z3.rows, dtype=object)) == Z3


def test_subtable_is_one_gather_with_the_same_error():
    q = direct_product(Z2, Z3)
    sub = q.subtable([4, 0, 2])
    assert sub == Z3 and sub.rows == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    with pytest.raises(Malformed, match="^subset not closed under multiplication: 4$"):
        q.subtable([3, 0])  # (1, 1) squared is (0, 2)


def test_parse_skips_comments_and_roundtrips():
    text = "# a comment\n3\n0 1 2\n# interior comment\n1 2 0\n2 0 1\n"
    q = parse_table(text)
    assert q == Z3
    assert parse_table(format_table(q)) == q


def test_order_cap():
    with pytest.raises(CapExceeded):
        parse_table("600\n" + "\n".join(" ".join("0" for _ in range(600)) for _ in range(600)))


# -- element arithmetic ----------------------------------------------------------


def test_ops_examples():
    assert op(Z3, "mul", 1, 2) == 0
    assert op(Z3, "ldiv", 1, 2) == 1
    assert op(Z3, "rdiv", 0, 1) == 2


@given(st.integers(0, 2**32), st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_division_laws_on_random_extensions(seed, x, y):
    gamma = next(iter(iter_cocycles_random(AbelianGroupTable(Z3), Z2, seed=seed, budget=1)))
    q = build_extension(gamma)
    assert q.mul_at(x, q.ldiv_at(x, y)) == y
    assert q.rdiv_at(q.mul_at(x, y), y) == x


def test_translations_are_rows_and_columns():
    for x in range(S3.order):
        assert translation(S3, "L", x).images == S3.rows[x]
        assert translation(S3, "R", x).images == tuple(int(v) for v in S3.mul[:, x])


def test_translation_examples():
    assert translation(S3, "L", S3.neutral).is_identity()
    assert translation(Z3, "R", 1).images == (1, 2, 0)
    assert translation(Z3, "M", 0).images == (0, 2, 1)


def test_commutator_element_trivial_cases():
    for y, x in itertools.product(range(4), repeat=2):
        assert commutator_element(Z4, y, x) == Z4.neutral
    for x in range(S3.order):
        assert commutator_element(S3, S3.neutral, x) == S3.neutral


def test_commutator_element_group_oracle():
    # [y, x] = y x y^-1 x^-1 on group tables
    for y, x in itertools.product(range(S3.order), repeat=2):
        want = S3.mul_at(
            S3.mul_at(S3.mul_at(y, x), group_inverse(S3, y)), group_inverse(S3, x)
        )
        assert commutator_element(S3, y, x) == want


def test_associator_element_vanishes_on_groups():
    for x, y, z in itertools.product(range(S3.order), repeat=3):
        assert associator_element(S3, x, y, z) == S3.neutral
    for x, y in itertools.product(range(S3.order), repeat=2):
        assert associator_element(S3, x, y, S3.neutral) == S3.neutral


def test_commutative_iff_commutators_vanish():
    qs = [Z6, S3, K4]
    for q in qs:
        vanish = all(
            commutator_element(q, y, x) == q.neutral
            for y, x in itertools.product(range(q.order), repeat=2)
        )
        assert vanish == q.is_commutative


# -- constructions -----------------------------------------------------------------


def test_direct_product_klein():
    k = direct_product(Z2, Z2)
    assert k.order == 4
    assert all(k.mul_at(x, x) == k.neutral for x in range(4))


def test_direct_product_with_trivial_factor():
    one = cyclic(1)
    assert is_isomorphic(direct_product(Z6, one), Z6) is not None


def test_direct_product_z2_z3_is_z6():
    assert is_isomorphic(direct_product(Z2, Z3), Z6) is not None


def test_direct_product_flags_match_factors():
    assert direct_product(S3, Z2).is_associative
    assert not direct_product(S3, Z2).is_commutative
    assert direct_product(Z3, Z2).is_commutative
    # a nonassociative factor breaks associativity of the product
    from loopkit.extensions import iter_cocycles_exhaustive

    loop6 = next(
        build_extension(g)
        for g in iter_cocycles_exhaustive(AbelianGroupTable(Z2), Z3, central=True)
        if not build_extension(g).is_associative
    )
    assert not direct_product(loop6, Z2).is_associative
    assert direct_product(loop6, Z2).is_commutative == loop6.is_commutative


def test_g_oplus_additive_branch_is_direct_product():
    q = g_oplus(Z2, [[0, 1], [1, 0]])
    assert is_isomorphic(q, K4) is not None


def test_g_oplus_twisted_is_z4():
    q = g_oplus(Z2, [[1, 0], [0, 1]])
    assert is_isomorphic(q, Z4) is not None
    # (0, 1) has order 4: its index is 0 + 2*1 = 2
    sq = q.mul_at(2, 2)
    assert q.mul_at(sq, sq) == q.neutral and sq != q.neutral


def test_g_oplus_shape():
    for sq in itertools.islice(latin_squares(4), 5):
        q = g_oplus(K4, sq)
        assert q.order == 8 and q.neutral == K4.neutral


def test_g_oplus_rejects_bad_inputs():
    with pytest.raises(NotAbelianGroup):
        g_oplus(S3, [[0] * 6] * 6)
    with pytest.raises(NotLatin):
        g_oplus(Z2, [[0, 1], [0, 1]])


@pytest.mark.parametrize(
    "square, message",
    [
        ([[0, 1.5], [1, 0]], "entries must be integers"),
        ([["0", "1"], ["1", "0"]], "entries must be integers"),
        ([[0, 1], [1]], "table is not square"),
        ([[0, 2], [2, 0]], "entry out of range"),
        ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], "oplus table has wrong shape"),
    ],
)
def test_g_oplus_rejects_malformed_squares(square, message):
    with pytest.raises(Malformed, match=message):
        g_oplus(Z2, square)


# -- isomorphism ---------------------------------------------------------------------


def test_isomorphic_to_itself_is_identity():
    assert is_isomorphic(S3, S3) == list(range(6))


def test_z4_not_isomorphic_to_klein():
    assert is_isomorphic(Z4, K4) is None


def _check_witness(q1, q2, f):
    for x, y in itertools.product(range(q1.order), repeat=2):
        assert f[q1.mul_at(x, y)] == q2.mul_at(f[x], f[y])


def test_isomorphism_witness_is_valid():
    f = is_isomorphic(direct_product(Z2, Z3), Z6)
    assert f is not None
    _check_witness(direct_product(Z2, Z3), Z6, f)


@given(st.permutations(range(6)))
@settings(max_examples=30, deadline=None)
def test_isomorphism_found_under_relabeling(images):
    q = S3.relabel(images)
    f = is_isomorphic(S3, q)
    assert f is not None
    _check_witness(S3, q, f)


# |Aut| of S3, Q8 (S4) and D4 (D4); the pool loops Z3byZ3#160 and
# Z5byZ3#105 are where a consistency check that skipped each product of
# two earlier elements accepted a bijection that is no isomorphism
@pytest.mark.parametrize(
    "name, count",
    [("S3", 6), ("Q8", 24), ("D4", 8), ("Z2byK4#1", None), ("Z3byZ3#160", None),
     ("Z5byZ3#105", None)],
)
def test_isomorphisms_to_relabelings_are_ordered_and_valid(name, count, random_extensions):
    named = {"S3": S3, "Q8": quaternion(), "D4": dihedral(4)}
    q = named.get(name) or next(e.table for e in random_extensions if e.tag == name)
    assert q.is_associative == (name in named)
    autos = list(isomorphisms(q, q))
    assert count in (None, len(autos))
    for r in seeded_relabelings(q, len(name)):
        found = list(isomorphisms(q, r))
        assert len(found) == len(autos)
        assert all(f < g for f, g in zip(found, found[1:]))
        for f in found:
            _check_witness(q, r, f)
        assert found[0] == is_isomorphic(q, r)


def test_isomorphism_is_symmetric_and_transitive():
    a = direct_product(Z2, Z3)
    b = Z6.relabel([2, 4, 0, 1, 5, 3])
    f_ab = is_isomorphic(a, b)
    f_ba = is_isomorphic(b, a)
    assert f_ab is not None and f_ba is not None
    inv = [0] * 6
    for i, v in enumerate(f_ab):
        inv[v] = i
    _check_witness(b, a, inv)
    f_ac = is_isomorphic(a, Z6)
    f_bc = is_isomorphic(b, Z6)
    composed = [f_bc[f_ab[i]] for i in range(6)]
    _check_witness(a, Z6, composed)


# -- canonical form / fingerprint -------------------------------------------------


def test_profiles_match_the_scalar_oracle(pool):
    """Cycle types read from the arrays equal Permutation.order's, as
    Python ints, on every pool table and on one above 256 points, where
    the orders are taken in Python integers."""
    for Q in [entry.table for entry in pool] + [cyclic(258)]:
        profile = core._profiles(Q)
        assert profile == profiles_oracle(Q)
        assert all(type(v) is int for row in profile for v in row)


def test_canonical_form_is_idempotent():
    canon = canonicalize(S3)
    assert canonicalize(canon) == canon
    assert canon.neutral == 0


POOL16 = random_extension_pool(16)[15].table  # K4 by K4, not associative


@given(st.permutations(range(16)))
@settings(max_examples=25, deadline=None)
def test_fingerprint_invariant_under_relabeling(images):
    assert fingerprint(POOL16.relabel(images)) == fingerprint(POOL16)


def _analyze_corpus_tables():
    """The benchmark's order-32 extension (Z8 by K4) and order-64 table
    (the first order-16 pool table times Z4)."""
    gamma = next(iter(iter_cocycles_random(
        AbelianGroupTable(cyclic(8)), klein(), seed=POOL_MASTER_SEED, budget=1
    )))
    first16 = next(e.table for e in random_extension_pool(6) if e.table.order == 16)
    return [build_extension(gamma), direct_product(first16, cyclic(4))]


def test_fingerprint_invariant_on_symmetric_and_large_tables():
    tables = [(elementary_abelian(2, 4), 2.0), (elementary_abelian(2, 5), 2.0)]
    tables += [(elementary_abelian(2, 6), 5.0), (dihedral(4), 2.0), (dihedral(8), 2.0)]
    tables += [(q, 2.0) for q in _analyze_corpus_tables()]
    for q, limit in tables:
        start = time.perf_counter()
        fp = fingerprint(q)
        took = time.perf_counter() - start
        assert took <= limit, (q, took)
        assert all(fingerprint(r) == fp for r in seeded_relabelings(q, q.order))


def test_fingerprint_invariant_on_order16_pool_loops(pool):
    loops = [e.table for e in pool if e.table.order == 16]
    assert len(loops) == 48
    # Pruning by automorphisms that do not fix the node's tuple gives this
    # table several fingerprints.
    loops.append(direct_product(next(e.table for e in pool if e.tag == "K4byZ2#79"), Z2))
    for i, q in enumerate(loops):
        fp = fingerprint(q)
        assert all(fingerprint(r) == fp for r in seeded_relabelings(q, i, count=2))


def test_equal_fingerprints_iff_isomorphic_on_the_pool(pool):
    """is_isomorphic is the oracle: it never calls canonicalize."""
    tables = [e.table for e in pool]
    copies = [next(seeded_relabelings(q, i, count=1)) for i, q in enumerate(tables)]
    fps = [fingerprint(q) for q in tables]
    copy_fps = [fingerprint(q) for q in copies]
    assert fps == copy_fps
    for i, j in itertools.combinations(range(len(tables)), 2):
        if tables[i].order == tables[j].order:
            isomorphic = is_isomorphic(tables[i], copies[j]) is not None
            assert isomorphic == (fps[i] == copy_fps[j]), (pool[i].tag, pool[j].tag)
    assert len(set(fps)) == 227


def test_census_relabelings_are_isomorphic_with_equal_fingerprints(census_classes, census_loops):
    moved = census_loops[len(census_classes):]
    for q, r in zip(census_classes, moved, strict=True):
        f = is_isomorphic(q, r)
        assert f is not None, q
        _check_witness(q, r, f)
        assert fingerprint(r) == fingerprint(q), q


def test_canonical_form_budget_names_order_and_budget(monkeypatch):
    monkeypatch.setattr(core, "CANONICAL_NODE_BUDGET", 3)
    with pytest.raises(CapExceeded, match="order 16 exceeds node budget 3"):
        fingerprint(elementary_abelian(2, 4))


def test_fingerprint_separates_z4_and_klein():
    assert fingerprint(Z4) != fingerprint(K4)


def test_fingerprint_on_elementary_abelian_eight():
    from loopkit.tables import elementary_abelian

    q = elementary_abelian(2, 3)
    assert fingerprint(q.relabel([3, 1, 0, 2, 7, 5, 4, 6])) == fingerprint(q)


# sha256 of the fingerprints of random_extension_pool(290), one line of
# 16 lowercase hex digits each: a change to the canonical form or the
# hash fold shows here, as it would in every catalog.
POOL_290_FINGERPRINTS = "de7421ea029461de5c7c1750b605cb179e207997c8767be21b6add82b38ea55e"


def test_fingerprints_of_the_pool_are_pinned():
    tables = [e.table for e in random_extension_pool(290)]
    fps = [fingerprint(q) for q in tables]
    text = "".join(f"{fp:016x}\n" for fp in fps)
    assert hashlib.sha256(text.encode()).hexdigest() == POOL_290_FINGERPRINTS
    for q, fp in zip(tables[:20], fps):  # the hash of canonicalize's table
        canon = canonicalize(q)
        assert fp == hash_tokens([canon.order, *canon.mul.ravel().tolist()])


def test_hash_tokens_is_the_mix64_fold():
    tokens = [
        0, 1, -1, -(2**63), 2**64 - 1, 2**64, 2**64 + 5, 3 * 2**70 - 1,
        np.int64(-7), np.uint16(65535), np.uint64(2**64 - 1), np.int8(-3), True, False,
    ]
    h, folds = FINGERPRINT_BASIS, [FINGERPRINT_BASIS]
    for v in tokens:
        h = mix64(h ^ (int(v) % 2**64))
        folds.append(h)
    assert [hash_tokens(tokens[:k]) for k in range(len(tokens) + 1)] == folds


# -- the division-compatibility lemma ------------------------------------------------


def _lemma_hypothesis_holds(q, elements):
    return all(
        associator_element(q, a, b, x) == q.neutral
        for a in elements
        for b in elements
        for x in range(q.order)
    )


def test_division_compatibility_lemma():
    from loopkit import all_normal_subloops

    gamma = next(iter(iter_cocycles_random(AbelianGroupTable(Z4), Z2, seed=11, budget=1)))
    targets = [S3, Z6, build_extension(gamma)]
    for q in targets:
        for sub in all_normal_subloops(q):
            if not _lemma_hypothesis_holds(q, sub.elements):
                continue
            for a in sub.elements:
                for u, v in itertools.product(range(q.order), repeat=2):
                    if q.rdiv_at(u, v) in sub.elements:
                        # a(u/v) = (au)/v
                        assert q.mul_at(a, q.rdiv_at(u, v)) == q.rdiv_at(q.mul_at(a, u), v)
                    if q.ldiv_at(u, v) in sub.elements:
                        # (u\v)a = u\(va)
                        assert q.mul_at(q.ldiv_at(u, v), a) == q.ldiv_at(u, q.mul_at(v, a))


def test_reduced_latin_squares_counts():
    # OEIS A000315: reduced Latin squares of order n
    counts = [sum(1 for _ in reduced_latin_squares(n)) for n in range(1, 7)]
    assert counts == [1, 1, 1, 4, 56, 9408]
    squares = list(reduced_latin_squares(5))
    assert squares == sorted(set(squares))
    for sq in squares:
        q = LoopTable(sq)
        assert q.neutral == 0 and q.order == 5
