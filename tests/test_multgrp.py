import itertools
import math
import tracemalloc

import numpy as np
import pytest

from loopkit import LoopTable, assoc_group, inner_generator, multgrp
from loopkit.errors import ArityMismatch
from loopkit.extensions import AbelianGroupTable, build_extension, iter_cocycles_random
from loopkit.multgrp import TOT_INNER_WORDS, inner_maps, word_rows
from loopkit.perm import PermGroup, group_order
from loopkit.structure import Subloop, normal_closure
from loopkit.tables import cyclic, dihedral, klein, symmetric

from conftest import (
    ASSOCIATED_GROUPS,
    associated_group,
    inner_generator_family,
    permutation_group_oracle,
)

Z3 = cyclic(3)
S3 = symmetric(3)


def test_t_is_identity_on_commutative_tables():
    for x in range(6):
        assert inner_generator(cyclic(6), "T", (x,)).is_identity()


def test_l_r_are_identity_on_groups():
    for x, y in itertools.product(range(6), repeat=2):
        assert inner_generator(S3, "L", (x, y)).is_identity()
        assert inner_generator(S3, "R", (x, y)).is_identity()


def test_u_on_z3_negates():
    assert inner_generator(Z3, "U", (1,)).images == (0, 2, 1)


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        inner_generator(Z3, "T", (0, 1))
    with pytest.raises(ArityMismatch):
        inner_generator(Z3, "L", (0,))
    with pytest.raises(ArityMismatch):
        inner_generator(Z3, "Q", (0,))


def test_generators_fix_neutral(census_loops):
    """On the census loops, whose relabelings have the neutral off 0."""
    for q in census_loops:
        for g in inner_generator_family(q, ("T", "U", "L", "R", "M")):
            assert g(q.neutral) == q.neutral


def test_regular_abelian_action():
    for n in (3, 5, 7):
        q = cyclic(n)
        assert assoc_group(q, "MLT").order() == n
        assert assoc_group(q, "INN").order() == 1


def test_s3_group_orders():
    assert assoc_group(S3, "INN").order() == 6
    assert assoc_group(S3, "MLT").order() == 36


def test_assoc_group_is_memoized_on_its_table():
    assert assoc_group(S3, "MLT") is assoc_group(S3, "MLT")
    twin = LoopTable(S3.rows)
    assert twin == S3 and twin is not S3
    assert assoc_group(twin, "MLT") is not assoc_group(S3, "MLT")


def test_stabilizer_identity(groups, census_loops):
    for q in [entry.table for entry in groups] + census_loops:
        n = q.order
        assert group_order(assoc_group(q, "MLT")) == n * group_order(assoc_group(q, "INN"))
        assert group_order(associated_group(q, "TMLT")) == n * group_order(
            associated_group(q, "TINN")
        )


def test_inner_group_is_the_group_of_inn_word_rows(census_loops, pool, generic_loops):
    """Inn as the stabilizer in Mlt's chain equals the group of INN's
    word rows: equal orders, and each group's generators lie in the
    other.  On the census loops (half with the neutral off 0, where Mlt's
    chain starts at e != 0), the pool tables of orders 8-16 and the
    generic loops of orders 8-64, whose Inn is S_(n-1)."""
    tables = census_loops + [e.table for e in pool if 8 <= e.table.order <= 16] + generic_loops
    for q in tables:
        inn = multgrp.inner_group(q)
        rows = PermGroup(q.order, word_rows(q, "INN"))
        assert inn is multgrp.inner_group(q)
        assert inn.order() == rows.order() == group_order(assoc_group(q, "MLT")) // q.order
        assert all(g in rows for g in inn.generators), q
        assert all(g in inn for g in rows.generators), q
    assert [multgrp.inner_group(q).order() for q in generic_loops] == [
        math.factorial(q.order - 1) for q in generic_loops
    ]


def test_assoc_group_orders_match_bfs_closure(census_classes):
    """On S3 and the census classes of order <= 5: the closure walks every
    element, and 93 of the 109 order-6 Mlts are S6."""
    from conftest import closure_order

    for q in [S3] + [Q for Q in census_classes if Q.order <= 5]:
        for which in ASSOCIATED_GROUPS:
            group = associated_group(q, which)
            raw = [g.images for g in group.generators]
            assert group.order() == closure_order(raw)


def test_normality_quantifications_agree(census_classes):
    # stability under the inner families iff stability under the tot-inner ones
    for q in census_classes:
        inner = inner_generator_family(q, ("T", "L", "R"))
        total = inner_generator_family(q, ("T", "U", "L", "R", "M"))
        for seed in range(q.order):
            elements = set(normal_closure(q, (seed,)).elements)
            stable_inner = all(set(g(x) for x in elements) == elements for g in inner)
            stable_total = all(set(g(x) for x in elements) == elements for g in total)
            assert stable_inner and stable_total
        # subloops (normal or not): the two quantifications must agree
        from loopkit import subloop_generated

        seen = set()
        for pair in itertools.combinations(range(q.order), 2):
            sub = set(subloop_generated(q, pair).elements)
            key = tuple(sorted(sub))
            if key in seen:
                continue
            seen.add(key)
            stable_inner = all(set(g(x) for x in sub) == sub for g in inner)
            stable_total = all(set(g(x) for x in sub) == sub for g in total)
            assert stable_inner == stable_total


def test_inner_maps_match_scalar_generators(pool):
    """The array kernel equals the scalar words on every pool table, and
    restricting points picks the matching columns."""
    for entry in pool:
        q = entry.table
        points = [q.order - 1, 0]
        for word in TOT_INNER_WORDS:
            maps = inner_maps(q, word)
            rows = [tuple(r) for r in maps.reshape(-1, q.order).tolist()]
            scalar = [g.images for g in inner_generator_family(q, (word,))]
            assert rows == scalar, (entry.tag, word)
            assert (inner_maps(q, word, points) == maps[..., points]).all()


def test_inner_group_generators_are_the_distinct_word_rows(pool, random_extensions, monkeypatch):
    """word_rows holds each distinct generating map once, in first-occurrence
    order, read-only, as the identity followed by the group's generators:
    the translations for MLT and the words for INN, on the pool tables
    and on Z4 by a non-associative order-16 pool loop (order 64).  On the
    pool tables of order <= 16, INN evaluated in blocks of one first
    argument, and of five with an uneven last block, gives the same rows,
    and inner_maps on a slice of first arguments gives those rows of the
    whole array.  No other group has word rows."""
    F = next(
        e.table for e in random_extensions
        if e.table.order == 16 and not e.table.is_associative
    )
    gamma = next(iter(iter_cocycles_random(AbelianGroupTable(cyclic(4)), F, seed=0, budget=1)))
    tables = [e.table for e in pool] + [build_extension(gamma)]
    for q in tables:
        n = q.order
        families = {
            "MLT": (t(x).images for t in (q.left_translation, q.right_translation)
                    for x in range(n)),
            "INN": (tuple(row) for word in "TLR"
                    for row in inner_maps(q, word).reshape(-1, n).tolist()),
        }
        for which, maps in families.items():
            rows = word_rows(q, which)
            expected = list(dict.fromkeys(maps))
            assert not rows.flags.writeable
            assert [tuple(r) for r in rows.tolist()] == expected, which
            # the neutral is 0, so the identity comes first; PermGroup drops it
            gens = [g.images for g in assoc_group(q, which).generators]
            assert [tuple(r) for r in rows.tolist()] == [tuple(range(n))] + gens, which
            if n > 16 or which != "INN":
                continue
            for budget in (1, 5 * n * n):
                monkeypatch.setattr(multgrp, "CHUNK_ENTRIES", budget)
                blocked = multgrp._word_rows(q, which)  # rows equals the oracle, above
                assert blocked.dtype == rows.dtype and np.array_equal(blocked, rows), budget
            monkeypatch.undo()
        if n <= 16:
            for word in TOT_INNER_WORDS:
                whole = inner_maps(q, word)
                for a, b in ((0, n), (1, n - 1), (n // 2, n // 2 + 1), (n - 1, n)):
                    assert np.array_equal(inner_maps(q, word, first=slice(a, b)), whole[a:b])


def test_only_mlt_and_inn_have_word_rows():
    """TMLT and TINN, which no command builds, are gone from `word_rows`
    and `assoc_group` (the tests build them from `associated_group`)."""
    for which in ("TMLT", "TINN", "mlt"):
        with pytest.raises(ValueError, match="unknown associated group"):
            word_rows(LoopTable(S3.mul), which)
        with pytest.raises(ValueError, match="unknown associated group"):
            assoc_group(LoopTable(S3.mul), which)


def test_word_rows_above_256_points_are_uint16():
    q = cyclic(257)
    rows = word_rows(q, "MLT")
    assert rows.dtype == np.uint16
    assert rows.tolist() == [list(q.left_translation(x).images) for x in range(257)]


def test_inner_word_rows_peak_stays_below_one_cube(random_extensions):
    """INN's rows on Z8 by the first non-associative order-16 pool loop
    (order 128) are found in blocks of first arguments: the traced peak
    stays under 16 MiB, the size of one (n, n, n) int64 word."""
    F = next(
        e.table for e in random_extensions
        if e.table.order == 16 and not e.table.is_associative
    )
    gamma = next(iter(iter_cocycles_random(AbelianGroupTable(cyclic(8)), F, seed=0, budget=1)))
    q = build_extension(gamma)
    assert q.order == 128
    tracemalloc.start()
    try:
        word_rows(q, "INN")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_array_fed_groups_match_the_permutation_path(pool):
    """Groups fed word_rows as one array give the generators, base and
    order of groups built from one Permutation per row."""
    for entry in pool:
        Q = entry.table
        for which in ("MLT", "INN"):
            oracle = permutation_group_oracle(Q, which)
            assert assoc_group(Q, which).generators == oracle.generators
            fed = PermGroup(Q.order, word_rows(Q, which))  # assoc_group's, without its memo
            assert fed.base_sequence() == oracle.base_sequence()
            assert fed.order() == oracle.order()
