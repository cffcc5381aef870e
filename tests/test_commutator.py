import collections
import dataclasses
import itertools
from pathlib import Path

import pytest

from loopkit import commutator as commutator_module
from loopkit import (
    INFINITE,
    Subloop,
    all_normal_subloops,
    center_subloop,
    classical_derived_series,
    commutator_subloop,
    congruence_derived_series,
    direct_product,
    hierarchy_report,
    is_abelian_in_A1,
    is_abelian_in_A3,
    is_abelian_in_A4,
    is_central_in,
    is_finite,
    is_supernilpotent,
    nilpotency_class_loop,
    supernilpotent_crosscheck,
    upper_central_series,
)
from loopkit.commutator import (
    a3_subconditions,
    HierarchyReport,
    commutator_generators,
    derived_subloop,
)
from loopkit.cli import main
from loopkit.core import LoopTable, parse_table
from loopkit.errors import NotNormal
from loopkit.extensions import AbelianGroupTable, build_extension, iter_cocycles_random
from loopkit.multgrp import assoc_group, inner_generator, inner_group
from loopkit.perm import PermGroup, derived_series, nilpotency_class_group
from loopkit.pools import POOL_MASTER_SEED
from loopkit.tables import cyclic, dihedral, klein, symmetric

from conftest import (
    ORDER_5_LOOP,
    ac4_witness,
    center_by_identities,
    commutator_oracle,
    congruence_series_oracle,
    group_commutator_oracle,
    group_derived_length,
    group_nilpotency_class,
    least_abelian_series_length,
    least_commutative_group_kernel,
    seeded_relabelings,
    upper_central_oracle,
    word_commutator,
)

Z4 = cyclic(4)
Z6 = cyclic(6)
S3 = symmetric(3)
D4 = dihedral(4)
A3 = Subloop(S3, (0, 3, 4))


def whole(q):
    return Subloop(q, tuple(range(q.order)))


def larger_tables(pool):
    """An order-32 extension (Z8 by K4) and an order-64 product (the first
    order-16 pool table times Z4)."""
    gamma = next(iter(iter_cocycles_random(
        AbelianGroupTable(cyclic(8)), klein(), seed=POOL_MASTER_SEED, budget=1
    )))
    o16 = next(e.table for e in pool if e.table.order == 16)
    larger = [build_extension(gamma), direct_product(o16, cyclic(4))]
    assert [Q.order for Q in larger] == [32, 64]
    return larger


def test_commutator_trivial_on_abelian_groups():
    for a, b in itertools.product(all_normal_subloops(Z6), repeat=2):
        assert commutator_subloop(Z6, a, b).is_trivial()


def test_commutator_of_s3_with_itself_is_a3():
    assert commutator_subloop(S3, whole(S3), whole(S3)).elements == A3.elements


def test_commutator_matches_group_oracle_on_small_groups():
    for q in (S3, D4, dihedral(3), cyclic(8), klein()):
        for a, b in itertools.product(all_normal_subloops(q), repeat=2):
            got = commutator_subloop(q, a, b).elements
            want = group_commutator_oracle(q, a, b)
            assert got == want


def test_commutator_matches_all_pairs_oracle(pool):
    """Pairing each argument tuple with its class representative gives the
    commutator of all B-congruent pairs, on every (A, A) and (A, Q) pair of
    the pool tables of order <= 8."""
    checked = 0
    for entry in pool:
        q = entry.table
        if q.order > 8:
            continue
        whole = Subloop(q, tuple(range(q.order)))
        for a in all_normal_subloops(q):
            for b in (a, whole):
                got = commutator_subloop(q, a, b).elements
                assert got == commutator_oracle(q, a, b), (entry.tag, a, b)
                assert commutator_generators(q, a, b) <= set(a.elements) & set(b.elements)
                checked += 1
    assert checked == 902


def test_commutator_with_the_trivial_subloop_matches_the_oracle(pool):
    """[A, 1] and [1, B] for every normal A and B of the pool tables of
    order <= 8, the pairs the all-pairs test leaves out."""
    checked = 0
    for entry in pool:
        q = entry.table
        if q.order > 8:
            continue
        one = Subloop(q, (q.neutral,))
        for a in all_normal_subloops(q):
            for pair in ((a, one), (one, a)):
                assert commutator_subloop(q, *pair).elements == commutator_oracle(q, *pair), (
                    entry.tag, pair)
                checked += 1
    assert checked == 2 * 451


def test_commutator_at_the_lattice_ends_scans_no_words(monkeypatch, pool):
    """[A, 1] = 1 and [Q, Q] = Q' need no word deviations: A1 and C1 on
    the trivial subloop and on the whole loop of every pool table (orders
    up to 16) never call commutator_generators."""
    calls = collections.Counter()
    scan = commutator_module.commutator_generators

    def counted(Q, A, B):
        calls[A.size, B.size] += 1
        return scan(Q, A, B)

    monkeypatch.setattr(commutator_module, "commutator_generators", counted)
    for entry in pool:
        q = entry.table
        for a in (Subloop(q, (q.neutral,)), whole(q)):
            is_abelian_in_A1(q, a)
            is_central_in(q, a, "C1")
    assert max(e.table.order for e in pool) == 16 and not calls
    is_abelian_in_A1(S3, A3)  # a proper pair still scans its words
    assert calls == {(3, 3): 1}


def test_commutator_requires_normal_arguments():
    one = Subloop(S3, (0,))
    for a, b in ((Subloop(S3, (0, 1)), whole(S3)), (Subloop(S3, (0, 1)), one),
                 (one, Subloop(S3, (0, 2)))):
        with pytest.raises(NotNormal):
            commutator_subloop(S3, a, b)


def test_abelian_in_known_cases():
    assert is_abelian_in_A1(S3, A3)
    assert is_abelian_in_A3(S3, A3)
    assert is_abelian_in_A4(S3, A3) is not None
    assert not is_abelian_in_A1(S3, whole(S3))
    assert not is_abelian_in_A3(S3, whole(S3))
    assert is_abelian_in_A4(S3, whole(S3)) is None


def test_central_subloops_are_abelian_in():
    for q in (D4, Z6):
        z = center_subloop(q)
        assert is_abelian_in_A1(q, z)


def test_a3_subconditions_require_a_normal_subloop():
    # condition (vi) quantifies over the cosets of a normal subloop
    with pytest.raises(NotNormal):
        a3_subconditions(S3, Subloop(S3, (0, 1)))


def test_noncommutative_group_fails_only_commuting_condition():
    sub = a3_subconditions(S3, whole(S3))
    assert not sub["ii"]
    assert sub["i"] and sub["iii"] and sub["iv"] and sub["v"] and sub["vi"]


def test_a3_stops_at_the_first_failed_condition(monkeypatch):
    """S3 fails (ii), the first condition checked, so the A3 verdict never
    reaches (i), the costliest; the trivial subloop reaches no condition."""
    def refuse(*args):
        raise AssertionError("reached")

    monkeypatch.setattr(commutator_module, "_restricts_to_automorphisms", refuse)
    assert not is_abelian_in_A3(S3, whole(S3))
    monkeypatch.setattr(commutator_module, "_a3_conditions", refuse)
    assert is_abelian_in_A3(S3, Subloop(S3, (0,)))


def test_a3_verdict_is_the_full_table_of_conditions(pool, census_classes):
    """The A3 verdict, which stops at its first failed condition, against
    all six conditions on every normal subloop of the census classes and
    of the pool tables (orders up to 16); the AC-7 test checks the two
    witnesses where only (i) or only (vi) fails."""
    tables = census_classes + [e.table for e in pool]
    checks = ("ii", "iii", "iv", "v", "vi", "i")
    verdicts = collections.Counter()
    first_failed = collections.Counter()
    for q in tables:
        for a in all_normal_subloops(q):
            sub = a3_subconditions(q, a)
            verdict = is_abelian_in_A3(q, a)
            assert verdict == all(sub.values()), (q, a)
            verdicts[verdict] += 1
            first_failed[next((k for k in checks if not sub[k]), None)] += 1
    assert verdicts[True] and verdicts[False]
    assert first_failed["ii"] and first_failed["iii"] and first_failed["vi"]


def test_centrality_modes():
    for q in (D4, Z6, S3):
        z = center_subloop(q)
        for mode in ("C1", "C3", "C3prime", "C4"):
            assert is_central_in(q, z, mode)
    for mode in ("C1", "C3", "C3prime", "C4"):
        assert not is_central_in(S3, A3, mode)
        assert is_central_in(S3, Subloop(S3, (0,)), mode)


def test_centrality_iff_inside_center(groups):
    for entry in groups:
        q = entry.table
        z = set(center_subloop(q).elements)
        for a in all_normal_subloops(q):
            assert is_central_in(q, a, "C1") == (set(a.elements) <= z)


def test_congruence_series_examples():
    series, cls = congruence_derived_series(Z6)
    assert cls == 1 and series[-1].is_trivial()
    series, cls = congruence_derived_series(S3)
    assert cls == 2
    assert [s.elements for s in series] == [tuple(range(6)), (0, 3, 4), (0,)]
    assert congruence_derived_series(cyclic(1))[1] == 0


def test_derived_subloop_matches_quotient_oracle(pool):
    assert len(pool) == 290
    for entry in pool:
        want = least_commutative_group_kernel(entry.table).elements
        assert derived_subloop(entry.table).elements == want, entry.tag


def test_derived_subloop_on_reduced_squares(census_loops):
    """Q' against the quotient oracle and [Q, Q] on the census loops,
    where most loops are not solvable (Q' = Q); the pool has none of
    those."""
    perfect = 0
    for q in census_loops:
        got = derived_subloop(q).elements
        assert got == least_commutative_group_kernel(q).elements, q
        assert got == word_commutator(q, whole(q), whole(q)), q
        perfect += len(got) == q.order
    # the trivial loop and each of the 100 classes that are not congruence
    # solvable are perfect: the 5 of order 5 because a loop of prime order
    # is simple (Q' is 1 or Q), the 95 of order 6 as counted; twice, for
    # the classes and their relabelings
    assert perfect == 2 * 101


def test_congruence_series_matches_commutator_oracle(pool, census_classes):
    """Every term against the series with [Q, Q] formed by the commutator,
    on the pool, the order-32 and order-64 tables and the census
    classes."""
    tables = [e.table for e in pool] + larger_tables(pool) + census_classes
    classes = []
    for Q in tables:
        series, cls = congruence_derived_series(Q)
        assert ([s.elements for s in series], cls) == congruence_series_oracle(Q), Q
        classes.append(cls)
    assert INFINITE in classes and any(is_finite(c) and c > 1 for c in classes)


def test_classical_series_matches_group_derived_series(groups):
    for entry in groups:
        q = entry.table
        want = group_derived_length(q)
        _, kcls = classical_derived_series(q)
        _, ccls = congruence_derived_series(q)
        if want is None:
            assert kcls is INFINITE and ccls is INFINITE
        else:
            assert kcls == want and ccls == want


def test_nilpotency_class_examples():
    assert nilpotency_class_loop(cyclic(1)) == 0
    assert nilpotency_class_loop(Z6) == 1
    assert nilpotency_class_loop(D4) == 2
    assert nilpotency_class_loop(S3) is INFINITE


def test_nilpotency_matches_group_oracle(groups):
    for entry in groups:
        q = entry.table
        want = group_nilpotency_class(q)
        got = nilpotency_class_loop(q)
        if want is None:
            assert got is INFINITE
        else:
            assert got == want


def test_upper_central_series_of_d4():
    series, cls = upper_central_series(D4)
    assert cls == 2
    assert [s.size for s in series] == [1, 2, 8]


def test_upper_central_series_matches_quotient_oracle(pool):
    """Every term, as an element set, against the quotient-table route on
    the pool (the groups fixture first) and the order-32 and order-64
    tables."""
    classes = []
    for Q in [e.table for e in pool] + larger_tables(pool):
        series, cls = upper_central_series(Q)
        assert ([s.elements for s in series], cls) == upper_central_oracle(Q), Q
        classes.append(cls)
    assert INFINITE in classes and any(is_finite(c) and c > 1 for c in classes)


def test_center_matches_the_defining_identities(pool, census_classes):
    """The fixed points of INN's rows against the identities checked one
    element at a time, on the pool, the order-32 and order-64 tables and
    the census classes."""
    tables = [e.table for e in pool] + larger_tables(pool) + census_classes
    kinds = set()
    for Q in tables:
        got = center_subloop(Q).elements
        assert got == center_by_identities(Q), Q
        kinds.add("trivial" if len(got) == 1 else "whole" if len(got) == Q.order else "proper")
    assert kinds == {"trivial", "whole", "proper"}


def test_supernilpotence_examples():
    assert is_supernilpotent(cyclic(8))
    assert is_supernilpotent(Z6)
    assert supernilpotent_crosscheck(Z6)
    assert not is_supernilpotent(S3)
    assert not supernilpotent_crosscheck(S3)
    assert supernilpotent_crosscheck(D4)


def test_tot_inner_restrictions_are_automorphic_when_abelian_in():
    cases = [(S3, A3), (Z6, Subloop(Z6, (0, 2, 4))), (D4, center_subloop(D4))]
    for q, a in cases:
        assert is_abelian_in_A1(q, a)
        elems = a.elements
        for x in range(q.order):
            maps = [inner_generator(q, "U", (x,))]
            maps += [inner_generator(q, "M", (x, y)) for y in range(q.order)]
            for m in maps:
                for s, t in itertools.product(elems, repeat=2):
                    assert m(q.mul_at(s, t)) == q.mul_at(m(s), m(t))


def test_abelian_in_fiber_is_a_commutative_group():
    for q, a in [(S3, A3), (direct_product(Z4, cyclic(2)), Subloop(direct_product(Z4, cyclic(2)), (0, 1, 2, 3)))]:
        if is_abelian_in_A1(q, a):
            t = a.induced_table()
            assert t.is_commutative and t.is_associative


def test_series_consistency_on_sample(census_loops, class_three):
    """Q^(i) <= D_i term by term, with Q^(1) = D_1 = Q', on the census
    loops and the congruence class 3 tables.  Past the congruence
    series' last term D_m (trivial, or the term it stops at) Q^(i) lies
    in D_m.  Q' is the second term, or the only one: the series of the
    trivial loop and of a perfect loop stop at Q."""
    below = 0
    for q in census_loops + class_three:
        congruence, ccls = congruence_derived_series(q)
        classical, kcls = classical_derived_series(q)
        for i, term in enumerate(classical):
            assert set(term.elements) <= set(congruence[min(i, len(congruence) - 1)].elements)
        derived = derived_subloop(q).elements
        assert classical[min(1, len(classical) - 1)].elements == derived
        assert congruence[min(1, len(congruence) - 1)].elements == derived
        if is_finite(ccls):
            assert is_finite(kcls)
            assert kcls <= ccls
            below += kcls < ccls
    # Z2-by-S3 draws 1, 4 and 8; on the census the classes agree, as each
    # finite congruence class there is at most 2
    assert below == 3


def test_class_three_tables(class_three):
    """Congruence class 3, with every term against the commutator oracle;
    classical class 2 on Z2-by-S3 draws 1, 4 and 8 and 3 elsewhere."""
    classical = []
    for Q in class_three:
        series, cls = congruence_derived_series(Q)
        assert cls == 3 and ([s.elements for s in series], cls) == congruence_series_oracle(Q)
        assert nilpotency_class_loop(Q) is INFINITE
        classical.append(classical_derived_series(Q)[1])
    assert [Q.order for Q in class_three] == [12] * 15 + [24]
    assert [i for i, k in enumerate(classical) if k != 3] == [1, 4, 8]
    assert {classical[i] for i in (1, 4, 8)} == {2}


def test_classical_class_is_the_least_abelian_series_length(census_loops, class_three):
    """The derived-subloop length against a brute-force minimum over all
    subnormal series with commutative-group factors, on the census loops,
    the AC-4 witness and the congruence class 3 tables."""
    seen = collections.Counter()
    for Q in census_loops + [ac4_witness()] + class_three:
        cls = classical_derived_series(Q)[1]
        assert cls == least_abelian_series_length(Q), Q
        seen[cls] += 1
    assert set(seen) == {0, 1, 2, 3, INFINITE}


def test_report_fields_match_the_full_series(pool, census_loops, class_three):
    """The fields `hierarchy_report` takes from the theorems in its
    docstring equal the full series, `center_subloop` and Mlt's own
    nilpotency class, on the pool, the order-32 and order-64 tables, the
    census loops, the AC-4 witness and the congruence class 3 tables."""
    tables = [e.table for e in pool] + larger_tables(pool) + census_loops
    fired = collections.Counter()
    for Q in tables + [ac4_witness()] + class_three:
        rep = hierarchy_report(Q)
        nilpotency = upper_central_series(Q)[1]
        congruence = congruence_derived_series(Q)[1]
        mlt_nilpotency = nilpotency_class_group(assoc_group(Q, "MLT"))
        assert rep.center_size == center_subloop(Q).size, Q
        assert rep.nilpotency_class == nilpotency, Q
        assert rep.congruence_solvability_class == congruence, Q
        assert rep.classical_solvability_class == classical_derived_series(Q)[1], Q
        assert rep.mlt_nilpotency_class == mlt_nilpotency, Q
        assert rep.supernilpotent == is_finite(mlt_nilpotency), Q
        fired["nilpotency <= 2"] += is_finite(nilpotency) and nilpotency <= 2
        fired["nilpotency 3+"] += is_finite(nilpotency) and nilpotency > 2
        fired["congruence 3"] += congruence == 3
        fired["congruence inf, classical finite"] += (
            congruence is INFINITE and is_finite(rep.classical_solvability_class)
        )
        fired["not nilpotent"] += nilpotency is INFINITE
    assert min(fired.values()) > 0, fired


def test_report_skips_what_the_theorems_settle(monkeypatch, class_three):
    """D4 (nilpotency class 2) runs neither series; S3 (not nilpotent)
    never asks for Mlt's nilpotency class.  On Z2-by-S3 draw 1 both
    series run."""
    calls = []
    for name in (
        "congruence_derived_series", "classical_derived_series",
        "nilpotency_class_group",
    ):
        real = getattr(commutator_module, name)
        monkeypatch.setattr(
            commutator_module, name,
            lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args),
        )
    hierarchy_report(LoopTable(D4.mul))
    assert calls == ["nilpotency_class_group"]
    calls.clear()
    hierarchy_report(LoopTable(S3.mul))
    assert calls == ["congruence_derived_series"]
    calls.clear()
    hierarchy_report(LoopTable(class_three[1].mul))
    assert calls == ["congruence_derived_series", "classical_derived_series"]


def test_hierarchy_report_s3():
    rep = hierarchy_report(S3)
    assert rep.nilpotency_class is INFINITE
    assert rep.congruence_solvability_class == 2
    assert rep.classical_solvability_class == 2
    assert rep.inn_solvable_class == 2
    assert rep.mlt_order == 36 and rep.inn_order == 6
    rep.check()


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(nilpotency_class=1, congruence_solvability_class=INFINITE), "nilpotent but not"),
        (dict(classical_solvability_class=INFINITE), "congruence solvable but not"),
        (dict(supernilpotent=True), "supernilpotent but not"),
    ],
    ids=["nilpotent", "congruence-solvable", "supernilpotent"],
)
def test_hierarchy_report_check_rejects_each_broken_implication(changes, message):
    rep = hierarchy_report(S3)  # not nilpotent, both solvability classes 2
    with pytest.raises(AssertionError, match=message):
        dataclasses.replace(rep, **changes).check()


def test_hierarchy_report_serialization_roundtrip():
    for q in (S3, Z6, D4):
        rep = hierarchy_report(q)
        assert HierarchyReport.from_lines(rep.to_lines()) == rep
        assert "nilpotency_class: inf" in hierarchy_report(S3).to_lines()


def test_hierarchy_cross_implications(groups, census_loops):
    # vertical edges between the loop column and the group columns:
    # nilpotent loops have solvable multiplication groups, solvable
    # multiplication groups force classical solvability, nilpotent
    # multiplication groups force central nilpotence
    for Q in [entry.table for entry in groups] + census_loops:
        rep = hierarchy_report(Q)
        if is_finite(rep.nilpotency_class):
            assert is_finite(rep.mlt_solvable_class)
        if is_finite(rep.mlt_solvable_class):
            assert is_finite(rep.classical_solvability_class)
        if is_finite(rep.mlt_nilpotency_class):
            assert is_finite(rep.nilpotency_class)
        assert rep.supernilpotent == is_finite(rep.mlt_nilpotency_class)


def test_mlt_solvable_class_matches_a_fresh_series(pool, tmp_path):
    """The report skips Mlt's derived series when Inn is not solvable
    (Inn <= Mlt).  Its class still equals the derived series of a fresh
    Mlt, on the pool and on the table the analyze pin in tests/data is
    made from; that table and report are byte-identical to their pins."""
    argv = ["search", "--preset", "z2cubed-nonsolvable-inn", "--seed", "3", "--out", str(tmp_path)]
    assert main(argv) == 0
    data = Path(__file__).parent / "data"
    text = (tmp_path / "z2cubed-nonsolvable-inn-0000.table").read_text()
    assert text == (data / "z2cubed-nonsolvable-inn-seed3-0000.table").read_text()
    pinned = parse_table(text)
    skipped = 0
    for Q in [e.table for e in pool] + [pinned]:
        rep = hierarchy_report(Q)
        mlt = assoc_group(Q, "MLT")
        assert rep.mlt_solvable_class == derived_series(PermGroup(Q.order, mlt.generators)).cls
        skipped += rep.inn_solvable_class is INFINITE
    assert skipped == 10
    assert rep.to_lines() == (data / "z2cubed-nonsolvable-inn-seed3-0000.report").read_text()


def test_report_inn_chain_stops_at_mlt_over_n_as_the_unbounded_chain(pool):
    """The report's Inn is `inner_group`.  On each pool table (neutral 0)
    its chain is Mlt's levels 1 and below.  On a relabeling of each with
    the neutral off 0 it is built with the bound |Mlt| / n, and has the
    grown list, base, transversals and order of an unbounded build over
    the same generators; on some it stops early."""
    stopped = 0
    for entry in pool:
        relabelings = seeded_relabelings(entry.table, 0, count=8)
        moved = next(r for r in relabelings if r.neutral or r.order == 1)
        for Q in (LoopTable(entry.table.mul), moved):  # fresh: no chain built yet
            hierarchy_report(Q)
            mlt = assoc_group(Q, "MLT")._chain
            inn = inner_group(Q)
            chain = inn._chain
            assert chain.order() == mlt.order() // Q.order, entry.tag
            if Q.neutral == 0:
                assert chain.levels == mlt.levels[1:], entry.tag
                continue
            assert chain.bound == mlt.order() // Q.order
            fresh = PermGroup(Q.order, inn.generators)._chain
            assert chain.grown == fresh.grown, entry.tag
            assert chain.base_sequence() == fresh.base_sequence(), entry.tag
            assert [list(lv.transversal) for lv in chain.levels] == [
                list(lv.transversal) for lv in fresh.levels
            ], entry.tag
            assert chain.order() == fresh.order(), entry.tag
            stopped += chain.full
    assert stopped > 0


def test_report_forms_no_inn_word_rows(census_loops, pool, generic_loops):
    """The report reads Inn from Mlt's chain: on fresh copies of the
    census loops, the pool tables and the generic loops of orders 8-32,
    it leaves no INN word rows in the table's memo."""
    tables = census_loops + [e.table for e in pool] + generic_loops[:3]
    for Q in tables:
        fresh = LoopTable(Q.mul)
        hierarchy_report(fresh)
        assert ("word_rows", "INN") not in fresh._memo, Q
        assert ("assoc_group", "INN") not in fresh._memo, Q


def test_hierarchy_report_of_a_prime_order_loop_with_non_solvable_mlt():
    """Mlt of this order-5 loop is S5, transitive on a prime number of
    points and not solvable; its Inn is S4."""
    rep = hierarchy_report(LoopTable(ORDER_5_LOOP))
    lines = rep.to_lines().splitlines()
    for line in (
        "mlt_order: 120",
        "mlt_solvable_class: inf",
        "mlt_nilpotency_class: inf",
        "inn_order: 24",
        "inn_solvable_class: 3",
        "congruence_solvability_class: inf",
        "classical_solvability_class: inf",
        "nilpotency_class: inf",
        "center_size: 1",
        "supernilpotent: false",
    ):
        assert line in lines
