import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopkit import perm as perm_module
from loopkit.core import LoopTable, direct_product
from loopkit.errors import CapExceeded
from loopkit.extensions import AbelianGroupTable, build_extension, iter_cocycles_random
from loopkit.multgrp import assoc_group, inner_group, inner_maps, word_rows
from loopkit.perm import (
    PermGroup,
    Permutation,
    base_stabilizer,
    contains,
    derived_series,
    derived_subgroup,
    galois_witness,
    group_order,
    is_solvable,
    lower_central_series,
    nilpotency_class_group,
    normal_closure,
    solvable_class,
)
from loopkit.pools import POOL_MASTER_SEED
from loopkit.tables import cyclic, klein, quaternion
from loopkit.util import INFINITE, prime_divisors

from conftest import (
    ASSOCIATED_GROUPS,
    ORDER_5_LOOP,
    associated_group,
    closure_elements,
    closure_order,
    hunt_candidates,
    textbook_closure,
    textbook_derived_length,
    textbook_series,
)


def perm(*cycles, degree):
    return Permutation.from_cycles(degree, cycles)


perms = st.integers(1, 7).flatmap(
    lambda n: st.permutations(range(n)).map(Permutation)
)


@given(perms)
def test_inverse_cancels(p):
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


@given(perms)
def test_serialization_roundtrip(p):
    assert Permutation.from_line(p.to_line()) == p


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.permutations(range(n)), st.permutations(range(n)))))
def test_composition_associative(triple):
    p, q, r = (Permutation(t) for t in triple)
    assert (p * q) * r == p * (q * r)


def test_composition_applies_right_factor_first():
    p = perm((0, 1), degree=3)
    q = perm((1, 2), degree=3)
    assert (p * q)(2) == p(q(2)) == 0
    assert (q * p)(2) == q(p(2)) == 1


@pytest.mark.parametrize(
    "gens, expected",
    [
        ([], 1),
        ([perm((0, 1, 2), degree=3)], 3),
        ([perm((0, 1), degree=3), perm((0, 1, 2), degree=3)], 6),
        ([perm((0, 1, 2, 3), degree=4), perm((0, 2), degree=4)], 8),
        ([perm((0, 1, 2, 3, 4), degree=5), perm((0, 1, 2), degree=5)], 60),
        ([perm((0, 1), degree=5), perm((0, 1, 2, 3, 4), degree=5)], 120),
    ],
)
def test_group_order_known(gens, expected):
    degree = gens[0].degree if gens else 1
    assert group_order(PermGroup(degree, gens)) == expected


gen_lists = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)
)


@given(gen_lists)
@settings(max_examples=60, deadline=None)
def test_group_order_matches_bfs_closure(gen_lists):
    gens = [Permutation(g) for g in gen_lists]
    group = PermGroup(gens[0].degree, gens)
    assert group.order() == closure_order([g.images for g in gens])


def test_membership_examples():
    trivial = PermGroup(3, [])
    assert Permutation.identity(3) in trivial
    assert perm((0, 1, 2), degree=3) not in PermGroup(3, [perm((0, 1), degree=3)])
    s3 = PermGroup(3, [perm((0, 1), degree=3), perm((1, 2), degree=3)])
    assert contains(s3, perm((0, 2), degree=3))


def test_membership_takes_image_sequences_as_generators_do():
    z3 = PermGroup(3, [perm((0, 1, 2), degree=3)])
    for member in ((1, 2, 0), [2, 0, 1], Permutation([0, 1, 2])):
        assert member in z3
    for other in ((0, 2, 1), [1, 0, 2], perm((0, 1), degree=3)):
        assert other not in z3
    with pytest.raises(ValueError, match="generator degree mismatch"):
        perm((0, 1), degree=4) in z3
    with pytest.raises(ValueError, match="generator degree mismatch"):
        (1, 0) in z3
    with pytest.raises(ValueError, match="do not form a permutation"):
        (0, 0, 1) in z3


def test_chain_is_deterministic():
    gens = [perm((0, 1), (2, 3), degree=8), perm((0, 2), (4, 6), degree=8)]
    g1 = PermGroup(8, gens)
    g2 = PermGroup(8, gens)
    assert g1.order() == g2.order()
    assert g1.base_sequence() == g2.base_sequence()
    gens.append(perm((0, 1, 2), (4, 5), degree=8))
    s1 = derived_series(PermGroup(8, gens))
    s2 = derived_series(PermGroup(8, gens))
    assert s1.orders == (144, 36, 4, 1)
    assert [g.generators for g in s1.groups] == [g.generators for g in s2.groups]
    assert [g.base_sequence() for g in s1.groups] == [g.base_sequence() for g in s2.groups]


def moved(p, shift, degree):
    """p moved onto points shift, shift + 1, ... of a degree-`degree` permutation."""
    images = list(range(degree))
    for i, v in enumerate(p.images):
        images[i + shift] = v + shift
    return Permutation(images)


def test_top_of_the_padded_form_agrees_with_the_bottom():
    # D4 x S3 on 7 points, and on points 249..255 of degree 256
    gens = [
        perm((0, 1, 2, 3), degree=7),
        perm((0, 2), degree=7),
        perm((4, 5), degree=7),
        perm((4, 5, 6), degree=7),
    ]
    low = PermGroup(7, gens)
    high = PermGroup(256, [moved(g, 249, 256) for g in gens])
    invariants = []
    for group in (low, high):
        derived, lower = derived_series(group), lower_central_series(group)
        invariants.append(
            (group_order(group), derived.orders, derived.cls, lower.orders, lower.cls)
        )
    assert invariants[0] == invariants[1] == (48, (48, 6, 1), 2, (48, 6, 3), INFINITE)
    assert high.base_sequence() == tuple(b + 249 for b in low.base_sequence())
    candidates = [perm(c, degree=7) for c in combinations(range(7), 2)]
    candidates += [perm(c, degree=7) for c in combinations(range(7), 3)]
    answers = [p in low for p in candidates]
    assert answers == [moved(p, 249, 256) in high for p in candidates]
    assert any(answers) and not all(answers)


def s3():
    return PermGroup(3, [perm((0, 1), degree=3), perm((0, 1, 2), degree=3)])


def a5():
    return PermGroup(5, [perm((0, 1, 2, 3, 4), degree=5), perm((0, 1, 2), degree=5)])


def d4():
    return PermGroup(4, [perm((0, 1, 2, 3), degree=4), perm((0, 2), degree=4)])


def s16():
    return PermGroup(16, [perm((0, 1), degree=16), perm(tuple(range(16)), degree=16)])


def test_derived_subgroup_examples():
    abelian = PermGroup(4, [perm((0, 1), degree=4), perm((2, 3), degree=4)])
    assert derived_subgroup(abelian).order() == 1
    assert derived_subgroup(s3()).order() == 3
    assert derived_subgroup(a5()).order() == 60


def test_derived_subgroup_is_normal():
    for group in (s3(), d4(), a5()):
        derived = derived_subgroup(group)
        for g in group.generators:
            for h in derived.generators:
                assert g * h * g.inverse() in derived


@pytest.mark.parametrize(
    "factory, expected",
    [
        (lambda: PermGroup(3, []), 0),
        (s3, 2),
        (d4, 2),
        pytest.param(a5, INFINITE, id="a5-expected3"),  # the id predates INFINITE being a float
    ],
)
def test_solvable_class(factory, expected):
    assert solvable_class(factory()) == expected


def test_derived_subgroup_is_built_once_and_is_gamma_2(monkeypatch, pool):
    """G' is one closure per group, kept on it, and the second term of
    the lower central series; on every pool Mlt gamma_2 has |G'|."""
    closures = []
    real = perm_module._closure
    monkeypatch.setattr(
        perm_module, "_closure", lambda *args: closures.append(args) or real(*args)
    )

    def steps(result):  # series steps computed, the stalling one included
        return len(result.orders) - 1 + (result.cls is INFINITE)

    groups = [s3(), d4(), a5(), s16()]
    groups += [
        PermGroup(e.table.order, assoc_group(e.table, "MLT").generators) for e in pool
    ]
    for group in (g for g in groups if g.order() > 1):
        closures.clear()
        lower = lower_central_series(group)
        assert len(closures) == steps(lower)
        derived = derived_subgroup(group)
        assert derived_subgroup(group) is derived and len(closures) == steps(lower)
        gamma_2 = lower.orders[1] if len(lower.orders) > 1 else lower.orders[0]  # G perfect
        assert derived.order() == gamma_2
        if len(lower.groups) > 1:
            assert lower.groups[1] is derived
        derived_series_ = derived_series(group)
        assert len(closures) == steps(lower) + steps(derived_series_) - 1
        if len(derived_series_.groups) > 1:
            assert derived_series_.groups[1] is derived


def test_solvable_class_recursion():
    group = d4()
    assert solvable_class(group) == 1 + solvable_class(derived_subgroup(group))


@pytest.mark.parametrize(
    "factory, expected",
    [
        (lambda: PermGroup(3, [perm((0, 1, 2), degree=3)]), 1),
        (d4, 2),
        pytest.param(s3, INFINITE, id="s3-expected2"),  # the id predates INFINITE being a float
    ],
)
def test_nilpotency_class(factory, expected):
    assert nilpotency_class_group(factory()) == expected


@pytest.mark.parametrize(
    "sizes, bound",
    [([], 1), ([1, 1], 1), ([2], 2), ([3], 3), ([4], 2**3), ([6], 6), ([8], 2**7),
     ([12], 2**3 * 3), ([16], 2**15), ([9, 4], 3**4 * 2**3)],
)
def test_nilpotent_bound(sizes, bound):
    """The p-parts of (p^a)! for each p^a exactly dividing an orbit size."""
    assert perm_module._nilpotent_bound(sizes) == bound


@pytest.mark.parametrize(
    "factory, expected, by_bound",
    [
        pytest.param(s3, INFINITE, True, id="s3-expected0-True"),  # 6 does not divide 3
        (d4, 2, False),  # 8 divides 2^3
        (lambda: PermGroup(8, quaternion().mul), 2, False),  # regular Q8: 8 divides 2^7
        (lambda: PermGroup(6, [perm(tuple(range(6)), degree=6)]), 1, False),  # Z6: 6 divides 6
    ],
)
def test_nilpotency_class_by_the_order_bound(monkeypatch, factory, expected, by_bound):
    """A group whose order does not divide the product over its orbits of
    the nilpotent bound runs no lower central series."""
    calls = []
    real = perm_module.lower_central_series
    monkeypatch.setattr(perm_module, "lower_central_series", lambda g: calls.append(g) or real(g))
    assert nilpotency_class_group(factory()) == expected
    assert (calls == []) is by_bound
    assert real(factory()).cls == expected


def test_nilpotency_class_of_fresh_pool_groups(pool):
    for entry in pool:
        for which in ASSOCIATED_GROUPS:
            group = associated_group(entry.table, which)
            want = lower_central_series(PermGroup(group.degree, group.generators)).cls
            got = nilpotency_class_group(PermGroup(group.degree, group.generators))
            assert got == want, (entry.tag, which)


def test_nilpotent_implies_solvable():
    for factory in (d4, s3, a5):
        group = factory()
        if nilpotency_class_group(group) is not INFINITE:
            assert solvable_class(group) is not INFINITE


def test_series_stall_is_proof_not_cap():
    result = derived_series(a5())
    assert result.cls is INFINITE
    result = lower_central_series(s3())
    assert result.cls is INFINITE


def test_normal_closure_of_transposition_in_s4():
    s4 = PermGroup(4, [perm((0, 1), degree=4), perm((0, 1, 2, 3), degree=4)])
    assert normal_closure(s4, [perm((0, 1), degree=4)]).order() == 24
    assert normal_closure(s4, [perm((0, 1), (2, 3), degree=4)]).order() == 4


def test_normal_closure_of_a_seed_outside_the_group():
    """(0 1) is not in Z4 = <(0 1 2 3)>; its conjugates (0 1), (1 2),
    (2 3), (3 0) generate S4, so |Z4| is no bound."""
    z4 = PermGroup(4, [perm((0, 1, 2, 3), degree=4)])
    assert normal_closure(z4, [perm((0, 1), degree=4)]).order() == 24
    assert normal_closure(z4, [(1, 0, 2, 3), perm((0, 2), (1, 3), degree=4)]).order() == 24
    assert normal_closure(z4, [perm((0, 2), (1, 3), degree=4)]).order() == 2


@pytest.mark.parametrize(
    "seed",
    [(1, 0), (1, 0, 2, 3, 4), (0, 0, 1, 2), (1.0, 0, 2, 3), (1.9, 0.2, 2, 3), "1023"],
)
def test_normal_closure_rejects_bad_seeds(seed):
    """Short, long, non-bijective and non-integer seeds, as for generators."""
    with pytest.raises(ValueError):
        normal_closure(d4(), [seed])
    with pytest.raises(ValueError):
        PermGroup(4, [seed])


@given(st.integers(0, 9).flatmap(
    lambda n: st.one_of(st.just(list(range(n))), st.permutations(range(n)))
))
def test_is_identity_is_one_comparison_with_the_identity_tuple(images):
    p = Permutation(images)
    assert p.is_identity() == (p.images == tuple(range(p.degree)))
    assert Permutation.identity(p.degree).is_identity()


def test_groups_fed_arrays_check_them_as_generators():
    rows = np.array([[1, 0, 2], [0, 1, 2], [1, 0, 2]], dtype=np.uint8)
    group = PermGroup(3, rows)
    assert [g.images for g in group.generators] == [(1, 0, 2)]
    assert group.generators == PermGroup(3, [perm((0, 1), degree=3)]).generators
    with pytest.raises(ValueError, match="do not form a permutation"):
        PermGroup(3, np.array([[0, 0, 1]]))
    with pytest.raises(ValueError, match="integer arrays of degree 4"):
        PermGroup(4, rows)
    with pytest.raises(ValueError, match="integer arrays of degree 3"):
        PermGroup(3, rows.astype(float))
    with pytest.raises(ValueError, match="degree mismatch"):
        PermGroup(4, [perm((0, 1), degree=3)])


def test_groups_above_degree_256_are_rejected():
    with pytest.raises(CapExceeded, match="degree 257 exceeds cap 256"):
        PermGroup(257, np.array([np.roll(np.arange(257), 1)]))
    with pytest.raises(CapExceeded, match="degree 257 exceeds cap 256"):
        PermGroup(257)


def test_permutation_rejects_non_integer_images():
    with pytest.raises(ValueError):
        Permutation([1.9, 0.2])
    assert Permutation(np.array([1, 0, 2], dtype=np.uint8)).images == (1, 0, 2)
    assert Permutation(np.arange(3)[::-1]).images == (2, 1, 0)


# -- transitive constituents -----------------------------------------------------


def series_class_of_copy(group):
    """derived_series(..).cls on a separate copy of group built from the
    same generators.  The reference for is_solvable and galois_witness;
    solvable_class, which is that series, is checked against
    textbook_derived_length instead."""
    return derived_series(PermGroup(group.degree, group.generators)).cls


def side_by_side(degree, *blocks):
    """Generator i acts as the i-th generator of each (shift, gens) block
    on the points from shift on, as the identity past a block's list."""
    count = max(len(gens) for _, gens in blocks)
    out = []
    for i in range(count):
        images = list(range(degree))
        for shift, gens in blocks:
            if i < len(gens):
                for x, v in enumerate(gens[i]):
                    images[x + shift] = v + shift
        out.append(Permutation(images))
    return out


S4_GENS = [(1, 0, 2, 3), (1, 2, 3, 0)]
S3_GENS = [(1, 0, 2), (1, 2, 0)]
A5_GENS = [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]


@pytest.mark.parametrize(
    "degree, blocks, order, expected",
    [
        # S4 on {0..3} x Z3 on {4, 5, 6}
        (7, [(0, S4_GENS), (4, [(1, 2, 0)])], 72, 3),
        # S3 acting diagonally on {0, 1, 2} and {3, 4, 5}: |G| = 6, not 36
        (6, [(0, S3_GENS), (3, S3_GENS)], 6, 2),
        # Z2 on {0, 1}, then A5 on {2..6}: the second orbit decides
        pytest.param(
            7, [(0, [(1, 0)]), (2, A5_GENS)], 120, INFINITE, id="7-blocks2-120-expected2"
        ),
        # the trivial group
        (5, [(0, [])], 1, 0),
    ],
)
def test_solvable_class_on_constituents_hand_made(degree, blocks, order, expected):
    gens = side_by_side(degree, *blocks)
    group = PermGroup(degree, gens)
    assert solvable_class(group) == expected
    assert textbook_derived_length(group) == expected
    assert PermGroup(degree, gens).order() == order


@given(gen_lists, gen_lists, st.integers(0, 2))
@settings(max_examples=80, deadline=None)
def test_solvable_class_matches_the_whole_group_series(left, right, gap):
    """Two blocks side by side (direct or subdirect products), with gap
    fixed points between them."""
    shift = len(left[0]) + gap
    degree = shift + len(right[0])
    gens = side_by_side(degree, (0, left), (shift, right))
    group = PermGroup(degree, gens)
    assert solvable_class(group) == textbook_derived_length(group)
    single = PermGroup(len(left[0]), [Permutation(g) for g in left])
    assert solvable_class(single) == textbook_derived_length(single)


def test_solvable_class_of_fresh_pool_groups(pool):
    """TMLT and TINN of every pool table against the textbook chain's
    derived length.  MLT and INN are covered term by term by
    test_chain_matches_textbook_on_pool_groups."""
    for entry in pool:
        for which in ("TMLT", "TINN"):
            group = associated_group(entry.table, which)
            fresh = PermGroup(group.degree, group.generators)
            assert solvable_class(fresh) == textbook_derived_length(group), (entry.tag, which)


# the first 240 mltq-solvability-hunt candidates at seed 0 whose Inn is solvable
SOLVABLE_INN_AT_SEED_0 = (21, 30, 80, 96, 114, 146, 170, 186, 187, 198, 219, 228, 236, 239)


def test_solvable_class_of_fresh_hunt_inns():
    """INN and MLT of the 14 candidates among the first 240 at seed 0 whose
    Inn is solvable, and of the first 20 others, against the textbook
    chain's derived length."""
    candidates = hunt_candidates(seed=0, count=240)
    others = [i for i in range(240) if i not in SOLVABLE_INN_AT_SEED_0][:20]
    classes = set()
    for i in SOLVABLE_INN_AT_SEED_0 + tuple(others):
        for which in ("INN", "MLT"):
            group = assoc_group(candidates[i], which)
            want = textbook_derived_length(group)
            assert solvable_class(PermGroup(group.degree, group.generators)) == want, (i, which)
            classes.add((which, want))
            if which == "INN":
                assert (want is INFINITE) is (i not in SOLVABLE_INN_AT_SEED_0), i
    assert {cls for which, cls in classes if which == "MLT"} == {2, 3, 4, 5, INFINITE}


# -- is_solvable: Burnside's p^a q^b at each term of the derived series ----------


def solvable_oracle(group):
    return series_class_of_copy(group) is not INFINITE


def agl1(p, a):
    """AGL(1, p)'s subgroup x -> a^k x + b on 0..p-1."""
    return PermGroup(p, [Permutation([(x + 1) % p for x in range(p)]),
                         Permutation([a * x % p for x in range(p)])])


@pytest.mark.parametrize(
    "n, limit, expected",
    [(1, 5, ()), (2, 2, (2,)), (24, 4, (2, 3)), (60, 5, (2, 3, 5)),
     (168, 7, (2, 3, 7)), (20922789888000, 16, (2, 3, 5, 7, 11, 13))],
)
def test_prime_divisors(n, limit, expected):
    assert prime_divisors(n, limit) == expected


@pytest.mark.parametrize(
    "factory, expected, by_order",
    [
        (s3, True, True),
        (d4, True, True),
        (lambda: PermGroup(4, [perm((0, 1), degree=4), perm((0, 1, 2, 3), degree=4)]), True, True),
        # 60 = 2^2 * 3 * 5: the series decides
        (a5, False, False),
        (s16, False, False),
        (lambda: PermGroup(5, []), True, True),
        # 42 = 2 * 3 * 7, solvable by Galois's rule, which is_solvable does not take
        (lambda: agl1(7, 3), True, False),
        # two nontrivial orbits: S4 on 0..3 beside Z3 on 4..6, of order 72
        pytest.param(lambda: PermGroup(7, side_by_side(7, (0, S4_GENS), (4, [(1, 2, 0)]))),
                     True, True, id="S4 beside Z3"),
        # S3 acting diagonally on {0, 1, 2} and {3, 4, 5}: |G| = 6, not 36
        pytest.param(lambda: PermGroup(6, side_by_side(6, (0, S3_GENS), (3, S3_GENS))),
                     True, True, id="S3 diagonal"),
        # Z2 on {0, 1} beside A5 on 2..6, of order 120 = 2^3 * 3 * 5
        pytest.param(lambda: PermGroup(7, side_by_side(7, (0, [(1, 0)]), (2, A5_GENS))),
                     False, False, id="Z2 beside A5"),
    ],
)
def test_is_solvable_examples(factory, expected, by_order):
    """A group whose order has at most two prime divisors, the trivial
    group included, is settled without building G'; any other walks its
    derived series, whatever its orbits."""
    group = factory()
    assert is_solvable(group) is expected
    assert (group._derived is None) is by_order
    assert solvable_oracle(group) is expected


@given(gen_lists, gen_lists, st.integers(0, 2))
@settings(max_examples=80, deadline=None)
def test_is_solvable_matches_the_whole_group_series(left, right, gap):
    shift = len(left[0]) + gap
    degree = shift + len(right[0])
    group = PermGroup(degree, side_by_side(degree, (0, left), (shift, right)))
    assert is_solvable(group) == solvable_oracle(group)
    single = PermGroup(len(left[0]), [Permutation(g) for g in left])
    assert is_solvable(single) == solvable_oracle(single)


def test_is_solvable_of_pool_groups(pool):
    """Chainless copies and the pool's own groups (chains built by the
    earlier oracle) both agree with the oracle."""
    for entry in pool:
        for which in ASSOCIATED_GROUPS:
            group = associated_group(entry.table, which)
            want = solvable_oracle(group)
            assert is_solvable(PermGroup(group.degree, group.generators)) == want, (entry.tag, which)
            group.order()
            assert is_solvable(group) == want, (entry.tag, which)


def test_is_solvable_of_hunt_groups():
    """Inn and Mlt of the first 240 hunt candidates at seed 0, the groups
    the hunt's predicate asks about, against the derived series of a copy.
    Both a solvable and a non-solvable Inn occur, and candidates 21 and 30
    have a solvable Mlt whose order has two and three prime divisors."""
    seen = set()
    for Q in hunt_candidates(seed=0, count=240):
        for which in ("INN", "MLT"):
            group = assoc_group(Q, which)
            got = is_solvable(group)
            assert got is solvable_oracle(group), which
            seen.add((which, got))
    assert seen == {("INN", True), ("INN", False), ("MLT", True), ("MLT", False)}


# -- Galois's rule: transitive groups of prime degree --------------------------------


def rotation(p):
    return Permutation([(x + 1) % p for x in range(p)])


def prime_cyclic(p):
    return PermGroup(p, [rotation(p)])


def prime_dihedral(p):
    return PermGroup(p, [rotation(p), Permutation([-x % p for x in range(p)])])


def prime_symmetric(p):
    return PermGroup(p, [perm((0, 1), degree=p), rotation(p)])


def psl32():
    """GL(3, 2) on the 7 points of the Fano plane with lines {i, i+1, i+3}."""
    return PermGroup(7, [rotation(7), perm((2, 4), (5, 6), degree=7)])


def psl211():
    """The transitive group of order 660 on 11 points, PSL(2, 11)."""
    return PermGroup(11, [rotation(11), perm((2, 10), (3, 7), (5, 6), (8, 9), degree=11)])


def image_rows(group):
    """The identity's and group's generators' images, the rows
    galois_witness takes."""
    return np.array([range(group.degree)] + [g.images for g in group.generators])


def chain_rule(rows):
    """The witness's verdict on each prime-degree constituent of degree
    m > 3, by its fallback alone: the constituent's chain grown until its
    order does not divide m(m - 1)."""
    root = perm_module.orbit_roots(rows)
    verdicts = {}
    for r, m in enumerate(np.bincount(root).tolist()):
        if m > 3 and prime_divisors(m, m) == (m,):
            gens = perm_module._restrict(rows, root, r)._gens
            chain = perm_module._grow(m, gens, divides=m * (m - 1))
            verdicts[r] = chain is None or m * (m - 1) % chain.order() != 0
    return verdicts


def assert_witness_is_the_chain_rule(rows):
    """galois_witness on each prime-degree constituent alone, and on the
    whole rows, agrees with chain_rule; the number of constituents."""
    verdicts = chain_rule(rows)
    root = perm_module.orbit_roots(rows)
    for r, want in verdicts.items():
        assert galois_witness(image_rows(perm_module._restrict(rows, root, r))) is want, r
    assert galois_witness(rows) is any(verdicts.values())
    return len(verdicts)


def fresh_mlt(Q):
    group = assoc_group(Q, "MLT")
    return PermGroup(group.degree, group.generators)


PRIME_DEGREE = [
    ("S2", lambda: prime_symmetric(2), 2, True),
    ("S3", s3, 6, True),
    ("Z3", lambda: prime_cyclic(3), 3, True),
    ("Z5", lambda: prime_cyclic(5), 5, True),
    ("D5", lambda: prime_dihedral(5), 10, True),
    ("AGL(1,5)", lambda: agl1(5, 2), 20, True),
    ("A5", a5, 60, False),
    ("S5", lambda: prime_symmetric(5), 120, False),
    ("Z7", lambda: prime_cyclic(7), 7, True),
    ("D7", lambda: prime_dihedral(7), 14, True),
    ("AGL(1,7)", lambda: agl1(7, 3), 42, True),
    ("PSL(3,2)", psl32, 168, False),
    ("S7", lambda: prime_symmetric(7), 5040, False),
    ("AGL(1,11)", lambda: agl1(11, 2), 110, True),
    ("PSL(2,11)", psl211, 660, False),
    ("Mlt(Z5)", lambda: fresh_mlt(cyclic(5)), 5, True),
    ("Mlt(order-5 loop)", lambda: fresh_mlt(LoopTable(ORDER_5_LOOP)), 120, False),
]


@pytest.mark.parametrize(
    "factory, order, solvable", [case[1:] for case in PRIME_DEGREE], ids=[c[0] for c in PRIME_DEGREE]
)
def test_galois_rule_on_prime_degree_groups(factory, order, solvable):
    """A transitive group of prime degree p is solvable iff its order
    divides p(p - 1): galois_witness finds a witness exactly in the
    non-solvable ones (none has degree 2 or 3), and is_solvable agrees
    with the derived series of a fresh copy."""
    group = factory()
    assert galois_witness(image_rows(group)) is (group.degree > 3 and not solvable)
    assert_witness_is_the_chain_rule(image_rows(group))
    assert is_solvable(group) is solvable
    assert solvable_oracle(group) is solvable
    assert solvable_class(factory()) == textbook_derived_length(group)
    assert group.order() == order == closure_order([g.images for g in group.generators])


@pytest.mark.parametrize(
    "degree, gens, order",
    [
        # S7, then a redundant 3-cycle: the exit comes before the third sift
        (7, [perm((0, 1), degree=7), rotation(7), perm((0, 1, 2), degree=7)], 5040),
        # PSL(2, 11), then a 3-cycle it lacks
        (11, list(psl211().generators) + [perm((0, 1, 2), degree=11)], 19958400),
        # A5 on 5 of 9 points: one nontrivial orbit, acted on faithfully
        (9, [perm(c, degree=9) for c in ((0, 1, 2, 3, 4), (0, 1, 2), (0, 2, 4, 1, 3))], 60),
    ],
)
def test_galois_exit_leaves_no_partial_chain(monkeypatch, degree, gens, order):
    """Each group has a generator of a cycle type AGL(1, p) lacks, so the
    witness sifts nothing.  Its fallback, the chain of the prime-degree
    constituent, ends at the first partial order that does not divide
    p(p - 1), before the last generator is sifted."""
    group = PermGroup(degree, gens)
    rows = image_rows(group)
    root = perm_module.orbit_roots(rows)
    p = int(np.bincount(root).max())
    constituent = perm_module._restrict(rows, root, 0)._gens
    sifted = []
    real = perm_module._Chain.add_generator
    monkeypatch.setattr(perm_module._Chain, "add_generator",
                        lambda chain, g: sifted.append(g) or real(chain, g))
    assert galois_witness(rows) is True
    assert sifted == []
    assert perm_module._grow(p, constituent, divides=p * (p - 1)) is None
    monkeypatch.undo()
    assert len(sifted) == 2 < len(gens)
    assert is_solvable(group) is False
    assert group.order() == order == PermGroup(degree, gens).order()
    assert solvable_class(group) is INFINITE
    assert textbook_derived_length(group) is INFINITE


def affine_map(p, a, b):
    return Permutation([(a * x + b) % p for x in range(p)])


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_every_map_of_agl1_has_an_affine_cycle_type(p):
    maps = {affine_map(p, a, b).images for a in range(1, p) for b in range(p)}
    assert len(maps) == p * (p - 1)
    assert all(perm_module._affine_type(bytes(m)) for m in maps)


@pytest.mark.parametrize(
    "g",
    [
        perm((0, 1), degree=5),  # 2 1^3
        perm((0, 1, 2), degree=5),  # 3 1^2: two fixed points
        perm((0, 1), (2, 3), degree=7),  # 2^2 1^3, an involution of PSL(3, 2)
        perm((0, 1, 2, 3), (4, 5), degree=7),  # 4 2 1, of order 4 in PSL(3, 2)
    ],
    ids=["2 1^3", "3 1^2", "2^2 1^3", "4 2 1"],
)
def test_cycle_types_outside_agl1(g):
    assert not perm_module._affine_type(bytes(g.images))


def hunt_witness_rows(Q):
    """The 3n rows the Inn presets' witness runs on (cli._inn_witnessed)."""
    maps = [inner_maps(Q, w, first=slice(-1, None))[0] for w in ("L", "R")]
    return np.concatenate([inner_maps(Q, "T")] + maps)


@pytest.mark.parametrize("seed, constituents", [(0, 232), (5, 238)])
def test_galois_witness_is_the_chain_rule_on_hunt_rows(seed, constituents):
    """On the first 240 hunt candidates; most have one 7-point orbit."""
    assert sum(assert_witness_is_the_chain_rule(hunt_witness_rows(Q))
               for Q in hunt_candidates(seed, 240)) == constituents


def test_galois_witness_is_the_chain_rule_on_inn_rows(pool, census_loops):
    """On INN's word rows of the pool and the census loops."""
    constituents = sum(assert_witness_is_the_chain_rule(word_rows(Q, "INN"))
                       for Q in [e.table for e in pool] + census_loops)
    assert constituents == 235


def test_few_hunt_witnesses_reach_the_chain(monkeypatch):
    """Of the first 240 hunt candidates at seed 0, cycle types settle 214
    of the 226 witnesses.  The chain runs for 18: the 12 others, and 6 of
    the 14 candidates without a witness (8 have no constituent of prime
    degree above 3)."""
    grown = []
    real = perm_module._grow
    monkeypatch.setattr(perm_module, "_grow", lambda *a, **k: grown.append(1) or real(*a, **k))
    verdicts = []
    for Q in hunt_candidates(0, 240):
        grown.clear()
        verdicts.append((galois_witness(hunt_witness_rows(Q)), bool(grown)))
    assert len([w for w, _ in verdicts if w]) == 226
    assert len([1 for _, chain in verdicts if chain]) == 18
    assert len([1 for w, chain in verdicts if w and chain]) == 12


def s_n(n):
    return PermGroup(n, [perm((0, 1), degree=n), perm(tuple(range(n)), degree=n)])


def agl17_beside_s4():
    """AGL(1, 7) on 0..6 and S4 on 7..10, generated side by side."""
    shifted = [[7 + x for x in g.images] for g in s_n(4).generators]
    return PermGroup(11, [list(g.images) + list(range(7, 11)) for g in agl1(7, 3).generators]
                     + [list(range(7)) + g for g in shifted])


WITNESS = [  # name, factory, witnessed, solvable
    ("S5", lambda: prime_symmetric(5), True, False),
    ("A5", a5, True, False),
    ("S7", lambda: prime_symmetric(7), True, False),
    ("A5 on 5 of 9 points", lambda: PermGroup(9, [perm((0, 1, 2, 3, 4), degree=9),
                                                  perm((0, 1, 2), degree=9)]), True, False),
    ("AGL(1,5)", lambda: agl1(5, 2), False, True),
    ("AGL(1,7)", lambda: agl1(7, 3), False, True),
    ("C7", lambda: prime_cyclic(7), False, True),
    ("S4", lambda: s_n(4), False, True),
    ("S6", lambda: s_n(6), False, False),  # the check is one-sided
    ("AGL(1,7) beside S4", agl17_beside_s4, False, True),
    ("trivial", lambda: PermGroup(3, []), False, True),
]


@pytest.mark.parametrize(
    "factory, witnessed, solvable", [case[1:] for case in WITNESS], ids=[c[0] for c in WITNESS]
)
def test_galois_witness(factory, witnessed, solvable):
    """A witness is a prime-degree constituent that fails Galois's rule:
    it proves the group not solvable, and its absence proves nothing."""
    assert galois_witness(image_rows(factory())) is witnessed
    assert_witness_is_the_chain_rule(image_rows(factory()))
    assert solvable_oracle(factory()) is solvable


def test_galois_rule_on_hunt_groups():
    """Galois's rule on INN's and MLT's word rows of the first 240 hunt
    candidates at seed 0: a witness only where the derived series of a
    copy says the group is not solvable, 226 of the Inns and no Mlt."""
    witnessed = 0
    for Q in hunt_candidates(seed=0, count=240):
        for which in ("INN", "MLT"):
            if galois_witness(word_rows(Q, which)):
                assert not solvable_oracle(assoc_group(Q, which)), which
                witnessed += 1
    assert witnessed == 226


def test_non_solvable_hunt_inns_run_no_derived_series(monkeypatch):
    """Of INN's rows of the first 240 hunt candidates at seed 0, the 226
    whose Inn is not solvable have a witness on their 7-point orbit, found
    with one constituent packed and no derived series; the 14 others have
    none."""
    calls, packed = [], []
    real, real_restrict = perm_module.derived_series, perm_module._restrict
    monkeypatch.setattr(perm_module, "derived_series", lambda g: calls.append(g) or real(g))
    monkeypatch.setattr(
        perm_module, "_restrict", lambda *args: packed.append(args) or real_restrict(*args)
    )
    witnessed = []
    for i, Q in enumerate(hunt_candidates(seed=0, count=240)):
        packed.clear()
        witness = galois_witness(word_rows(Q, "INN"))
        assert calls == []
        if witness:
            assert len(packed) == 1 and np.count_nonzero(packed[0][1] == packed[0][2]) == 7
            assert solvable_class(assoc_group(Q, "INN")) is INFINITE
            calls.clear()
            witnessed.append(i)
    assert len(witnessed) == 226
    assert not set(witnessed) & set(SOLVABLE_INN_AT_SEED_0)


# -- first base points --------------------------------------------------------------


def test_base_stabilizer_of_every_first_base_point_of_census_mlts(census_loops):
    """On every census loop (half with the neutral off 0), Mlt's chain
    given a point p as its first base point starts at p and has the
    unbased chain's order and grown list, and its base stabilizer is the
    set of Mlt's elements that fix p: both sides enumerated by a
    breadth-first closure of image tuples.  So is `inner_group` for
    p = e.  The order-1 loop's groups are trivial."""
    for Q in census_loops:
        rows = word_rows(Q, "MLT")
        mlt = PermGroup(Q.order, rows)
        elements = closure_elements([g.images for g in mlt.generators], Q.order)

        def stabilizer_elements(group):
            return closure_elements([g.images for g in group.generators], Q.order)

        for p in range(Q.order):
            based = PermGroup(Q.order, rows, p)
            assert based.base_sequence()[:1] == ((p,) if Q.order > 1 else ()), (Q.order, p)
            assert based.order() == mlt.order(), (Q.order, p)
            assert based._chain.grown == mlt._chain.grown, (Q.order, p)
            stab = base_stabilizer(based)
            got = stabilizer_elements(stab)
            assert got == {g for g in elements if g[p] == p}, (Q.order, p)
            assert stab.order() == len(got), (Q.order, p)
        e = Q.neutral
        assert stabilizer_elements(inner_group(Q)) == {g for g in elements if g[e] == e}, Q


def test_base_stabilizer_of_every_first_base_point_of_generic_mlts(generic_loops):
    """On the generic loops of orders 8-32, whose Mlt is S_n, Mlt's chain
    given a point p first starts at p, and its base stabilizer has order
    |Mlt| / n, and generators that fix p and lie in Mlt."""
    for Q in (q for q in generic_loops if q.order <= 32):
        mlt = assoc_group(Q, "MLT")
        for p in range(Q.order):
            based = PermGroup(Q.order, word_rows(Q, "MLT"), p)
            assert based.base_sequence()[0] == p, (Q.order, p)
            stab = base_stabilizer(based)
            assert stab.order() == mlt.order() // Q.order, (Q.order, p)
            assert all(g(p) == p and g in mlt for g in stab.generators), (Q.order, p)


def chain_shape(group):
    chain = group._chain
    return chain.grown, chain.base_sequence(), [list(lv.transversal) for lv in chain.levels]


def test_first_base_point_that_the_first_generator_fixes():
    """Z2 on {0, 1} beside A5 on {2..6}, with 7 fixed: the first generator
    (0 1)(2 3 4 5 6) moves every point but 7.  Given a moved point p, the
    chain starts at p, and its base stabilizer fixes p and has order
    120 / |orbit of p|.  Given 7, the chain is the unbased one, which
    starts at 0.  A first base point outside the degree raises."""
    gens = side_by_side(8, (0, [(1, 0)]), (2, A5_GENS))
    unbased = PermGroup(8, gens)
    assert unbased.base_sequence()[0] == 0
    for p in range(7):
        group = PermGroup(8, gens, p)
        assert group.base_sequence()[0] == p and group.order() == 120
        stab = base_stabilizer(group)
        assert stab.order() == (60 if p < 2 else 24), p
        assert all(g(p) == p and g in unbased for g in stab.generators), p
    assert chain_shape(PermGroup(8, gens, 7)) == chain_shape(unbased)
    for p in (8, -1):
        with pytest.raises(ValueError):
            PermGroup(8, gens, p)


@pytest.mark.parametrize("degree, first_base", [(0, 0), (1, 0), (3, 0), (3, 2)])
def test_base_stabilizer_of_the_trivial_group(degree, first_base):
    """The trivial group has no base point, whatever first base point it
    is given, and its base stabilizer is trivial."""
    group = PermGroup(degree, [], first_base)
    stab = base_stabilizer(group)
    assert group.base_sequence() == () and stab.is_trivial() and stab.order() == 1


def test_inn_chains_ignore_the_neutral_as_first_base_point(census_loops):
    """INN and TINN fix the neutral, so their chains over it have the
    base sequence, transversals and grown list of unbased builds, on
    every census loop (half with the neutral off 0)."""
    for Q in census_loops:
        for which in ("INN", "TINN"):
            group = associated_group(Q, which)
            unbased = PermGroup(Q.order, group.generators)
            assert chain_shape(group) == chain_shape(unbased), (Q, which)


# -- the reduced chain against the textbook one ------------------------------------


def engine_series(group):
    """What `textbook_series` gives, read off the engine."""
    degree = group.degree

    def terms(result):  # the top term's generators are the given ones
        return [(h.order(), [g.images for g in h.generators]) for h in result.groups[1:]]

    grown = [tuple(p[:degree]) for p in group._chain.grown]
    derived, lower = derived_series(group), lower_central_series(group)
    return group.order(), grown, terms(derived), terms(lower)


def assert_matches_textbook(group):
    got = engine_series(group)
    want = textbook_series(group.degree, [g.images for g in group.generators])
    assert got[:2] == want[:2]
    for got_terms, want_terms in zip(got[2:], want[2:]):
        assert got_terms == want_terms[1:]


def test_chain_matches_textbook_on_pool_groups(pool):
    """Same orders, grown lists and series generators as the chain that
    installs every residue at 0..where, skips nothing and sifts every
    candidate, on Mlt and Inn of every pool table."""
    for entry in pool:
        for which in ("MLT", "INN"):
            group = assoc_group(entry.table, which)
            assert_matches_textbook(PermGroup(group.degree, group.generators))


def test_chain_matches_textbook_on_analyze_tables(random_extensions):
    """The order-32 and order-64 tables that open the analyze corpus."""
    o32 = build_extension(next(iter(iter_cocycles_random(
        AbelianGroupTable(cyclic(8)), klein(), seed=POOL_MASTER_SEED, budget=1
    ))))
    o64 = direct_product(next(e.table for e in random_extensions if e.table.order == 16), cyclic(4))
    for Q in (o32, o64):
        for which in ("MLT", "INN"):
            group = assoc_group(Q, which)
            assert_matches_textbook(PermGroup(group.degree, group.generators))


@given(gen_lists)
@settings(max_examples=60, deadline=None)
def test_chain_matches_textbook_on_random_generators(gen_lists):
    assert_matches_textbook(PermGroup(len(gen_lists[0]), gen_lists))


def test_level_zero_holds_one_generator_per_grown(monkeypatch, pool):
    """Rule (a): level 0 holds only the residues of add_generator; rule
    (d): a closure sifts each distinct candidate at most once."""
    sifted = []
    real = perm_module._Chain.add_generator

    def add_generator(chain, p):
        sifted.append((chain, p))  # holding the chain keeps its id unique
        return real(chain, p)

    monkeypatch.setattr(perm_module._Chain, "add_generator", add_generator)
    for entry in pool:
        for which in ("MLT", "INN"):
            group = assoc_group(entry.table, which)
            group = PermGroup(group.degree, group.generators)
            sifted.clear()
            results = (derived_series(group), lower_central_series(group))
            assert len(sifted) == len(set(sifted))
            for term in {h for result in results for h in result.groups}:
                chain = term._chain
                assert len(chain.levels[0].gens if chain.levels else []) == len(chain.grown)


def test_strip_skips_fixed_base_points():
    """Rule (c): strip composes once per level whose base point moves."""
    group = s16()
    chain = group._chain
    calls = []

    class Counted(bytes):
        def translate(self, table):
            calls.append(1)
            return Counted(bytes.translate(self, table))

    p = perm_module._pack(16, [perm((2, 3, 4), degree=16)])[0]
    assert chain.contains(Counted(p))
    moved_bases = 0
    for level in chain.levels:
        if p[level.base] != level.base:
            moved_bases += 1
            p = p.translate(level.inverses[p[level.base]])
    assert p == perm_module._ID[:16]
    assert len(calls) == moved_bases < len(chain.levels)


def dihedral_images(degree):
    """The rotation x -> x + 1 and the reflection x -> -x of 0..degree-1."""
    return [[(x + 1) % degree for x in range(degree)], [-x % degree for x in range(degree)]]


@pytest.mark.parametrize("degree, order", [(0, 1), (1, 1), (2, 2), (255, 510), (256, 512)])
def test_permutations_are_degree_length_and_tables_256(degree, order):
    """A permutation is its degree-length images, a translation table its
    images padded to 256 bytes, from degree 0 to the cap (no pad at 256).
    Order, membership, the generators, a normal closure and both series
    are those of the textbook chain."""
    gens = dihedral_images(degree)
    group = PermGroup(degree, gens)
    assert group.order() == order and all(len(p) == degree for p in group._gens)
    chain = group._chain
    assert chain.order() == math.prod(len(level.transversal) for level in chain.levels)
    for level in chain.levels:
        assert all(len(u) == degree for u in level.transversal.values())
        assert all(len(t) == 256 for t in level.gens + list(level.inverses.values()))
    assert [g.images for g in group.generators] == [
        tuple(g) for g in gens if g != list(range(degree))
    ]
    assert PermGroup(degree, group.generators)._gens == group._gens
    assert [(x + 2) % degree for x in range(degree)] in group
    if degree >= 2:
        assert (perm((0, 1), degree=degree) in group) is (degree == 2)
    assert_matches_textbook(group)
    closure = normal_closure(group, [gens[1]])  # the reflection
    grown = [tuple(p) for p in chain.grown]
    want = textbook_closure(grown, [tuple(gens[1])], degree, group.order())
    assert closure.order() == want.order()
    assert [tuple(p) for p in closure._chain.grown] == want.grown
    assert all(len(p) == degree for p in closure._gens)
