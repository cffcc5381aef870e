import itertools
import random

import pytest
from conftest import is_normal_oracle, normal_closure_oracle

from loopkit import (
    Subloop,
    all_normal_subloops,
    center_subloop,
    direct_decomposition,
    direct_product,
    is_isomorphic,
    is_normal,
    normal_closure,
    quotient,
    subloop_generated,
)
from loopkit.errors import CapExceeded, NotNormal
from loopkit.tables import cyclic, dihedral, klein, symmetric

Z4 = cyclic(4)
Z6 = cyclic(6)
S3 = symmetric(3)
D4 = dihedral(4)

A3 = Subloop(S3, (0, 3, 4))  # even permutations under the lexicographic listing


def test_subloop_generated_examples():
    assert subloop_generated(Z4, ()).elements == (0,)
    assert subloop_generated(Z4, (2,)).elements == (0, 2)
    two_cycle = 2  # the table element for the transposition swapping 0,1
    assert subloop_generated(S3, (two_cycle,)).size == 2


def test_is_normal_examples():
    assert is_normal(S3, Subloop(S3, (0,)))
    assert is_normal(S3, Subloop(S3, tuple(range(6))))
    assert is_normal(S3, A3)
    assert not is_normal(S3, Subloop(S3, (0, 1)))


def test_normal_closure_examples():
    assert normal_closure(S3, (S3.neutral,)).elements == (0,)
    assert normal_closure(S3, (1,)).size == 6  # conjugates of a transposition generate
    z = center_subloop(D4)
    for x in z.elements:
        assert normal_closure(D4, (x,)).elements == subloop_generated(D4, (x,)).elements


def test_normal_closure_rejects_elements_out_of_range():
    for bad in (-1, 6):
        with pytest.raises(ValueError, match="out of range"):
            normal_closure(Z6, (0, bad))


def test_normality_matches_image_oracle(pool):
    """is_normal and normal_closure from the Inn-orbit labels against the
    image-based oracle, on every normal subloop of the pool and on the
    subloops generated by seeded 1-3-element seeds."""
    rng = random.Random(0)
    non_normal = 0
    for entry in pool:
        q = entry.table
        for sub in all_normal_subloops(q):
            assert is_normal(q, sub) and is_normal_oracle(q, sub), entry.tag
            assert normal_closure(q, sub.elements).elements == sub.elements
        for _ in range(8):
            seed = rng.sample(range(q.order), min(q.order, rng.randint(1, 3)))
            sub = subloop_generated(q, seed)
            normal = is_normal_oracle(q, sub)
            non_normal += not normal
            assert is_normal(q, sub) == normal, (entry.tag, seed)
            assert normal_closure(q, seed).elements == normal_closure_oracle(q, seed)
            assert normal_closure(q, sub.elements).elements == normal_closure_oracle(q, seed)
    assert non_normal > 100


def test_center_examples():
    assert center_subloop(Z6).size == 6
    assert center_subloop(S3).elements == (0,)
    assert center_subloop(D4).size == 2


@pytest.mark.parametrize(
    "table, count",
    [(cyclic(5), 2), (cyclic(7), 2), (Z4, 3), (S3, 3)],
)
def test_all_normal_subloops_counts(table, count):
    assert len(all_normal_subloops(table)) == count


def test_normal_subloops_form_a_lattice(pool):
    # the join is the product set AB (congruences of loops permute);
    # normal_closure(A | B) is the oracle
    tables = [Z6, S3, D4, klein(), cyclic(12)] + [e.table for e in pool if e.table.order <= 8]
    for q in tables:
        subs = all_normal_subloops(q)
        keys = {s.elements for s in subs}
        for a, b in itertools.combinations(subs, 2):
            meet = tuple(sorted(set(a.elements) & set(b.elements)))
            assert meet in keys
            join = normal_closure(q, set(a.elements) | set(b.elements))
            assert join.elements in keys
            product = {q.mul_at(x, y) for x in a.elements for y in b.elements}
            assert join.elements == tuple(sorted(product))


def test_quotient_examples():
    whole = Subloop(S3, tuple(range(6)))
    q, _ = quotient(S3, whole)
    assert q.order == 1
    q, proj = quotient(S3, Subloop(S3, (0,)))
    assert q.order == 6 and proj == list(range(6))
    q, proj = quotient(S3, A3)
    assert q.order == 2
    assert is_isomorphic(q, cyclic(2)) is not None


def test_quotient_projection_is_homomorphism():
    for q, sub in [(S3, A3), (D4, center_subloop(D4)), (Z6, Subloop(Z6, (0, 3)))]:
        table, proj = quotient(q, sub)
        for x, y in itertools.product(range(q.order), repeat=2):
            assert proj[q.mul_at(x, y)] == table.mul_at(proj[x], proj[y])


def test_quotient_requires_normality():
    with pytest.raises(NotNormal):
        quotient(S3, Subloop(S3, (0, 1)))


def test_preimages_of_normal_subloops_are_normal():
    for q in (D4, Z6, S3):
        for sub in all_normal_subloops(q):
            table, proj = quotient(q, sub)
            for inner in all_normal_subloops(table):
                chosen = set(inner.elements)
                pre = tuple(x for x in range(q.order) if proj[x] in chosen)
                assert is_normal(q, Subloop(q, pre))


def test_center_is_normal_and_enumerated():
    for q in (D4, S3, Z6):
        z = center_subloop(q)
        assert z.elements in {s.elements for s in all_normal_subloops(q)}


def test_direct_decomposition_examples():
    assert direct_decomposition(cyclic(1)) == []
    assert direct_decomposition(Z4) == []
    pairs = direct_decomposition(Z6)
    assert len(pairs) == 1
    a, b = pairs[0]
    assert {a.size, b.size} == {2, 3}


def test_direct_decomposition_above_enumeration_cap_names_order_and_cap():
    with pytest.raises(CapExceeded, match="order 128 exceeds the normal-enumeration cap 64"):
        direct_decomposition(cyclic(128))


def test_direct_decomposition_rebuilds_the_loop():
    for a, b in direct_decomposition(direct_product(Z4, cyclic(3))):
        rebuilt = direct_product(a.induced_table(), b.induced_table())
        assert is_isomorphic(rebuilt, direct_product(Z4, cyclic(3))) is not None
