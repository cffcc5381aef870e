"""loopkit's permutation engine against sympy's, an independent oracle.

Only the public surface of loopkit.perm is used (no _Chain): orders, the
orders along the derived and lower central series, and the classes.
Pool tables stop at order 8: sympy takes minutes on order-16 Mlts.
"""

import pytest

from loopkit.multgrp import assoc_group
from loopkit.perm import (
    PermGroup,
    derived_series,
    group_order,
    is_solvable,
    lower_central_series,
    solvable_class,
)
from loopkit.util import INFINITE

from test_perm import a5, d4, s3, s16

combinatorics = pytest.importorskip("sympy.combinatorics")


def sympy_invariants(group):
    """(order, derived orders, derived length, lower central orders,
    nilpotency class), classes INFINITE where the series stalls."""
    gens = [combinatorics.Permutation(list(g.images)) for g in group.generators]
    oracle = combinatorics.PermutationGroup(
        gens or [combinatorics.Permutation(list(range(group.degree)))]
    )
    derived = tuple(h.order() for h in oracle.derived_series())
    lower = tuple(h.order() for h in oracle.lower_central_series())

    def cls(orders):
        return len(orders) - 1 if orders[-1] == 1 else INFINITE

    assert oracle.is_solvable == (cls(derived) is not INFINITE)
    assert oracle.is_nilpotent == (cls(lower) is not INFINITE)
    return oracle.order(), derived, cls(derived), lower, cls(lower)


def loopkit_invariants(group):
    derived = derived_series(group)
    lower = lower_central_series(group)
    return group_order(group), derived.orders, derived.cls, lower.orders, lower.cls


@pytest.mark.parametrize("factory", [s3, d4, a5, s16])
def test_small_groups_match_sympy(factory):
    assert loopkit_invariants(factory()) == sympy_invariants(factory())


def test_mlt_and_inn_of_small_pool_tables_match_sympy(pool):
    tables = [entry.table for entry in pool if entry.table.order <= 8]
    assert len(tables) == 118
    for Q in tables:
        for which in ("MLT", "INN"):
            group = assoc_group(Q, which)
            assert loopkit_invariants(group) == sympy_invariants(group), (Q, which)


def test_solvable_class_of_fresh_small_pool_groups_matches_sympy(pool):
    """solvable_class on chainless copies, against sympy's derived
    length; 92 of the 118 Inns and 98 of the TInns have two or more
    nontrivial orbits and take the transitive-constituent route."""
    tables = [entry.table for entry in pool if entry.table.order <= 8]
    for Q in tables:
        for which in ("MLT", "INN", "TMLT", "TINN"):
            group = assoc_group(Q, which)
            fresh = PermGroup(group.degree, group.generators)
            assert solvable_class(fresh) == sympy_derived_length(group), (Q, which)


def test_is_solvable_of_fresh_small_pool_groups_matches_sympy(pool):
    tables = [entry.table for entry in pool if entry.table.order <= 8]
    for Q in tables:
        for which in ("MLT", "INN", "TMLT", "TINN"):
            group = assoc_group(Q, which)
            fresh = PermGroup(group.degree, group.generators)
            gens = [combinatorics.Permutation(list(g.images)) for g in group.generators]
            want = not gens or combinatorics.PermutationGroup(gens).is_solvable
            assert is_solvable(fresh) == want, (Q, which)


def sympy_derived_length(group):
    gens = [combinatorics.Permutation(list(g.images)) for g in group.generators]
    if not gens:
        return 0
    orders = [h.order() for h in combinatorics.PermutationGroup(gens).derived_series()]
    return len(orders) - 1 if orders[-1] == 1 else INFINITE
