"""loopkit's permutation engine against sympy's, an independent oracle.

Only the public surface of loopkit.perm is used (no _Chain): orders, the
orders along the derived and lower central series, and the classes.
Pool tables stop at order 8: sympy takes minutes on order-16 Mlts.
"""

import pytest
from hypothesis import given, settings, strategies as st

from loopkit.perm import (
    PermGroup,
    derived_series,
    group_order,
    is_solvable,
    lower_central_series,
    normal_closure,
    solvable_class,
)
from loopkit.util import INFINITE

from conftest import ASSOCIATED_GROUPS, associated_group
from test_perm import a5, d4, gen_lists, s3, s16

combinatorics = pytest.importorskip("sympy.combinatorics")


def sympy_invariants(group, lower=True):
    """(order, derived orders, derived length, lower central orders,
    nilpotency class) from one derived series and, when lower, one lower
    central series of sympy's group; classes INFINITE where the series
    stalls, and the lower central entries None when not lower."""
    oracle = sympy_group(group)
    derived = tuple(h.order() for h in oracle.derived_series())
    central = tuple(h.order() for h in oracle.lower_central_series()) if lower else None
    nilpotency = _series_class(central) if lower else None
    return oracle.order(), derived, _series_class(derived), central, nilpotency


def sympy_group(group):
    gens = [combinatorics.Permutation(list(g.images)) for g in group.generators]
    return combinatorics.PermutationGroup(
        gens or [combinatorics.Permutation(list(range(group.degree)))]
    )


def _series_class(orders):
    return len(orders) - 1 if orders[-1] == 1 else INFINITE


def loopkit_invariants(group):
    derived = derived_series(group)
    lower = lower_central_series(group)
    return group_order(group), derived.orders, derived.cls, lower.orders, lower.cls


@pytest.mark.parametrize("factory", [s3, d4, a5, s16])
def test_small_groups_match_sympy(factory):
    want = sympy_invariants(factory())
    assert loopkit_invariants(factory()) == want
    oracle = sympy_group(factory())
    assert oracle.is_solvable == (want[2] is not INFINITE)
    assert oracle.is_nilpotent == (want[4] is not INFINITE)


@pytest.fixture(scope="module")
def small_pool_groups(pool):
    """One sympy pass per group of the 118 pool tables of order <= 8:
    (Q, which, group, sympy_invariants) for MLT, INN, TMLT and TINN, the
    lower central series for MLT and INN only.  92 of the 118 Inns and
    98 of the TInns have two or more nontrivial orbits."""
    tables = [entry.table for entry in pool if entry.table.order <= 8]
    assert len(tables) == 118
    rows = []
    for Q in tables:
        for which in ASSOCIATED_GROUPS:
            group = associated_group(Q, which)
            rows.append((Q, which, group, sympy_invariants(group, lower=which in ("MLT", "INN"))))
    return rows


def test_mlt_and_inn_of_small_pool_tables_match_sympy(small_pool_groups):
    checked = 0
    for Q, which, group, want in small_pool_groups:
        if which in ("MLT", "INN"):
            assert loopkit_invariants(group) == want, (Q, which)
            checked += 1
    assert checked == 2 * 118


def test_solvable_class_of_fresh_small_pool_groups_matches_sympy(small_pool_groups):
    """solvable_class on chainless copies, against sympy's derived length."""
    for Q, which, group, want in small_pool_groups:
        fresh = PermGroup(group.degree, group.generators)
        assert solvable_class(fresh) == want[2], (Q, which)


def test_is_solvable_of_fresh_small_pool_groups_matches_sympy(small_pool_groups):
    for Q, which, group, want in small_pool_groups:
        fresh = PermGroup(group.degree, group.generators)
        assert is_solvable(fresh) == (want[2] is not INFINITE), (Q, which)


closure_inputs = gen_lists.flatmap(lambda gens: st.tuples(
    st.just(gens), st.lists(st.permutations(range(len(gens[0]))), min_size=1, max_size=2)
))


@given(closure_inputs)
@settings(max_examples=40, deadline=None)
def test_normal_closure_matches_sympy(inputs):
    """The subgroup generated by every conjugate of the seeds by every
    element of the group, seeds inside the group or not; sympy's own
    normal_closure where they all lie inside."""
    group_gens, seeds = inputs
    degree = len(group_gens[0])
    group = PermGroup(degree, group_gens)
    got = normal_closure(group, seeds).order()
    G = combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in group_gens])
    S = [combinatorics.Permutation(list(s)) for s in seeds]
    assert got == combinatorics.PermutationGroup([s ^ g for s in S for g in G.elements]).order()
    if all(G.contains(s) for s in S):
        assert got == G.normal_closure(S).order()
