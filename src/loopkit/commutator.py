"""The commutator of normal subloops and the solvability/nilpotence hierarchy.

The commutator [A,B] is the smallest normal subloop containing all
deviations W_p(a) / W_q(a), where W runs over the five tot-inner word
families T, U, L, R, M, a over A, and the argument tuples p and q are
B-congruent entry by entry (u ~ v when u/v in B).

Only the deviations W_p(a) / W_{rep p}(a) are formed, where rep p
replaces each entry of p by the least element of its B-coset.  They have
the same normal closure.  Each of them is one of the deviations above,
since p and rep p are congruent.  Conversely, for a normal subloop N,
x/y in N exactly when xN = yN.  If N contains every W_p(a) / W_{rep p}(a),
then W_p(a)N = W_{rep p}(a)N for every p, and congruent tuples p and q
share rep p = rep q.  So W_p(a)N = W_q(a)N, that is, W_p(a) / W_q(a)
lies in N.

The generators lie in A and in B, and so does [A, B]: each word fixes
the neutral and respects congruences, so for a in A, W_p(a) and
W_{rep p}(a) are congruent to e modulo A, and to each other modulo B.

So the two ends of the normal-subloop lattice need no words:
[A, 1] = [1, B] = 1, and [Q, Q] is the derived subloop Q'
(`derived_subloop`), the least normal N with Q/N abelian in itself,
that is a commutative group (Stanovsky and Vojtechovsky, "Commutator
theory for loops", J. Algebra 2014).  The congruence series takes its
D1 the same way.

Abelianess of a normal subloop has three independent routes here:

  A1  the commutator [A,A] is trivial,
  A3  a syntactic scan (restriction automorphisms plus associator and
      commutator identities), which stops at the first failed condition;
      it checks them cheapest first: (ii) on |A|^2 entries, (iii) on
      |A|^2 n, (iv) and (v) on |A| n^2, (vi) on three |A| n^2 arrays,
      and (i) on |A|^2 per row of `multgrp.inner_rows`.  Of the
      first 61 pool tables' normal subloops 114 fail, 86 at (ii).
  A4  extraction of a cocycle presenting Q as an extension of A by Q/A.

Centrality gets the analogous four routes C1, C3, C3', C4.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import LoopTable
from .errors import CapExceeded, NotNormal
from .extensions import extract_cocycle
from .multgrp import (
    CHUNK_ENTRIES, TOT_INNER_WORDS, assoc_group, inner_group, inner_maps, inner_rows,
)
from .perm import group_order, nilpotency_class_group, solvable_class
from .structure import (
    Subloop,
    coset_representatives,
    direct_decomposition,
    is_normal,
    normal_closure,
)
from .util import INFINITE, format_value, is_finite, is_prime_power, parse_value

REPORT_ORDER_CAP = 128


def commutator_generators(Q: LoopTable, A: Subloop, B: Subloop):
    """The deviations W_p(a) / W_{rep p}(a) whose normal closure is [A, B]."""
    rep = coset_representatives(Q, B)
    idx = np.fromiter(A.elements, dtype=np.int64)
    found = np.zeros(Q.order, dtype=bool)
    for word in TOT_INNER_WORDS:
        vals = inner_maps(Q, word, idx)
        at_rep = vals
        for axis in range(vals.ndim - 1):
            at_rep = at_rep.take(rep, axis=axis)
        found[Q.rdiv[vals, at_rep]] = True
    found[Q.neutral] = False
    return set(np.flatnonzero(found).tolist())


def commutator_subloop(Q: LoopTable, A: Subloop, B: Subloop) -> Subloop:
    """[A, B]: normal closure of the word deviations under B-congruent
    substitutions applied to elements of A."""
    if not is_normal(Q, A):
        raise NotNormal("first argument is not normal")
    if not is_normal(Q, B):
        raise NotNormal("second argument is not normal")
    if A.is_trivial() or B.is_trivial():
        return Subloop(Q, (Q.neutral,))
    if A.is_whole() and B.is_whole():
        return derived_subloop(Q)
    gens = commutator_generators(Q, A, B)
    if not gens:
        return Subloop(Q, (Q.neutral,))
    return normal_closure(Q, gens)


# -- abelianess ----------------------------------------------------------------


def _whole(Q: LoopTable) -> Subloop:
    return Subloop(Q, tuple(range(Q.order)))


def is_abelian_in_A1(Q: LoopTable, A: Subloop) -> bool:
    return commutator_subloop(Q, A, A).is_trivial()


def _restricts_to_automorphisms(Q: LoopTable, A: Subloop, images: np.ndarray) -> bool:
    """Each row of images (the values of one map on A, in element order)
    is an automorphism of A's table."""
    idx = np.fromiter(A.elements, dtype=np.int64)
    pos = np.full(Q.order, -1, dtype=np.int64)
    pos[idx] = np.arange(len(idx))
    if (pos[images] < 0).any():
        return False
    products = pos[Q.mul[np.ix_(idx, idx)]]  # a_i a_j as a position in A
    lhs = images[:, products]  # W(a_i a_j)
    rhs = Q.mul[images[:, :, None], images[:, None, :]]  # W(a_i) W(a_j)
    return bool(np.array_equal(lhs, rhs))


def _a3_conditions(Q: LoopTable, A: Subloop):
    """The six A3 conditions as (name, holds) pairs, cheapest first; each
    is computed only when the previous one has been taken."""
    if not is_normal(Q, A):
        raise NotNormal("subloop is not normal")
    mul, rdiv = Q.mul, Q.rdiv
    n = Q.order
    idx = np.fromiter(A.elements, dtype=np.int64)
    sub = mul[np.ix_(idx, idx)]
    yield "ii", bool(np.array_equal(sub, sub.T))
    BA = mul[idx]  # BA[i, x] = a_i * x
    yield "iii", bool(np.array_equal(mul[sub], mul[idx[:, None, None], BA[None, :, :]]))
    BAX = mul[BA]  # BAX[i, x, u] = (a_i x) u
    yield "iv", bool(np.array_equal(BAX[:, :, idx], BA[:, mul[:, idx]]))
    yield "v", bool(np.array_equal(mul[mul[:, idx]][:, :, idx], mul[:, sub]))
    # u/v in A iff u and v share a right coset Av, that is rep u = rep v
    W = rdiv[rdiv[BAX, mul], idx[:, None, None]]  # W[i, x, u] = [a_i, x, u]
    yield "vi", bool(np.array_equal(W, W[:, :, coset_representatives(Q, A)]))
    # Inn's generators on A, CHUNK_ENTRIES products but at least n maps at a time
    maps = inner_rows(Q)[:, idx]
    step = max(n, CHUNK_ENTRIES // len(idx) ** 2)
    yield "i", all(
        _restricts_to_automorphisms(Q, A, maps[i : i + step]) for i in range(0, len(maps), step)
    )


def a3_subconditions(Q: LoopTable, A: Subloop) -> dict[str, bool]:
    """The six syntactic sub-conditions of the abelianess characterization
    of a normal subloop A (NotNormal otherwise).

    i    inner generators restrict to automorphisms of A
    ii   [a,b] = 1
    iii  [a,b,x] = 1
    iv   [a,x,b] = 1
    v    [x,a,b] = 1
    vi   [a,x,u] = [a,x,v] whenever u/v in A
    """
    return dict(sorted(_a3_conditions(Q, A)))  # i, ii, iii, iv, v, vi


def is_abelian_in_A3(Q: LoopTable, A: Subloop) -> bool:
    """All six A3 conditions hold; stops at the first that fails.
    NotNormal when A is not a normal subloop."""
    if not is_normal(Q, A):
        raise NotNormal("subloop is not normal")
    return A.is_trivial() or all(holds for _, holds in _a3_conditions(Q, A))


def is_abelian_in_A4(Q: LoopTable, A: Subloop):
    """The extracted cocycle presenting Q over the fiber A, or None.

    This route is purely structural: it never consults the syntactic
    conditions or the commutator, so the three characterizations stay
    independently testable.
    """
    if not is_normal(Q, A):
        raise NotNormal("subloop is not normal")
    result = extract_cocycle(Q, A)
    return None if result is None else result[0]


# -- centrality ----------------------------------------------------------------


def is_central_in(Q: LoopTable, A: Subloop, mode: str) -> bool:
    if not is_normal(Q, A):
        raise NotNormal("subloop is not normal")
    mul = Q.mul
    n = Q.order
    idx = np.fromiter(A.elements, dtype=np.int64)
    if mode == "C1":
        return commutator_subloop(Q, A, _whole(Q)).is_trivial()
    if mode == "C3":
        return bool((inner_rows(Q)[:, idx] == idx).all())
    if mode == "C3prime":
        if not np.array_equal(mul[idx, :], mul[:, idx].T):
            return False
        BA = mul[idx]
        if not np.array_equal(mul[BA], BA[:, mul]):  # (a x) y = a (x y)
            return False
        rhs = mul[np.arange(n)[:, None, None], BA[None, :, :]]
        if not np.array_equal(mul[mul[:, idx]], rhs):  # (x a) y = x (a y)
            return False
        if not np.array_equal(mul[mul][:, :, idx], mul[:, mul[:, idx]]):  # (x y) a = x (y a)
            return False
        return True
    if mode == "C4":
        result = extract_cocycle(Q, A)
        return result is not None and result[0].is_central()
    raise ValueError(f"unknown centrality mode {mode!r}")


# -- series and classes -----------------------------------------------------------


def congruence_derived_series(Q: LoopTable):
    """Iterated commutator with the whole loop as ambient: D0 = Q,
    D_{i+1} = [D_i, D_i], with D1 = [Q, Q] the derived subloop
    (`commutator_subloop`).  Returns (series, class or INFINITE)."""
    series = [_whole(Q)]
    while True:
        current = series[-1]
        if current.is_trivial():
            return series, len(series) - 1
        nxt = commutator_subloop(Q, current, current)
        if nxt.elements == current.elements:
            return series, INFINITE
        if not set(nxt.elements) <= set(current.elements):
            raise AssertionError("commutator series failed to descend")
        series.append(nxt)


def derived_subloop(Q: LoopTable) -> Subloop:
    """Least normal subloop with a commutative-group quotient: the normal
    closure of g(a)/a for every row g of `multgrp.inner_rows` and every a.

    Q/N is a commutative group iff its every T_x (commutativity) and
    L_{x,y} (x(yz) = (xy)z) is the identity, that is iff Inn(Q/N) is
    trivial, and for a normal N that holds iff N holds every g(a)/a
    (`multgrp.inner_rows`).
    """
    seeds = np.zeros(Q.order, dtype=bool)
    seeds[Q.rdiv[inner_rows(Q), np.arange(Q.order)]] = True
    return normal_closure(Q, np.flatnonzero(seeds).tolist())


def classical_derived_series(Q: LoopTable):
    """Derived-subloop iteration, each step inside the previous term:
    Q^(0) = Q, Q^(i+1) = (Q^(i))'.

    Its length is the classical solvability class, the least length of a
    subnormal series with commutative-group factors.  The iteration is
    such a series.  Let Q = Q_0 > Q_1 > ... > Q_k = 1 be another, and
    suppose Q^(i) <= Q_i.  The quotient map Q_i -> Q_i/Q_{i+1}, restricted
    to Q^(i), has the intersection of Q^(i) and Q_{i+1} as its kernel, and
    its image is a subloop of a commutative group, so a commutative group.  Q^(i+1) is the least
    normal subloop of Q^(i) with such a quotient, so Q^(i+1) <= Q_{i+1},
    and Q^(k) = 1.

    The congruence series is such a series: D_i/D_{i+1} is abelian in
    Q/D_{i+1}, so it is a commutative group.  So Q^(i) <= D_i term by
    term, with Q^(1) = D_1 = Q'.
    """
    series = [_whole(Q)]
    while True:
        current = series[-1]
        if current.is_trivial():
            return series, len(series) - 1
        # Q itself for the whole loop: an induced copy would rebuild Inn and its orbits
        derived = derived_subloop(Q if current.is_whole() else current.induced_table())
        lifted = tuple(current.elements[i] for i in derived.elements)
        if lifted == current.elements:
            return series, INFINITE
        series.append(Subloop(Q, lifted))


def upper_central_series(Q: LoopTable):
    """Z0 = 1, Z_{i+1} = preimage of the center of Q/Z_i.

    Z_{i+1} is the set of a with g(a) Z_i = a Z_i for every row g of
    `multgrp.inner_rows`, whose cosets are Z(Q/Z_i) (there): one gather
    per step, and no table of Q/Z_i.
    """
    rows = inner_rows(Q)
    series = [Subloop(Q, (Q.neutral,))]
    while True:
        Z = series[-1]
        if Z.is_whole():
            return series, len(series) - 1
        rep = coset_representatives(Q, Z).astype(rows.dtype)  # uint8 gather up to 256 points
        fixed = np.flatnonzero((rep[rows] == rep).all(axis=0))
        if len(fixed) == Z.size:
            return series, INFINITE
        series.append(Subloop(Q, tuple(fixed.tolist())))


def nilpotency_class_loop(Q: LoopTable) -> int | float:
    return upper_central_series(Q)[1]


def is_supernilpotent(Q: LoopTable) -> bool:
    """Nilpotence of the multiplication group (the finite characterization)."""
    return is_finite(nilpotency_class_group(assoc_group(Q, "MLT")))


def supernilpotent_crosscheck(Q: LoopTable) -> bool:
    """Independent route: a full direct decomposition into centrally
    nilpotent factors of prime power order."""
    n = Q.order
    if n == 1:
        return True
    if is_prime_power(n):
        return is_finite(nilpotency_class_loop(Q))
    for A, B in direct_decomposition(Q):
        if supernilpotent_crosscheck(A.induced_table()) and supernilpotent_crosscheck(
            B.induced_table()
        ):
            return True
    return False


# -- the aggregate report -----------------------------------------------------------


@dataclass(frozen=True)
class HierarchyReport:
    order: int
    commutative: bool
    associative: bool
    center_size: int
    nilpotency_class: int | float
    congruence_solvability_class: int | float
    classical_solvability_class: int | float
    supernilpotent: bool
    mlt_order: int
    mlt_solvable_class: int | float
    mlt_nilpotency_class: int | float
    inn_order: int
    inn_solvable_class: int | float

    def check(self):
        """The vertical implications any report must satisfy."""
        if is_finite(self.nilpotency_class) and not is_finite(
            self.congruence_solvability_class
        ):
            raise AssertionError("nilpotent but not congruence solvable")
        if is_finite(self.congruence_solvability_class) and not is_finite(
            self.classical_solvability_class
        ):
            raise AssertionError("congruence solvable but not classically solvable")
        if self.supernilpotent and not is_finite(self.nilpotency_class):
            raise AssertionError("supernilpotent but not nilpotent")

    def field_values(self) -> dict[str, str]:
        return {f.name: format_value(getattr(self, f.name)) for f in fields(self)}

    def to_lines(self) -> str:
        return "".join(f"{k}: {v}\n" for k, v in sorted(self.field_values().items()))

    @classmethod
    def from_values(cls, values) -> "HierarchyReport":
        """The report from a field name -> text mapping (field_values'
        inverse); a missing field, or text that does not fit its field,
        raises Malformed."""
        return cls(**{k: parse_value(values.get(k, ""), t, k) for k, t in FIELD_KINDS.items()})

    @classmethod
    def from_lines(cls, text: str) -> "HierarchyReport":
        values = {}
        for ln in text.splitlines():
            if ln.strip():
                key, _, raw = ln.partition(":")
                values[key.strip()] = raw.strip()
        return cls.from_values(values)


# The kind of each field's text for util.parse_value; only classes may be inf.
_KINDS = {"bool": "bool", "int": "int", "int | float": "class"}
FIELD_KINDS = {f.name: _KINDS[f.type] for f in fields(HierarchyReport)}


def check_report_order(Q: LoopTable) -> None:
    """Raise CapExceeded when Q's order exceeds REPORT_ORDER_CAP."""
    if Q.order > REPORT_ORDER_CAP:
        raise CapExceeded(f"order {Q.order} exceeds the report cap {REPORT_ORDER_CAP}")


def hierarchy_report(Q: LoopTable) -> HierarchyReport:
    """Every invariant of the report; raises CapExceeded before any work
    when the order exceeds REPORT_ORDER_CAP.  No part of the report
    enumerates normal subloops, and the group orders are exact integers;
    the cap bounds time and memory (the words over argument triples take
    n**3 entries).

    Fields read off work already done:
      center_size  Z_1 of the upper central series, the fixed set of
          Inn (`center_subloop`).
      congruence_solvability_class  the nilpotency class k when k <= 2:
          Q/Z(Q) is a commutative group, so Q' <= Z(Q) and
          [Q', Q'] <= [Z(Q), Q] = 1 (Stanovsky and Vojtechovsky 2014).
      classical_solvability_class  the congruence class c when c <= 2:
          Q^(i) <= D_i and Q^(1) = D_1 (`classical_derived_series`).
      mlt_nilpotency_class, supernilpotent  inf and false when Q is not
          centrally nilpotent: Mlt(Q) nilpotent makes Q centrally
          nilpotent (Bruck 1946).
      mlt_solvable_class  inf when Inn is not solvable, as Inn <= Mlt.
      inn_order, inn_solvable_class  Inn = Mlt_e from Mlt's chain
          (`inner_group`), built first, so the rest reads its generators
          as `multgrp.inner_rows` and INN's word rows are never formed.
    """
    check_report_order(Q)
    mlt = assoc_group(Q, "MLT")
    inn = inner_group(Q)
    inn_solvable = solvable_class(inn)
    upper, nilpotency = upper_central_series(Q)
    # INFINITE compares above every integer
    congruence = nilpotency if nilpotency <= 2 else congruence_derived_series(Q)[1]
    classical = congruence if congruence <= 2 else classical_derived_series(Q)[1]
    mlt_nilpotency = nilpotency_class_group(mlt) if is_finite(nilpotency) else INFINITE
    report = HierarchyReport(
        order=Q.order,
        commutative=Q.is_commutative,
        associative=Q.is_associative,
        center_size=upper[1].size if len(upper) > 1 else 1,
        nilpotency_class=nilpotency,
        congruence_solvability_class=congruence,
        classical_solvability_class=classical,
        supernilpotent=is_finite(mlt_nilpotency),
        mlt_order=group_order(mlt),
        mlt_solvable_class=INFINITE if inn_solvable is INFINITE else solvable_class(mlt),
        mlt_nilpotency_class=mlt_nilpotency,
        inn_order=group_order(inn),
        inn_solvable_class=inn_solvable,
    )
    report.check()
    return report
