"""loopkit: computational algebra for finite loops.

Cayley-table loops, permutation-group analysis of their multiplication
and inner mapping groups, the commutator of normal subloops, abelian and
central extensions over cocycles, and the solvability / nilpotence
hierarchy, with reproducible counterexample searches.
"""

from .core import (
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
from .commutator import (
    HierarchyReport,
    a3_subconditions,
    classical_derived_series,
    commutator_subloop,
    congruence_derived_series,
    hierarchy_report,
    is_abelian_in_A1,
    is_abelian_in_A3,
    is_abelian_in_A4,
    is_central_in,
    is_supernilpotent,
    nilpotency_class_loop,
    supernilpotent_crosscheck,
    upper_central_series,
)
from .extensions import (
    AbelianGroupTable,
    Cocycle,
    automorphisms,
    build_extension,
    decompose_extension,
    division_closed_forms,
    format_cocycle,
    lemma31_analyze,
    lemma31_analyze_raw,
    mlt_element_form,
    normalize_cocycle,
    parse_cocycle,
    search_cocycles,
    trivial_cocycle,
    validate_cocycle,
)
from .multgrp import assoc_group, inner_generator, inner_group
from .perm import (
    PermGroup,
    Permutation,
    contains,
    derived_subgroup,
    group_order,
    is_solvable,
    nilpotency_class_group,
    normal_closure as group_normal_closure,
    solvable_class,
)
from .structure import (
    Subloop,
    all_normal_subloops,
    center_subloop,
    direct_decomposition,
    is_normal,
    normal_closure,
    quotient,
    subloop_generated,
)
from .util import INFINITE, is_finite

__all__ = [name for name in dir() if not name.startswith("_")]
