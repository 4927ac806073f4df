"""Differential oracle: sympy's Schreier-Sims machinery, which sees only the
generators, against the invariants computed from the full element tables.

Normal closures and Sylow subgroups are grown by coset-wise joins
(``FiniteGroup.join``); their orders are compared here too, and so is the
number of element conjugacy classes that ``lattice.conjugacy_orbits`` finds."""

from __future__ import annotations

import pytest

from groupforms.lattice import conjugacy_orbits
from groupforms.permgroup import (
    derived_series,
    is_nilpotent,
    is_soluble,
    lower_central_series,
    normal_closure,
    p_part,
    prime_divisors,
    sylow_subgroup,
)

combinatorics = pytest.importorskip("sympy.combinatorics")


def _sympy_perm(G, x):
    return combinatorics.Permutation(list(G.elements[x]))


def _sympy_group(G, gens=None):
    gens = G.generators if gens is None else gens
    perms = [_sympy_perm(G, i) for i in gens] or [combinatorics.Permutation(list(range(G.degree)))]
    return combinatorics.PermutationGroup(perms)


def _assert_agrees_with_sympy(G, sympy_sylow):
    """``sympy_sylow``: also take each Sylow subgroup from sympy's own search,
    which runs about 10 s per prime on the regular representations of
    degree ~110 in the catalog (over 4 minutes for the catalog <= 120)."""
    P = _sympy_group(G)
    assert G.order == P.order(), G.name
    assert [H.order for H in derived_series(G)] == [H.order() for H in P.derived_series()], G.name
    assert [H.order for H in lower_central_series(G)] == [
        H.order() for H in P.lower_central_series()
    ], G.name
    assert is_soluble(G) == P.is_solvable, G.name
    assert is_nilpotent(G) == P.is_nilpotent, G.name
    singletons = [frozenset((x,)) for x in G.whole()]
    classes = conjugacy_orbits(G, singletons, G.whole())
    assert sum(1 for _ in classes) == len(P.conjugacy_classes()), G.name
    for x in G.generators:
        assert normal_closure(G, [x]).order == P.normal_closure(_sympy_perm(G, x)).order(), G.name
    for p in sorted(prime_divisors(G)):
        S = sylow_subgroup(G, p)
        ours = _sympy_group(G, S.generators)
        # Sylow p-subgroups are conjugate, so any one has the same normal closure
        Q = P.sylow_subgroup(p) if sympy_sylow else ours
        assert S.order == ours.order() == Q.order() == p_part(P.order(), p), (G.name, p)
        assert normal_closure(G, S.generators).order == P.normal_closure(Q).order(), (G.name, p)


def test_catalog_agrees_with_sympy(catalog120):
    for G in catalog120:
        _assert_agrees_with_sympy(G, sympy_sylow=G.order <= 48)


def test_example864_agrees_with_sympy(g864):
    _assert_agrees_with_sympy(g864, sympy_sylow=True)
