"""Differential oracle: sympy's Schreier-Sims machinery, which sees only the
generators, against the invariants computed from the full element tables."""

from __future__ import annotations

import pytest

from groupforms.permgroup import derived_series, is_nilpotent, is_soluble, lower_central_series

combinatorics = pytest.importorskip("sympy.combinatorics")


def _sympy_group(G):
    gens = [G.elements[i] for i in G.generators] or [tuple(range(G.degree))]
    return combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in gens])


def _assert_agrees_with_sympy(G):
    P = _sympy_group(G)
    assert G.order == P.order(), G.name
    assert [H.order for H in derived_series(G)] == [H.order() for H in P.derived_series()], G.name
    assert [H.order for H in lower_central_series(G)] == [
        H.order() for H in P.lower_central_series()
    ], G.name
    assert is_soluble(G) == P.is_solvable, G.name
    assert is_nilpotent(G) == P.is_nilpotent, G.name


def test_catalog_agrees_with_sympy(catalog120):
    for G in catalog120:
        _assert_agrees_with_sympy(G)


def test_example864_agrees_with_sympy(g864):
    _assert_agrees_with_sympy(g864)
