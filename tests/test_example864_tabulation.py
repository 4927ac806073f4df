"""Criterion 1b's tabulation: the worked example's claim over every involutive
action that swaps the two S3 blocks.

K = S3 x S3 x A4 is the group of the first six generators of
``data/g864.pgrp``, on the points 1-3, 4-6 and 7-10. N = (S3 wr C2) x S4 acts
on the same ten points and normalizes K. Aut(S3 x S3) = S3 wr C2 and
Aut(A4) = S4, so Aut(K) has order 72 * 24 = 1,728; N acts on K faithfully,
so conjugation by N gives every automorphism of K. A split extension
K : <t> whose involution t swaps the S3 blocks is therefore <K, sigma> for
an involution sigma of N that swaps them: sigma = (a, a^-1)*swap x s with a
in S3 and s in S4, s^2 = 1, which gives 6 * 10 = 60 groups of order 864.

36 of them match the example's four invariants (derived subgroup 216,
nilpotent residual 108, Fitting subgroup 36, self-normalizing Sylow
2-subgroup of order 32): those whose s is a transposition, as in the shipped
group. In every one of the 36, 12 of the 105 proper subgroups of the Sylow
2-subgroup are not NA-subnormal. So the example's claim that all of them are
holds for no group that matches its other invariants, and criterion 1b's
failure is read as a defect of the worked example, not of the checker. The
scope is the split extensions K : C2 that swap the S3 blocks, which is how
the example builds its group.
"""

from __future__ import annotations

import pytest
from helpers import invert

from groupforms import lattice as lat
from groupforms.formations import NILPOTENT, NILPOTENT_DERIVED, residual
from groupforms.permgroup import (
    FiniteGroup,
    SubgroupRef,
    compose,
    derived_subgroup,
    fitting,
    identity_perm,
    perm_from_cycle_text,
    sylow_subgroup,
)
from groupforms.subnormal import is_f_subnormal, is_self_normalizing

# (S3 wr C2) x S4 on the points of K
N_GENERATORS = ("(1 2 3)", "(1 2)", "(1 4)(2 5)(3 6)", "(7 8 9 10)", "(7 8)")


@pytest.fixture(scope="module")
def k_and_n(g864):
    k_gens = [g864.elements[i] for i in g864.generators[:6]]
    N = FiniteGroup.from_generators([perm_from_cycle_text(t, 10) for t in N_GENERATORS], 10)
    return FiniteGroup.from_generators(k_gens, 10), k_gens, N


def test_n_gives_every_automorphism_of_k(k_and_n):
    K, k_gens, N = k_and_n
    assert (K.order, N.order) == (432, 1728)
    # N normalizes K, and no element of N but 1 centralizes it
    images = set()
    for n in N.elements:
        conj = tuple(compose(compose(invert(n), k), n) for k in k_gens)
        assert all(c in K._index for c in conj)
        images.add(conj)
    centralizer = [n for n in N.elements if all(compose(n, k) == compose(k, n) for k in k_gens)]
    assert centralizer == [identity_perm(10)]
    assert len(images) == 1728  # = |Aut(S3 x S3)| * |Aut(A4)| = 72 * 24


def test_no_matching_action_makes_every_proper_sylow2_subgroup_na_subnormal(k_and_n, g864):
    _, k_gens, N = k_and_n
    # the involutions that move the first S3 block (points 1-3) onto the second
    sigmas = [n for n in N.elements if compose(n, n) == identity_perm(10) and n[0] in (3, 4, 5)]
    assert len(sigmas) == 60
    assert g864.elements[g864.generators[6]] in sigmas
    matches, others = [], set()
    for sigma in sigmas:
        G = FiniteGroup.from_generators(k_gens + [sigma], 10)
        assert G.order == 864
        derived = derived_subgroup(G).order
        P = sylow_subgroup(G, 2)
        invariants = (derived, residual(NILPOTENT, G).order, fitting(G).order, P.order,
                      is_self_normalizing(G, P))
        if invariants != (216, 108, 36, 32, True):
            others.add((derived, invariants[4]))
            continue
        proper = [s for s in lat.subgroup_sets(P) if len(s) < P.order]
        not_sn = sum(not is_f_subnormal(G, SubgroupRef(G, s), NILPOTENT_DERIVED) for s in proper)
        moved = [x for x in range(6, 10) if sigma[x] != x]
        matches.append((len(moved), len(proper), not_sn))
    # the matches are exactly the sigmas whose S4 part is a transposition
    assert len(matches) == 36
    assert set(matches) == {(2, 105, 12)}
    assert others == {(72, False)}
