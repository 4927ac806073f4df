"""Criterion 1b's tabulation: the worked example's claim over every extension
of K by C2 that swaps the two S3 blocks.

K = S3 x S3 x A4 is the group of the first six generators of
``data/g864.pgrp``, on the points 1-3, 4-6 and 7-10. N = (S3 wr C2) x S4 acts
on the same ten points and normalizes K. Aut(S3 x S3) = S3 wr C2 and
Aut(A4) = S4, so Aut(K) has order 72 * 24 = 1,728.
``test_n_gives_every_automorphism_of_k`` shows that no element of N but 1
centralizes K (so Z(K) = 1) and that conjugation by N gives all 1,728
automorphisms of K: N is Aut(K), with K as its inner automorphisms.

Take any group E with K normal in E, |E : K| = 2, whose action swaps the S3
blocks. C_E(K) meets K in Z(K) = 1, so it has order 1 or 2. If it has order
2, E = K x C_E(K) acts on K by inner automorphisms, which swap no blocks.
So C_E(K) = 1, and conjugation embeds E in Aut(K) = N with K going onto K:
E is K u sigma K for a block-swapping sigma of N. Whether the extension
splits or not, it is one of the groups <K, sigma>.

The 60 involutions sigma of N that swap the blocks are (a, a^-1)*swap x s
with a in S3 and s in S4, s^2 = 1, and they fall into two cosets of K: the
36 whose s is a transposition and the 24 whose s is not. So there are two
such groups of order 864. The first matches the example's four invariants
(derived subgroup 216, nilpotent residual 108, Fitting subgroup 36,
self-normalizing Sylow 2-subgroup of order 32) and is the shipped group
itself; 12 of the 105 proper subgroups of its Sylow 2-subgroup are not
NA-subnormal. The second has derived subgroup 72 and a Sylow 2-subgroup
that is not self-normalizing. So the example's claim that all of those
subgroups are NA-subnormal holds for no group that matches its other
invariants, and criterion 1b's failure is read as a defect of the worked
example, not of the checker.
"""

from __future__ import annotations

import pytest
from helpers import element_indices, invert

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
    in_k = element_indices(K)
    images = set()
    for n in N.elements:
        conj = tuple(compose(compose(invert(n), k), n) for k in k_gens)
        assert all(c in in_k for c in conj)
        images.add(conj)
    centralizer = [n for n in N.elements if all(compose(n, k) == compose(k, n) for k in k_gens)]
    assert centralizer == [identity_perm(10)]
    assert len(images) == 1728  # = |Aut(S3 x S3)| * |Aut(A4)| = 72 * 24


def test_no_matching_action_makes_every_proper_sylow2_subgroup_na_subnormal(k_and_n, g864):
    K, k_gens, N = k_and_n
    # the involutions that move the first S3 block (points 1-3) onto the second
    sigmas = [n for n in N.elements if compose(n, n) == identity_perm(10) and n[0] in (3, 4, 5)]
    assert len(sigmas) == 60
    assert g864.elements[g864.generators[6]] in sigmas
    # sigma and tau lie in one coset of K when sigma^-1 tau = sigma tau is in K
    in_k = element_indices(K)
    cosets: list[list[tuple[int, ...]]] = []
    for sigma in sigmas:
        coset = next((c for c in cosets if compose(c[0], sigma) in in_k), None)
        if coset is None:
            cosets.append([sigma])
        else:
            coset.append(sigma)
    assert sorted(map(len, cosets)) == [24, 36]
    found = {}
    for coset in cosets:
        # sigma normalizes K and squares to 1, so <K, sigma> = K u sigma K
        G = FiniteGroup.from_generators(k_gens + [coset[0]], 10)
        assert G.order == 864
        P = sylow_subgroup(G, 2)
        invariants = (derived_subgroup(G).order, residual(NILPOTENT, G).order,
                      fitting(G).order, P.order, is_self_normalizing(G, P))
        proper = [s for s in lat.subgroup_sets(P) if len(s) < P.order]
        not_sn = sum(not is_f_subnormal(G, SubgroupRef(G, s), NILPOTENT_DERIVED) for s in proper)
        # how many of the points 7-10 the S4 part of each sigma moves
        moved = {sum(sigma[x] != x for x in range(6, 10)) for sigma in coset}
        found[len(coset)] = (G, invariants, len(proper), not_sn, moved)
    # the sigmas whose S4 part is a transposition give the one match: g864 itself
    G, invariants, proper, not_sn, moved = found[36]
    assert invariants == (216, 108, 36, 32, True)
    assert (proper, not_sn, moved) == (105, 12, {2})
    assert tuple(G.elements) == tuple(g864.elements)
    # the others give a group with derived subgroup 72 and a Sylow 2-subgroup
    # that is not self-normalizing
    G, invariants, proper, not_sn, moved = found[24]
    assert (invariants[0], invariants[4]) == (72, False)
    assert (proper, not_sn, moved) == (157, 28, {0, 4})
