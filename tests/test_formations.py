"""Formations: membership, residuals, closure verification."""

from __future__ import annotations

import pytest
from helpers import residual_by_scan, subgroup_refs

from groupforms import catalog
from groupforms import lattice as lat
from groupforms.formations import (
    ABELIAN,
    NILPOTENT,
    NILPOTENT_DERIVED,
    SOLUBLE,
    SUPERSOLUBLE,
    Formation,
    FormationVerificationError,
    formation_by_name,
    quotient_in,
    residual,
    verify_formation_closure,
)
from groupforms.permgroup import (
    GroupError,
    SubgroupRef,
    derived_subgroup,
    lower_central_series,
    quotient,
)


def test_contains_examples():
    assert ABELIAN.contains(catalog.cyclic(9))
    s3 = catalog.symmetric(3)
    assert not NILPOTENT.contains(s3)
    assert NILPOTENT_DERIVED.contains(s3)
    assert SUPERSOLUBLE.contains(s3)
    s4 = catalog.symmetric(4)
    assert not SUPERSOLUBLE.contains(s4)
    assert not NILPOTENT_DERIVED.contains(s4)  # S4' = A4 is not nilpotent
    assert SOLUBLE.contains(s4)
    assert not SOLUBLE.contains(catalog.alternating(5))


def test_membership_trivial_group():
    triv = catalog.cyclic(1)
    for F in (ABELIAN, NILPOTENT, SUPERSOLUBLE, NILPOTENT_DERIVED, SOLUBLE):
        assert F.contains(triv)


def test_membership_invariant_under_quotient_realization():
    # same abstract group, different degree
    s3 = catalog.symmetric(3)
    triv = s3.subgroup([s3.identity])
    realized = quotient(s3, triv).image
    assert realized.degree != s3.degree
    for F in (ABELIAN, NILPOTENT, SUPERSOLUBLE, NILPOTENT_DERIVED, SOLUBLE):
        assert F.contains(realized) == F.contains(s3)


def test_formation_by_name():
    assert formation_by_name("NA") is NILPOTENT_DERIVED
    with pytest.raises(GroupError):
        formation_by_name("X")


def test_residual_of_member_is_trivial():
    assert residual(NILPOTENT, catalog.cyclic(12)).order == 1
    assert residual(SUPERSOLUBLE, catalog.symmetric(3)).order == 1


def test_residual_examples():
    s3 = catalog.symmetric(3)
    assert residual(ABELIAN, s3).members == derived_subgroup(s3).members
    assert residual(ABELIAN, s3).order == 3
    s4 = catalog.symmetric(4)
    assert residual(NILPOTENT, s4).order == 12


def test_residual_membership_iff_trivial(small_groups):
    for g in small_groups:
        for F in (ABELIAN, NILPOTENT, SUPERSOLUBLE, NILPOTENT_DERIVED):
            assert F.contains(g) == (residual(F, g).order == 1)


def test_residual_postcondition_verified():
    # "cyclic" is quotient-closed but not subdirect-closed: on V4 the
    # qualifying kernels intersect to the trivial group whose quotient V4
    # is not cyclic, so the residual op must refuse.
    def membership(sub):
        parent = sub.parent
        orders = parent.element_orders()
        return any(orders[x] == sub.order for x in sub.members) or sub.order == 1

    cyclic_class = Formation(name="Cyc", description="cyclic groups", membership=membership)
    v4 = catalog.elem_abelian(2, 2)
    with pytest.raises(FormationVerificationError):
        residual(cyclic_class, v4)


def test_closed_form_residuals_match_scan(catalog120):
    # every subgroup of every catalog group <= 48: the closed form (A, N, NA,
    # Sol) names the same subgroup as the generic normal-subgroup scan
    closed = (ABELIAN, NILPOTENT, NILPOTENT_DERIVED, SOLUBLE)
    assert all(F.closed_residual is not None for F in closed)
    pairs = 0
    bad = []
    for g in catalog120:
        if g.order > 48:
            continue
        for H in subgroup_refs(g):
            for F in closed:
                pairs += 1
                if residual(F, H).members != residual_by_scan(F, H).members:
                    bad.append((g.name, H.order, F.name))
    assert not bad, bad
    assert pairs == 11_536


def test_residual_postcondition_verified_on_closed_form():
    # a closed form that disagrees with the membership predicate is refused:
    # S3 modulo the trivial group is not abelian
    def trivial(sub):
        return SubgroupRef(sub.parent, frozenset((sub.parent.identity,)))

    wrong = Formation(
        name="A-wrong-closed-form",
        description="abelian groups, claimed residual always trivial",
        membership=ABELIAN.membership,
        closed_residual=trivial,
    )
    assert residual(wrong, catalog.cyclic(6)).order == 1
    with pytest.raises(FormationVerificationError):
        residual(wrong, catalog.symmetric(3))


def test_quotient_monotonicity_small(catalog120):
    # image of the residual equals the residual of the image, <= order 48
    from groupforms import lattice as _lat

    for g in catalog120:
        if g.order > 48:
            continue
        for N in _lat.normal_subgroups(g):
            if N.order == g.order:
                continue
            hom = quotient(g, N)
            for F in (ABELIAN, NILPOTENT, NILPOTENT_DERIVED):
                res = residual(F, g)
                pushed = hom.image.subgroup(
                    hom.map_members(g.closure(set(res.members) | set(N.members))),
                    _trusted=True,
                )
                assert pushed.members == residual(F, hom.image).members


def test_verify_formation_closure_clean(small_groups):
    for F in (ABELIAN, NILPOTENT):
        report = verify_formation_closure(F, small_groups)
        assert report.summary()["fail"] == 0


def test_verify_formation_closure_flags_broken_predicate(small_groups):
    broken = Formation(
        name="BrokenEven",
        description="order is even or trivial",
        membership=lambda sub: sub.order == 1 or sub.order % 2 == 0,
        subgroup_closed=False,
    )
    report = verify_formation_closure(broken, small_groups)
    assert report.summary()["fail"] > 0


def test_nilpotent_derived_flag_choices():
    assert NILPOTENT.superradical
    assert not NILPOTENT_DERIVED.superradical
    assert not SUPERSOLUBLE.superradical
    assert NILPOTENT_DERIVED.saturated
    assert not ABELIAN.saturated


def test_lemma4_gate_reason_for_abelian():
    # all maximal subgroups of Q8 are A-subnormal yet Q8 is not abelian:
    # the saturation hypothesis is essential, which is why lemma 4 gates on it
    from groupforms.subnormal import is_f_subnormal

    q8 = catalog.dicyclic(2)
    maximals = lat.maximal_subgroups(q8)
    assert all(is_f_subnormal(q8, M, ABELIAN) for M in maximals)
    assert not ABELIAN.contains(q8)
