"""Formations: membership, residuals, closure verification."""

from __future__ import annotations

import pytest
from helpers import (
    frattini,
    is_supersoluble,
    maximal_subgroups,
    residual_by_scan,
    subgroup_refs,
    verify_formation_closure,
)

from groupforms import catalog
from groupforms import lattice as lat
from groupforms.formations import (
    ABELIAN,
    BUILT_IN,
    NILPOTENT,
    NILPOTENT_DERIVED,
    SOLUBLE,
    SUPERSOLUBLE,
    Formation,
    FormationVerificationError,
    formation_by_name,
    quotient_in,
    residual,
)
from groupforms.permgroup import (
    Budgets,
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
    # same abstract group, different degree: the point stabiliser S3 < S4 by
    # 1 is realized on its 6 right cosets of 1 (S3 by 1 would be S3 itself)
    s3, s4 = catalog.symmetric(3), catalog.symmetric(4)
    stabiliser = SubgroupRef(s4, frozenset(i for i, p in enumerate(s4.elements) if p[3] == 3))
    realized = quotient(stabiliser, SubgroupRef(s4, frozenset([s4.identity]))).image
    assert (realized.order, realized.degree, s3.degree) == (6, 6, 3)
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
    # is not cyclic, so the residual op, given that intersection as its
    # closed form, must refuse.
    def membership(sub):
        parent = sub.parent
        orders = parent.element_orders()
        return any(orders[x] == sub.order for x in sub.members) or sub.order == 1

    cyclic_class = Formation(
        name="Cyc",
        description="cyclic groups",
        membership=membership,
        closed_residual=lambda sub: residual_by_scan(cyclic_class, sub),
    )
    v4 = catalog.elem_abelian(2, 2)
    with pytest.raises(FormationVerificationError):
        residual(cyclic_class, v4)


def test_closed_form_residuals_match_scan(catalog120):
    # every subgroup of every catalog group <= 48: the closed form of each
    # built-in formation names the same subgroup as the generic
    # normal-subgroup scan
    pairs = 0
    bad = []
    for g in catalog120:
        if g.order > 48:
            continue
        for H in subgroup_refs(g):
            for F in BUILT_IN.values():
                pairs += 1
                if residual(F, H).members != residual_by_scan(F, H).members:
                    bad.append((g.name, H.order, F.name))
    assert not bad, bad
    assert pairs == 14_420


def test_supersoluble_residual_matches_scan_on_example864(g864):
    # U's chief-series walk at order 864: every subgroup class rep, the group
    # itself included, enumerated under the larger lattice budget
    with Budgets(lattice=1000).in_force():
        reps = [SubgroupRef(g864, s) for s in lat.class_reps(g864)]
        bad = [
            H.order for H in reps
            if residual(SUPERSOLUBLE, H).members != residual_by_scan(SUPERSOLUBLE, H).members
        ]
    assert len(reps) == 212
    assert not bad, bad


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
                pushed = SubgroupRef(
                    hom.image, hom.map_members(g.closure(set(res.members) | set(N.members)))
                )
                assert pushed.members == residual(F, hom.image).members


ALL_BUILT_IN = (ABELIAN, NILPOTENT, SUPERSOLUBLE, NILPOTENT_DERIVED, SOLUBLE)


def test_quotient_in_matches_membership_of_quotient_image(catalog120):
    # the chain predicates decide K/N in F by residual containment, K^F <= N;
    # quotient_in and the membership predicate on the built image must agree
    # with it, for every subgroup K and every normal N of K, catalog groups
    # <= 32 (U included)
    pairs = 0
    bad = []
    for g in catalog120:
        if g.order > 32:
            continue
        for K in subgroup_refs(g):
            for N in lat.normal_subgroups(K):
                image = quotient(K, N).image.as_subgroup()
                for F in ALL_BUILT_IN:
                    pairs += 1
                    contained = residual(F, K).members <= N.members
                    if not (contained == quotient_in(F, K, N) == F.membership(image)):
                        bad.append((g.name, K.order, N.order, F.name))
    assert not bad, bad
    assert pairs == 58_220


def test_chief_walk_matches_huppert_criterion(catalog120):
    # U membership walks a chief series; the oracle reads the maximal
    # subgroups off the class reps. Every subgroup of the catalog groups
    # <= 60, and every quotient image of them, both by membership of the
    # image and through quotient_in.
    checked = 0
    bad = []
    for g in catalog120:
        if g.order > 60:
            continue
        for H in subgroup_refs(g):
            checked += 1
            if SUPERSOLUBLE.membership(H) != is_supersoluble(H):
                bad.append((g.name, H.order))
        for N in lat.normal_subgroups(g):
            image = quotient(g, N).image
            want = is_supersoluble(image)
            checked += 1
            if SUPERSOLUBLE.membership(image.as_subgroup()) != want:
                bad.append((g.name, "image", N.order))
            if quotient_in(SUPERSOLUBLE, g.as_subgroup(), N) != want:
                bad.append((g.name, "quotient_in", N.order))
    assert not bad, bad
    assert checked == 5_871


def _trivial_residual(sub):
    return SubgroupRef(sub.parent, frozenset((sub.parent.identity,)))


@pytest.mark.parametrize(
    "F,outside",
    [
        (ABELIAN, "S3"),
        (NILPOTENT, "S3"),
        (SUPERSOLUBLE, "A4"),
        (NILPOTENT_DERIVED, "S4"),
        (SOLUBLE, "A5"),
    ],
)
def test_closed_form_postcondition_is_raw(F, outside):
    # the chain steps decide by containment in the closed form, so they would
    # accept any claimed residual; the postcondition builds G/R through
    # quotient_in and must refuse
    wrong = Formation(
        name=f"{F.name}-trivial-closed-form",
        description="built-in membership, claimed residual always trivial",
        membership=F.membership,
        closed_residual=_trivial_residual,
    )
    G = catalog.build_named(outside)
    assert not F.contains(G)
    with pytest.raises(FormationVerificationError):
        residual(wrong, G)


def test_verify_formation_closure_clean(small_groups):
    for F in (ABELIAN, NILPOTENT):
        report = verify_formation_closure(F, small_groups)
        assert report.summary()["fail"] == 0


def test_verify_formation_closure_flags_broken_predicate(small_groups):
    broken = Formation(
        name="BrokenEven",
        description="order is even or trivial",
        membership=lambda sub: sub.order == 1 or sub.order % 2 == 0,
        closed_residual=lambda sub: residual_by_scan(broken, sub),
        subgroup_closed=False,
    )
    report = verify_formation_closure(broken, small_groups)
    assert report.summary()["fail"] > 0


def test_verify_formation_closure_flags_bogus_closed_form(small_groups):
    # "order <= 4" is not intersection-stable (two subgroups of order 2 in
    # C2^3 meet trivially), but containment in the derived subgroup would
    # accept every meet; the guard reads membership on the quotient images
    bogus = Formation(
        name="Order4-derived",
        description="order at most 4, claimed residual the derived subgroup",
        membership=lambda sub: sub.order <= 4,
        closed_residual=derived_subgroup,
    )
    report = verify_formation_closure(bogus, small_groups)
    failed = {c.check for c in report.checks if c.status == "fail"}
    assert "residual-well-defined" in failed


def test_verify_formation_closure_flags_too_large_closed_form(small_groups):
    # a closed form naming the whole group passes the residual postcondition
    # (G/G is abelian) but makes residual containment refuse every proper
    # quotient; the route check compares containment with membership of the
    # image
    whole = Formation(
        name="A-whole-closed-form",
        description="abelian groups, claimed residual always the whole group",
        membership=ABELIAN.membership,
        closed_residual=lambda sub: sub,
    )
    report = verify_formation_closure(whole, small_groups)
    failed = {c.check for c in report.checks if c.status == "fail"}
    assert failed == {"quotient-route"}


def test_formations_sharing_a_name_do_not_share_verdicts():
    # cached verdicts are keyed by the formation object, not by its name
    from groupforms.subnormal import is_f_abnormal, is_f_subnormal

    s3 = catalog.symmetric(3)
    c2 = next(SubgroupRef(s3, s) for s in lat.subgroup_sets(s3) if len(s) == 2)
    trivial = SubgroupRef(s3, frozenset((s3.identity,)))
    everything = Formation(
        name="A",
        description="x",
        membership=lambda s: True,
        closed_residual=lambda s: residual_by_scan(everything, s),
    )
    assert not ABELIAN.contains(s3)
    assert not quotient_in(ABELIAN, s3.as_subgroup(), trivial)
    assert residual(ABELIAN, s3).order == 3
    assert not is_f_subnormal(s3, c2, ABELIAN)
    assert is_f_abnormal(s3, c2, ABELIAN)
    assert everything.contains(s3)
    assert quotient_in(everything, s3.as_subgroup(), trivial)
    assert residual(everything, s3).order == 1
    assert is_f_subnormal(s3, c2, everything)
    assert not is_f_abnormal(s3, c2, everything)


def test_nilpotent_derived_flag_choices():
    assert NILPOTENT.superradical
    assert not NILPOTENT_DERIVED.superradical
    assert not SUPERSOLUBLE.superradical
    assert NILPOTENT_DERIVED.saturated
    assert not ABELIAN.saturated


def _product_witnesses(G, F):
    """Each (A, B) with A a subgroup class rep of G, B a subgroup of G, both
    F-subgroups that are F-subnormal in G, and G = AB, that is
    |A||B| = |G||A ∩ B|; none when G is in F."""
    from groupforms.subnormal import is_f_subnormal

    if F.contains(G):
        return
    good = [
        s for s in lat.subgroup_sets(G)
        if F.contains(SubgroupRef(G, s)) and is_f_subnormal(G, SubgroupRef(G, s), F)
    ]
    good_set = set(good)
    for A in lat.class_reps(G):
        if A in good_set:
            for B in good:
                if len(A) * len(B) == G.order * len(A & B):
                    yield SubgroupRef(G, A), SubgroupRef(G, B)


def test_superradical_flags_against_product_witnesses(catalog120):
    """F is superradical (Semenchuk's definition, the one the ``superradical``
    flag stands for) when F is subgroup-closed and every group G = AB, with
    A and B F-subnormal F-subgroups of G, lies in F. So a G outside F that is such
    a product witnesses that F is not superradical. Over the catalog <= 120,
    N (flagged superradical) has no witness; A and NA (not flagged) have 14
    and 4 witness groups, the first being D4 = C2·C4 and S4 = C2·A4. U and
    Sol have none up to 120, which says nothing either way."""

    def exponent(X):
        return max(X.parent.element_orders()[x] for x in X.members)

    found = {}
    for F in (NILPOTENT, ABELIAN, NILPOTENT_DERIVED):
        groups = []
        for g in catalog120:
            # (|A|, |B|, exponent of B) for each witness pair
            shapes = {(A.order, B.order, exponent(B)) for A, B in _product_witnesses(g, F)}
            if shapes:
                groups.append((g.name, shapes))
        found[F.name] = (F.superradical, len(groups), groups[0] if groups else None)
    assert found["N"] == (True, 0, None)
    assert found["A"][:2] == (False, 14) and found["NA"][:2] == (False, 4)
    # C4 is the cyclic group of order 4, A4 the only group of order 12 and exponent 3
    (name_a, shapes_a), (name_na, shapes_na) = found["A"][2], found["NA"][2]
    assert name_a == "D4" and (2, 4, 4) in shapes_a
    assert name_na == "S4" and (2, 12, 3) in shapes_na


def test_lemma4_gate_reason_for_abelian():
    # all maximal subgroups of Q8 are A-subnormal yet Q8 is not abelian:
    # the saturation hypothesis is essential, which is why lemma 4 gates on it
    from groupforms.subnormal import is_f_subnormal

    q8 = catalog.dicyclic(2)
    maximals = maximal_subgroups(q8)
    assert all(is_f_subnormal(q8, M, ABELIAN) for M in maximals)
    assert not ABELIAN.contains(q8)


SATURATED = [F for F in BUILT_IN.values() if F.saturated]


@pytest.mark.parametrize("F", SATURATED, ids=lambda F: F.name)
def test_saturated_flag_holds_on_catalog(catalog120, F):
    # the flag is trusted metadata that gates theorem 1 and lemma 4: a
    # saturated F holds every G whose Frattini quotient it holds
    bad = []
    for g in catalog120:
        if F.contains(quotient(g, frattini(g)).image) and not F.contains(g):
            bad.append((g.name, g.order))
    assert not bad, f"{F.name} is flagged saturated, yet G/Phi(G) in F and G not: {bad}"


def test_saturated_formations_are_the_expected_ones():
    assert sorted(F.name for F in SATURATED) == ["N", "NA", "Sol", "U"]
