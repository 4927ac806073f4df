"""Structure finders and the theorem/corollary/lemma checkers."""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import re
import sys
from itertools import chain

import pytest
from helpers import (
    conjugacy_class_reps,
    is_minimal_non_f,
    is_schmidt,
    lemma1_pushed_and_met_violations,
    maximal_subgroups,
    passes_deciding_all,
    residual_by_scan,
)

from groupforms import catalog, reports, structure
from groupforms import lattice as lat
from groupforms.formations import (
    ABELIAN,
    BUILT_IN,
    NILPOTENT,
    NILPOTENT_DERIVED,
    SUPERSOLUBLE,
    Formation,
)
from groupforms.lattice import LatticeBudgetError
from groupforms.permgroup import (
    Budgets,
    FiniteGroup,
    GroupError,
    SubgroupRef,
    _as_subgroup,
    _gather,
    prime_divisors,
)
from groupforms.subnormal import is_f_subnormal


def test_primary_cyclic_subgroups():
    assert structure.primary_cyclic_subgroups(catalog.cyclic(1)) == []
    s3 = catalog.symmetric(3)
    got = structure.primary_cyclic_subgroups(s3)
    assert sorted(h.order for h in got) == [2, 2, 2, 3]
    c6 = catalog.cyclic(6)
    assert sorted(h.order for h in structure.primary_cyclic_subgroups(c6)) == [2, 3]


def test_carter_subgroups():
    q8 = catalog.dicyclic(2)
    assert [c.order for c in structure.carter_subgroups(q8)] == [8]
    s3 = catalog.symmetric(3)
    assert [c.order for c in structure.carter_subgroups(s3)] == [2, 2, 2]
    a4 = catalog.alternating(4)
    assert [c.order for c in structure.carter_subgroups(a4)] == [3, 3, 3, 3]
    assert structure.carter_subgroups(catalog.alternating(5)) == []


def test_carter_subgroups_match_brute_filter(catalog120):
    # every nilpotent self-normalizing subgroup, found one subgroup at a time
    from groupforms.permgroup import SubgroupRef, is_nilpotent
    from groupforms.subnormal import is_self_normalizing

    checked = 0
    for g in catalog120:
        if g.order > 100:
            continue
        subgroups = [SubgroupRef(g, s) for s in lat.subgroup_sets(g)]
        want = [H.members for H in subgroups if is_nilpotent(H) and is_self_normalizing(g, H)]
        assert [C.members for C in structure.carter_subgroups(g)] == want, g.name
        checked += 1
    assert checked > 250


def test_maximal_class_reps_match_full_lattice(catalog120):
    # the maximality test of lemma 4 and theorem 2 against the maximal
    # subgroups read off the full lattice, filtered to class reps
    for g in catalog120:
        if g.order > 60:
            continue
        whole = g.as_subgroup()
        reps = structure.subgroup_class_reps(g)
        got = [M.members for M in reps if lat.is_maximal(whole, M)]
        rep_sets = {H.members for H in reps}
        want = [M.members for M in maximal_subgroups(g) if M.members in rep_sets]
        assert got == want, g.name


def test_minimal_non_f_and_schmidt():
    assert not is_minimal_non_f(catalog.cyclic(6), NILPOTENT)
    assert is_schmidt(catalog.symmetric(3))
    assert is_schmidt(catalog.alternating(4))
    assert not is_schmidt(catalog.symmetric(4))
    assert is_schmidt(catalog.schmidt_2_4_5())
    assert is_schmidt(catalog.schmidt_5_5_3())


def test_schmidt_shape(catalog120):
    # every recognized Schmidt group: two primes, a normal Sylow subgroup
    from groupforms.permgroup import normalizer, prime_divisors, sylow_subgroup

    found = 0
    for g in catalog120:
        if g.order > 100 or not is_schmidt(g):
            continue
        found += 1
        primes = sorted(prime_divisors(g))
        assert len(primes) == 2
        assert any(
            normalizer(g, sylow_subgroup(g, p)).order == g.order for p in primes
        )
    assert found >= 5


def test_ef_group_examples():
    assert structure.is_ef_group(catalog.symmetric(3), NILPOTENT)
    assert structure.is_ef_group(catalog.alternating(4), NILPOTENT)
    assert not structure.is_ef_group(catalog.symmetric(4), NILPOTENT)
    assert not structure.is_ef_group(catalog.cyclic(6), NILPOTENT)  # lies in N


def test_theorem1_examples():
    v = structure.check_theorem1(catalog.symmetric(3), NILPOTENT)
    assert v.statements == {"S1": True, "S2": True, "S3": True}
    assert passes_deciding_all(v)
    v = structure.check_theorem1(catalog.alternating(4), NILPOTENT)
    assert v.statements == {"S1": True, "S2": True, "S3": True}
    v = structure.check_theorem1(catalog.frobenius(5, 4), NILPOTENT)
    assert v.statements == {"S1": False, "S2": False, "S3": False}
    assert passes_deciding_all(v)  # all-false is still equivalent


def test_theorem1_hypothesis_gates():
    v = structure.check_theorem1(catalog.cyclic(6), NILPOTENT)
    assert not v.hypothesis_ok
    v = structure.check_theorem1(catalog.alternating(5), NILPOTENT)
    assert not v.hypothesis_ok
    v = structure.check_theorem1(catalog.symmetric(4), NILPOTENT_DERIVED)
    assert v.hypothesis_ok  # S4 is soluble and outside NA
    assert "empirical" in v.hypothesis_status  # NA is not flagged superradical


def test_theorem2_examples():
    v = structure.check_theorem2(catalog.alternating(4), NILPOTENT)
    assert v.statements == {"left": True, "right": True}
    v = structure.check_theorem2(catalog.symmetric(3), NILPOTENT)
    assert v.statements == {"left": True, "right": True}
    v = structure.check_theorem2(catalog.special_linear_2_3(), NILPOTENT)
    assert v.statements == {"left": False, "right": False}
    assert passes_deciding_all(v)


def test_corollary1_examples():
    v = structure.check_corollary1(catalog.symmetric(3), NILPOTENT)
    assert passes_deciding_all(v)
    assert v.details["carter_order"] == 2
    v = structure.check_corollary1(catalog.alternating(4), NILPOTENT)
    assert passes_deciding_all(v)
    assert v.details["carter_order"] == 3
    v = structure.check_corollary1(catalog.cyclic(5), NILPOTENT)
    assert not v.hypothesis_ok


def test_corollary2_examples():
    v = structure.check_corollary2(catalog.symmetric(3), NILPOTENT)
    assert passes_deciding_all(v)
    v = structure.check_corollary2(catalog.alternating(4), NILPOTENT)
    assert passes_deciding_all(v)
    v = structure.check_corollary2(catalog.frobenius(5, 4), NILPOTENT)
    assert passes_deciding_all(v)  # all three false for F20


def test_corollary1_passes_only_when_both_statements_hold(monkeypatch):
    # no catalog group makes both statements false, so on S3 (Carter order 2)
    # the order-2 subgroups are made non-abnormal and the trivial subgroup
    # not F-subnormal: two false statements agree but the corollary fails
    real = structure.is_f_subnormal
    monkeypatch.setattr(structure, "is_abnormal", lambda G, H: False)
    monkeypatch.setattr(structure, "is_f_subnormal", lambda G, H, F: H.order > 1 and real(G, H, F))
    v = structure.check_corollary1(catalog.symmetric(3), NILPOTENT)
    assert v.hypothesis_ok
    assert v.statements == {"divisible_implies_abnormal": False, "otherwise_subnormal_in_F": False}
    assert v.to_check_result().status == reports.FAIL


def test_corollary1_skips_when_the_carter_subgroups_are_over_the_lattice_budget():
    a4 = catalog.alternating(4)
    with Budgets(lattice=5).in_force():
        v = structure.check_corollary1(a4, NILPOTENT)
    assert v.hypothesis_ok and v.statements == {}
    assert v.details == {"carter_skipped": "all-subgroup quantifier exceeds the lattice budget"}
    assert v.to_check_result().status == reports.SKIP


# sha256 over the check results of theorems 1 and 2 and corollaries 1 and 2,
# every built-in formation on the catalog <= 60, recorded before the
# quantifiers and the cyclic-complement searches were folded into one each
CHECKERS60_SHA256 = "2795b5613e1013907613e74b79ab856fdc3de1bd8dc9e9ec6fdde324b022b3f9"


def test_checker_results_unchanged(catalog120):
    checks = (
        structure.check_theorem1,
        structure.check_theorem2,
        structure.check_corollary1,
        structure.check_corollary2,
    )
    parts = [
        json.dumps(check(g, BUILT_IN[name]).to_check_result().to_dict(), sort_keys=True)
        for name in sorted(BUILT_IN)
        for g in catalog120
        if g.order <= 60
        for check in checks
    ]
    assert len(parts) == 3440
    assert hashlib.sha256("\n".join(parts).encode()).hexdigest() == CHECKERS60_SHA256


def test_holds_for_all_records_witnesses_in_the_order_failures_are_found():
    s3 = catalog.symmetric(3)
    reps = structure.subgroup_class_reps(s3)
    assert [H.order for H in reps] == [1, 2, 3, 6]
    verdict = structure.TheoremVerdict("t", "S3", 6, "N", True, "flags satisfied")
    tried = []

    def test_of(statement, fails_at):
        def test(H):
            tried.append((statement, H.order))
            return H.order != fails_at
        return test

    holds = structure._holds_for_all(
        verdict, reps, {"first": test_of("first", 3), "second": test_of("second", 2)}
    )
    assert holds == {"first": False, "second": False}
    assert [(w["statement"], w["subgroup"]["order"]) for w in verdict.witnesses] == [
        ("second", 2),
        ("first", 3),
    ]
    # a failed statement is not tried again, and the scan stops once all fail
    assert tried == [("first", 1), ("second", 1), ("first", 2), ("second", 2), ("first", 3)]


def test_lemma_suite_report_shape(small_groups):
    rep = structure.check_lemma_suite(small_groups[:6], NILPOTENT, lemmas=("4", "5"))
    assert rep.summary()["fail"] == 0
    assert len(rep.checks) == 12


def test_lemma_suite_reports_a_failing_lemma(monkeypatch):
    # no catalog group violates a lemma, so a spy makes lemma 4 fail on S3
    violations = [{"lemma": "4", "group": "S3", "maximals": 2}]
    monkeypatch.setattr(structure, "check_lemma4", lambda G, F: violations)
    rep = structure.check_lemma_suite([catalog.symmetric(3)], NILPOTENT, lemmas=("4", "5"))
    failed = [c for c in rep.checks if c.status == reports.FAIL]
    assert [(c.check, c.details, c.witnesses) for c in failed] == [
        ("lemma4", {"group": "S3"}, violations)
    ]
    assert rep.summary() == {"pass": 1, "fail": 1, "skip": 0, "error": 0}


def test_lemma5_skips_an_insoluble_group():
    # N has every flag lemma 5 asks for, but lemma 5 is about soluble groups;
    # the reason names the flags all the same (see docs/report_schema.md)
    rep = structure.check_lemma_suite([catalog.alternating(5)], NILPOTENT, lemmas=("5",))
    [entry] = rep.checks
    assert (entry.check, entry.status) == ("lemma5", reports.SKIP)
    assert entry.details == {"group": "A5", "reason": "hypothesis flags not satisfied"}


def test_verify_paper_example_order_gate():
    with pytest.raises(GroupError):
        structure.verify_paper_example(catalog.symmetric(4))


def test_verify_paper_example_honours_lattice_budget(g864):
    # the Sylow 2-subgroup (order 32) is past the budget
    with Budgets(lattice=16).in_force(), pytest.raises(LatticeBudgetError):
        structure.verify_paper_example(g864)


def test_theorem1_on_example864(g864):
    v = structure.check_theorem1(g864, NILPOTENT_DERIVED)
    assert v.hypothesis_ok
    assert "empirical" in v.hypothesis_status
    assert v.statements["S1"] is True
    # over all primary (prime-power) subgroups the subnormal-or-abnormal class
    # membership fails, matching the worked example's negative claim
    assert v.details["primary_sn_or_abnormal"] is False
    # the subnormal-or-self-normalizing membership fails on the same twelve
    # witnesses as the proper-Sylow-2-subgroup claim (see the example checker)
    assert v.details["primary_sn_or_selfnormalizing"] is False
    # no cyclic Sylow complement at order 864: S3 is honestly false here,
    # consistent with the formation not being superradical (empirical status)
    assert v.statements["S3"] is False
    assert "s2_skipped" in v.details


def test_subgroup_class_reps_match_full_lattice(catalog120):

    for g in catalog120:
        if g.order <= 60:
            assert structure.subgroup_class_reps(g) == conjugacy_class_reps(lat.all_subgroups(g))


def test_prime_order_gate_builds_no_group(monkeypatch):
    # the gate reads "F contains C_p" off an element of order p in G itself;
    # a fresh formation object shares no cached verdict with ABELIAN
    s4 = catalog.symmetric(4)
    assert structure.check_lemma2(s4, ABELIAN) == []  # builds S4's quotient images
    fresh = dataclasses.replace(ABELIAN)
    built = []
    real_init = FiniteGroup.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("name"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", spy)
    assert structure._contains_all_prime_orders(fresh, s4)
    assert structure.check_lemma2(s4, fresh) == []
    assert built == []


def test_prime_order_gate_matches_cyclic_membership():
    two_three = Formation(
        name="{2,3}",
        description="groups whose order has no prime divisor but 2 and 3",
        membership=lambda sub: prime_divisors(sub) <= {2, 3},
        closed_residual=lambda sub: residual_by_scan(two_three, sub),
        subgroup_closed=True,
    )
    for F in (*BUILT_IN.values(), two_three):
        for p in (2, 3, 5, 7, 11, 13):
            G = catalog.elem_abelian(p, 2)
            want = F.contains(catalog.cyclic(p))
            assert structure._contains_all_prime_orders(F, G) == want, (F.name, p)
    assert not structure._contains_all_prime_orders(two_three, catalog.dihedral(5))


def test_lemma2_unmet_hypothesis_is_a_skip():
    # the {2,3} formation lacks C5, which lemma 2 assumes for D5
    two_three = Formation(
        name="{2,3}",
        description="groups whose order has no prime divisor but 2 and 3",
        membership=lambda sub: prime_divisors(sub) <= {2, 3},
        closed_residual=lambda sub: residual_by_scan(two_three, sub),
        subgroup_closed=True,
    )
    d5 = catalog.dihedral(5)
    assert structure.check_lemma2(d5, two_three) is None
    rep = structure.check_lemma_suite([d5], two_three, lemmas=("2",))
    assert [(c.check, c.status, c.details) for c in rep.checks] == [
        ("lemma2", reports.SKIP, {"group": "D5", "reason": "hypothesis flags not satisfied"})
    ]


def test_lemma_suite_takes_no_orbit_twice(monkeypatch):
    # class reps are cached per (group, acting subgroup) and lemmas 2 and 3
    # take no classes of intervals: no orbit computation may repeat an
    # earlier one on the same group
    real = lat.orbit_reps_under
    seen: dict[int, set] = {}
    parents = []  # keeps every spied group alive, so no id is reused

    def spy(parent, sets, under):
        sets = tuple(sets)
        parents.append(parent)
        key = (sets, under)
        assert key not in seen.setdefault(id(parent), set()), (
            f"orbits of {len(sets)} sets under a subgroup of order {len(under)} "
            f"taken again in {parent!r}"
        )
        seen[id(parent)].add(key)
        return real(parent, sets, under)

    monkeypatch.setattr(lat, "orbit_reps_under", spy)
    groups = [catalog.build_named(name) for name in ("S4", "sl23", "D6", "A5")]
    report = structure.check_lemma_suite(groups, ABELIAN)
    assert report.summary()["fail"] == 0
    assert parents


def _lemma1_property_of_line():
    """Maps a line of ``check_lemma1`` to the property whose ``# (n)``
    comment opens the block that holds it."""
    lines, start = inspect.getsourcelines(structure.check_lemma1)
    marks = [
        (start + i, m.group(1))
        for i, line in enumerate(lines)
        if (m := re.match(r"\s*# \((\d)\)", line))
    ]
    return lambda lineno: next((p for at, p in reversed(marks) if at <= lineno), None)


@pytest.mark.parametrize("F", [ABELIAN, NILPOTENT, SUPERSOLUBLE], ids=lambda F: F.name)
def test_lemma1_decides_each_quotient_and_meet_once(monkeypatch, small_groups, F):
    # properties (3) and (5) quantify over (N, H) and (H, K) but decide each
    # distinct (ambient, subgroup) once per checked group
    property_of = _lemma1_property_of_line()
    code = structure.check_lemma1.__code__
    real = structure.is_f_subnormal
    seen: set = set()
    counted = {"3": 0, "5": 0}
    kept = []  # keeps every spied ambient alive, so no id is reused

    def spy(G, H, formation):
        caller = sys._getframe(1)
        prop = property_of(caller.f_lineno) if caller.f_code is code else None
        if prop in counted:
            amb = _as_subgroup(G)
            kept.append(amb)
            key = (id(amb.parent), amb.members, H.members, formation)
            assert key not in seen, (
                f"lemma 1({prop}) decides a subgroup of order {H.order} in an "
                f"ambient of order {amb.order} again"
            )
            seen.add(key)
            counted[prop] += 1
        return real(G, H, formation)

    monkeypatch.setattr(structure, "is_f_subnormal", spy)
    for g in small_groups:
        seen.clear()
        assert structure.check_lemma1(g, F) == []
    assert all(counted.values()), counted


@pytest.mark.parametrize("F", [ABELIAN, NILPOTENT, SUPERSOLUBLE], ids=lambda F: F.name)
def test_lemma1_attributes_each_pushed_and_met_violation(monkeypatch, small_groups, F):
    # is_f_subnormal answers False for chosen quotient images and meets of
    # lemma 1(3) and (5), so their verdicts are shared through the keys:
    # every (N, H) and (H, K) must still get the violation a plain double
    # loop gives, one verdict per pair and no verdict shared
    property_of = _lemma1_property_of_line()
    code = structure.check_lemma1.__code__
    real = structure.is_f_subnormal

    def chosen(amb, members):
        return (sum(_as_subgroup(amb).members) + sum(members)) % 3 == 0

    def spy(G, H, formation):
        caller = sys._getframe(1)
        if caller.f_code is code and property_of(caller.f_lineno) in ("3", "5"):
            if chosen(G, H.members):
                return False
        return real(G, H, formation)

    def decide(amb, members):
        return not chosen(amb, members) and is_f_subnormal(amb, SubgroupRef(amb.parent, members), F)

    monkeypatch.setattr(structure, "is_f_subnormal", spy)
    counted = {"1.3": 0, "1.5": 0}
    for g in small_groups:
        got = structure.check_lemma1(g, F)
        assert got == lemma1_pushed_and_met_violations(g, F, decide), g.name
        for v in got:
            counted[v["lemma"]] += 1
    assert all(n > 100 for n in counted.values()), counted


def test_lemma1_bitsets_give_products_and_meets(catalog120):
    # lemma 1(3) reads HN off the lowest bit of above(H) & above(N), and
    # (5) keys H & K by the AND of member bitsets; both against the sets
    # computed from the members, on the catalog <= 48
    pairs = 0
    for g in catalog120:
        if g.order > 48:
            continue
        sets = lat.subgroup_sets(g)
        above, mask = structure._bitsets(sets, g.order)
        t = g._table
        cosets = [_gather(sorted(N.members)) for N in lat.normal_subgroups(g)]
        above_n = [above(N.members) for N in lat.normal_subgroups(g)]
        reps = [H.members for H in structure.subgroup_class_reps(g)]
        masks = {s: mask(s) for s in sets}
        for s, m in masks.items():
            assert [x for x in range(g.order) if m >> x & 1] == sorted(s)
        for H in reps:
            above_h = above(H)
            assert [i for i in range(len(sets)) if above_h >> i & 1] == [
                i for i, s in enumerate(sets) if H <= s
            ]
            for coset, up in zip(cosets, above_n):
                both = above_h & up
                product = frozenset(chain.from_iterable(coset(t[h]) for h in H))
                assert sets[(both & -both).bit_length() - 1] == product
                pairs += 1
            for K in reps:
                assert masks[H] & masks[K] == masks[H & K]
    assert pairs == 198_309


@pytest.mark.parametrize("F", [ABELIAN, NILPOTENT, NILPOTENT_DERIVED], ids=lambda F: F.name)
def test_lemma1_enumerates_no_quotient_image(monkeypatch, F):
    # lemma 1(2) reads the subgroups K >= N off the group's own class reps,
    # so only the checked group itself is ever enumerated: every proper
    # subgroup's list is a filter of its list, and no image is listed
    real = lat._enumerate
    enumerated = []

    def spy(sub):
        enumerated.append(sub)
        return real(sub)

    monkeypatch.setattr(lat, "_enumerate", spy)
    for g in catalog.catalog_groups(32):  # fresh groups: no cache is shared
        enumerated.clear()
        assert structure.check_lemma1(g, F) == []
        assert [(sub.parent, sub.members) for sub in enumerated] == [(g, g.whole())], g.name


def test_lemma1_quotients_are_homomorphisms(monkeypatch, small_groups):
    # every quotient lemma 1 builds, shared image or not, is a surjective
    # homomorphism onto its image with exactly its kernel sent to 1
    real = structure.quotient
    homs = []

    def spy(G, N):
        hom = real(G, N)
        homs.append(hom)
        return hom

    monkeypatch.setattr(structure, "quotient", spy)
    for g in small_groups:
        structure.check_lemma1(g, ABELIAN)
    homs = list({id(hom): hom for hom in homs}.values())
    assert len({id(hom.image) for hom in homs}) < len(homs), "no image is shared"
    for hom in homs:
        G, image, emap = hom.source.parent, hom.image, hom.element_map
        dom = hom.source.sorted_members
        assert sorted(emap) == list(dom)
        for x in dom:
            for y in dom:
                assert emap[G.mul(x, y)] == image.mul(emap[x], emap[y])
        assert {x for x in dom if emap[x] == image.identity} == hom.kernel.members
        assert set(emap.values()) == image.whole()
