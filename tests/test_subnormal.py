"""The five subgroup predicates, cross-checked against brute-force oracles."""

from __future__ import annotations

import dataclasses

import pytest
from helpers import (
    is_f_subnormal_via_quotients,
    is_f_subnormal_via_residual,
    is_subnormal,
    oracle_f_abnormal,
    oracle_f_subnormal,
    regular_realization,
    subgroup_refs,
)

from groupforms import catalog
from groupforms import lattice as lat
from groupforms.formations import (
    ABELIAN,
    NILPOTENT,
    NILPOTENT_DERIVED,
    SOLUBLE,
    SUPERSOLUBLE,
    residual,
)
from groupforms.permgroup import SubgroupRef, quotient, sylow_subgroup
from groupforms.structure import subgroup_class_reps
from groupforms.subnormal import (
    f_subnormal_witness,
    is_abnormal,
    is_absolutely_f_subnormal,
    is_f_abnormal,
    is_f_subnormal,
    is_self_normalizing,
)


def _sub_of_order(g, order, nth=0):
    found = [s for s in lat.subgroup_sets(g) if len(s) == order]
    return SubgroupRef(g, found[nth])


def test_whole_group_base_cases():
    s3 = catalog.symmetric(3)
    whole = s3.as_subgroup()
    assert is_f_subnormal(s3, whole, NILPOTENT)
    assert is_f_subnormal_via_residual(s3, whole, NILPOTENT)
    assert is_f_abnormal(s3, whole, NILPOTENT)
    assert is_abnormal(s3, whole)
    assert is_self_normalizing(s3, whole)
    assert is_absolutely_f_subnormal(s3, whole, NILPOTENT)


def test_s3_classic_cases():
    s3 = catalog.symmetric(3)
    a3 = _sub_of_order(s3, 3)
    c2 = _sub_of_order(s3, 2)
    assert is_f_subnormal(s3, a3, NILPOTENT)
    assert not is_f_subnormal(s3, c2, NILPOTENT)
    assert is_f_subnormal_via_residual(s3, a3, NILPOTENT)
    assert not is_f_subnormal_via_residual(s3, c2, NILPOTENT)
    assert is_f_abnormal(s3, c2, NILPOTENT)
    assert not is_f_abnormal(s3, a3, NILPOTENT)
    assert is_abnormal(s3, c2)
    assert is_self_normalizing(s3, c2)
    assert not is_absolutely_f_subnormal(s3, c2, NILPOTENT)


def test_f_abnormality_stops_at_the_first_qualifying_step(monkeypatch):
    # the first minimal overgroup C2 of the trivial subgroup of S3 has
    # C2^N = 1, so one minimal-overgroup list refutes F-abnormality
    s3 = catalog.symmetric(3)
    trivial = SubgroupRef(s3, frozenset((s3.identity,)))
    computed, intervals = [], []
    real_min_over, real_interval = lat._minimal_overgroups, lat.interval

    def count_min_over(parent, H, top):
        computed.append(H.order)
        return real_min_over(parent, H, top)

    def count_interval(*args):
        intervals.append(args)
        return real_interval(*args)

    monkeypatch.setattr(lat, "_minimal_overgroups", count_min_over)
    monkeypatch.setattr(lat, "interval", count_interval)
    assert not is_f_abnormal(s3, trivial, NILPOTENT)
    assert computed == [1]
    assert intervals == []


def test_f_subnormality_by_descent_enumerates_nothing(monkeypatch):
    # for a subgroup-closed F each descent step is one join and one residual,
    # so the worked example's NA verdicts on a fresh order-864 group compute
    # no minimal overgroups, intervals or maximal subgroups
    g = catalog.load_example864()
    syl2, syl3 = sylow_subgroup(g, 2), sylow_subgroup(g, 3)
    proper = [SubgroupRef(g, s) for s in lat.subgroup_sets(syl2) if len(s) < syl2.order]
    calls = []
    for name in ("_minimal_overgroups", "interval", "maximal_subgroups_containing"):
        real = getattr(lat, name)

        def count(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(lat, name, count)
    verdicts = [is_f_subnormal(g, H, NILPOTENT_DERIVED) for H in proper]
    assert (len(proper), verdicts.count(False)) == (105, 12)
    assert is_f_subnormal(g, syl3, NILPOTENT_DERIVED)
    assert calls == []


def test_a4_absolute_subnormality():
    a4 = catalog.alternating(4)
    c2 = _sub_of_order(a4, 2)
    assert is_absolutely_f_subnormal(a4, c2, NILPOTENT)


def test_witness_chain_structure():
    s3 = catalog.symmetric(3)
    a3 = _sub_of_order(s3, 3)
    w = f_subnormal_witness(s3, a3, NILPOTENT)
    assert w is not None
    assert [ref.order for ref in w.subgroups] == [3, 6]
    assert all(step.quotient_in_formation for step in w.steps)
    c2 = _sub_of_order(s3, 2)
    assert f_subnormal_witness(s3, c2, NILPOTENT) is None


def test_witness_uses_cached_failure(monkeypatch):
    # <C3, S4^N> = A4 is proper, so deciding C3 descends to A4, where
    # <C3, A4^N> = A4 ends the descent with False
    from groupforms import subnormal

    s4 = catalog.symmetric(4)
    c3 = _sub_of_order(s4, 3)
    assert not is_f_subnormal(s4, c3, NILPOTENT)

    def no_walk(*args):
        raise AssertionError("a cached failure must not be walked")

    monkeypatch.setattr(subnormal, "_steps_up", no_walk)
    assert f_subnormal_witness(s4, c3, NILPOTENT) is None


def test_classical_subnormality_helper():
    s4 = catalog.symmetric(4)
    # the Klein four-group is subnormal in S4; a C4 is not
    from groupforms.permgroup import core

    klein = core(s4, sylow_subgroup(s4, 2))
    assert is_subnormal(s4, klein)
    c4 = next(
        SubgroupRef(s4, s)
        for s in lat.subgroup_sets(s4)
        if len(s) == 4 and any(s4.element_orders()[x] == 4 for x in s)
    )
    assert not is_subnormal(s4, c4)


def test_oracle_agreement_exhaustive_small():
    # third, pruning-free route against both production routes
    for g in [
        catalog.symmetric(3),
        catalog.alternating(4),
        catalog.dicyclic(3),
        catalog.cyclic(12),
        catalog.dihedral(6),
        catalog.special_linear_2_3(),
        catalog.symmetric(4),
    ]:
        for F in (ABELIAN, NILPOTENT, SUPERSOLUBLE, NILPOTENT_DERIVED):
            for H in subgroup_refs(g):
                expected = oracle_f_subnormal(g, H, F)
                assert is_f_subnormal(g, H, F) == expected, (g.name, F.name, H.order)
                assert is_f_subnormal_via_residual(g, H, F) == expected
                assert is_f_abnormal(g, H, F) == oracle_f_abnormal(g, H, F)


def test_chain_steps_need_no_core_or_quotient(monkeypatch):
    # every step of the chain predicates is decided by residual containment:
    # with core and quotient_in unusable in subnormal, the verdicts on a fresh
    # S4 still match the oracles, which test each step on its quotient image
    from groupforms import subnormal
    from groupforms.structure import subgroup_class_reps

    g = catalog.symmetric(4)
    formations = (ABELIAN, NILPOTENT, SUPERSOLUBLE, NILPOTENT_DERIVED)
    reps = [H.members for H in subgroup_class_reps(g)]
    want = {}
    for F in formations:
        for members in reps:
            H = SubgroupRef(g, members)
            absolute = all(oracle_f_subnormal(g, L, F) for L in lat.interval(g, H))
            want[F, members] = (
                oracle_f_subnormal(g, H, F),
                oracle_f_abnormal(g, H, F),
                absolute,
            )

    def unusable(*args):
        raise AssertionError("a chain step built a core or a quotient image")

    monkeypatch.setattr(subnormal, "core", unusable)
    monkeypatch.setattr(subnormal, "quotient_in", unusable)
    fresh = catalog.symmetric(4)
    for F in formations:
        for members in reps:
            H = SubgroupRef(fresh, members)
            got = (
                is_f_subnormal(fresh, H, F),
                is_f_abnormal(fresh, H, F),
                is_absolutely_f_subnormal(fresh, H, F),
            )
            assert got == want[F, members], (F.name, len(members))


def test_alternativity(small_groups):
    # no proper subgroup is simultaneously F-subnormal and F-abnormal
    for g in small_groups:
        if g.order > 24:
            continue
        for F in (NILPOTENT, NILPOTENT_DERIVED):
            for H in subgroup_refs(g):
                if H.order == g.order:
                    continue
                assert not (
                    is_f_subnormal(g, H, F) and is_f_abnormal(g, H, F)
                ), (g.name, F.name, H.order)


def test_abnormal_implies_self_normalizing(small_groups):
    for g in small_groups:
        if g.order > 24:
            continue
        for H in subgroup_refs(g):
            if is_abnormal(g, H):
                assert is_self_normalizing(g, H)


def test_supersoluble_prime_index_self_normalizing_example():
    # a non-normal prime-index subgroup of a soluble group is
    # self-normalizing yet U-subnormal: the two notions are not alternative
    s4 = catalog.symmetric(4)
    d8 = sylow_subgroup(s4, 2)  # index 3, not normal
    assert is_self_normalizing(s4, d8)
    assert is_f_subnormal(s4, d8, SUPERSOLUBLE)


def test_sylow_normalizers_abnormal(small_groups):
    from groupforms.permgroup import normalizer, prime_divisors

    for g in small_groups:
        if g.order > 24:
            continue
        for p in prime_divisors(g):
            n = normalizer(g, sylow_subgroup(g, p))
            assert is_abnormal(g, n), (g.name, p)


def test_verdicts_are_invariant_under_the_regular_realization(catalog120):
    # the same abstract group on another point set: a whole group's quotient
    # by 1 is the group itself with the identity map, so nothing else
    # compares G with a second realization of it. R is the right-regular
    # one, the image of a proper subgroup isomorphic to G by its trivial
    # subgroup, which keeps its coset action
    for g in catalog120:
        hom = quotient(g, SubgroupRef(g, frozenset((g.identity,))))
        assert hom.image is g and all(x == y for x, y in hom.element_map.items()), g.name
        assert sorted(hom.element_map) == list(range(g.order))
    checked = 0
    for g in catalog.catalog_groups(24):  # fresh groups: no cache is shared
        R, iso = regular_realization(g)
        assert (R.order, R.degree) == (g.order, g.order) and R is not g, g.name
        for F in (ABELIAN, NILPOTENT, SUPERSOLUBLE):
            assert F.contains(R) == F.contains(g), (g.name, F.name)
            for H in subgroup_class_reps(g):
                H_R = SubgroupRef(R, frozenset(iso[x] for x in H.members))
                assert residual(F, H_R).members == {iso[x] for x in residual(F, H).members}
                assert is_f_subnormal(R, H_R, F) == is_f_subnormal(g, H, F), (g.name, H.order)
                assert is_f_abnormal(R, H_R, F) == is_f_abnormal(g, H, F), (g.name, H.order)
                checked += 1
        for K in subgroup_class_reps(g):  # a proper subgroup by 1: its coset action
            if K.order < g.order:
                image = quotient(K, SubgroupRef(g, frozenset((g.identity,)))).image
                assert (image.order, image.degree) == (K.order, K.order) and image is not g
    assert checked == 1623


def test_witness_chains_match_verdicts(catalog120):
    from groupforms.permgroup import core, quotient
    from groupforms.structure import subgroup_class_reps

    for g in catalog120:
        if g.order > 32:
            continue
        for F in (ABELIAN, NILPOTENT, NILPOTENT_DERIVED):
            for H in subgroup_class_reps(g):
                w = f_subnormal_witness(g, H, F)
                assert (w is None) == (not is_f_subnormal(g, H, F)), (g.name, F.name, H.order)
                if w is None:
                    continue
                chain = w.subgroups
                assert chain[0].members == H.members and chain[-1].members == g.whole()
                assert len(w.steps) == len(chain) - 1
                for step, lower, upper in zip(w.steps, chain, chain[1:]):
                    assert (step.lower, step.upper) == (lower, upper)
                    assert upper.members in {
                        L.members for L in lat.minimal_overgroups(g, lower)
                    }, "each step is maximal"
                    image = quotient(upper, core(upper, lower)).image
                    assert F.membership(image.as_subgroup()), "each step quotient is in F"
                    assert step.quotient_in_formation
                    assert step.quotient_order == image.order


def test_lemma1_4_holds_by_the_quotient_oracle(catalog120):
    # Lemma 1(4) apart from production's search: for a subgroup-closed F every
    # H above G^F is F-subnormal by the oracle that builds each step quotient
    from groupforms.structure import subgroup_class_reps

    checked, failures = 0, []
    for g in catalog120:
        if g.order > 48:
            continue
        for F in (ABELIAN, NILPOTENT, SUPERSOLUBLE, NILPOTENT_DERIVED, SOLUBLE):
            res = residual(F, g).members
            for H in subgroup_class_reps(g):
                if res <= H.members:
                    checked += 1
                    if not is_f_subnormal_via_quotients(g, H, F):
                        failures.append((g.name, F.name, H.order))
    assert not failures, failures
    assert checked > 1000, checked


def test_unflagged_copies_search_and_agree(catalog120, monkeypatch):
    # the same formations without the subgroup_closed flag take the upward
    # step recursion instead of the descent (memos are keyed by formation
    # identity, so nothing is shared) and must give the same verdicts and the
    # same witness chains
    from groupforms import subnormal
    from groupforms.structure import subgroup_class_reps

    built_in = (ABELIAN, NILPOTENT, SUPERSOLUBLE, NILPOTENT_DERIVED, SOLUBLE)
    copies = {F: dataclasses.replace(F, subgroup_closed=False) for F in built_in}
    searched = []
    real_steps = subnormal._steps_up

    def spy(amb, K, F):
        searched.append(F)
        return real_steps(amb, K, F)

    monkeypatch.setattr(subnormal, "_steps_up", spy)

    def chain(w):
        if w is None:
            return None
        steps = [(s.core_order, s.quotient_order, s.quotient_in_formation) for s in w.steps]
        return [ref.members for ref in w.subgroups], steps

    for g in catalog120:
        if g.order > 32:
            continue
        for F, copy in copies.items():
            for H in subgroup_class_reps(g):
                key = (g.name, F.name, H.order)
                assert is_f_subnormal(g, H, copy) == is_f_subnormal(g, H, F), key
                assert chain(f_subnormal_witness(g, H, copy)) == chain(
                    f_subnormal_witness(g, H, F)
                ), key

    # above the residual the flagged formation decides without a step, the
    # copy by the steps up
    s4 = catalog.symmetric(4)
    a4 = residual(NILPOTENT, s4)
    assert a4.order == 12
    searched.clear()
    assert is_f_subnormal(s4, a4, NILPOTENT)
    assert searched == []
    assert is_f_subnormal(s4, a4, copies[NILPOTENT])
    assert searched and all(F is copies[NILPOTENT] for F in searched)


def test_witness_without_a_qualifying_step_raises(monkeypatch):
    # a True verdict with no step to continue the chain (reachable through a
    # wrongly flagged formation) raises a GroupError naming the stuck
    # subgroup and the ambient, and lemma 1(4) reports every such L as a
    # violation
    from groupforms import subnormal
    from groupforms.permgroup import GroupError
    from groupforms.structure import check_lemma1

    s4 = catalog.symmetric(4)
    real_steps = subnormal._steps_up
    monkeypatch.setattr(
        subnormal,
        "_steps_up",
        lambda amb, K, F: iter(()) if K.parent is s4 else real_steps(amb, K, F),
    )
    a4 = residual(NILPOTENT, s4)
    assert is_f_subnormal(s4, a4, NILPOTENT)
    with pytest.raises(
        GroupError, match="above <SubgroupRef order 12.*inside <SubgroupRef order 24"
    ):
        f_subnormal_witness(s4, a4, NILPOTENT)
    lemma4 = [v for v in check_lemma1(s4, NILPOTENT) if v["lemma"] == "1.4"]
    assert lemma4 == [{"lemma": "1.4", "group": "S4", "L": 12}]
    # the same group with its steps intact passes
    assert not [v for v in check_lemma1(catalog.symmetric(4), NILPOTENT) if v["lemma"] == "1.4"]
