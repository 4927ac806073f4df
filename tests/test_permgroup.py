"""perm-core: element arithmetic, classical constructions, spec examples."""

from __future__ import annotations

import gc
import hashlib
import json
import weakref
from collections import Counter
from pathlib import Path
from types import FunctionType, ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    element_indices,
    frattini,
    generate,
    greedy_generators_from_scratch,
    invert,
    maximal_subgroups,
    subgroup_generated,
    table_by_compose,
)

import groupforms
from groupforms import catalog, cli, groupfile, permgroup, structure, subnormal
from groupforms import lattice as lat
from groupforms.formations import (
    ABELIAN,
    NILPOTENT,
    NILPOTENT_DERIVED,
    SOLUBLE,
    SUPERSOLUBLE,
    Formation,
)
from groupforms.structure import check_lemma_suite
from groupforms.permgroup import (
    Budgets,
    FiniteGroup,
    GroupBudgetError,
    GroupError,
    GroupHom,
    SubgroupRef,
    _gather,
    _greedy_generators,
    check_deadline,
    compose,
    core,
    derived_series,
    derived_subgroup,
    direct_product,
    fitting,
    identity_perm,
    inversion_action,
    is_abelian,
    is_elementary_abelian,
    is_nilpotent,
    is_soluble,
    lower_central_series,
    memo,
    normalizer,
    perm_from_cycle_text,
    perm_to_cycle_text,
    prime_divisors,
    quotient,
    semidirect_product,
    sylow_subgroup,
)


def s3():
    return catalog.symmetric(3)


def s4():
    return catalog.symmetric(4)


def a4():
    return catalog.alternating(4)


def idx(G, text):
    return element_indices(G)[perm_from_cycle_text(text, G.degree)]


# -- raw permutations ---------------------------------------------------------

perm_strategy = st.permutations(list(range(6))).map(tuple)


@given(perm_strategy, perm_strategy, perm_strategy)
@settings(max_examples=80, deadline=None)
def test_compose_associative(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perm_strategy)
@settings(max_examples=80, deadline=None)
def test_inverse_roundtrip(p):
    assert compose(p, invert(p)) == identity_perm(6)
    assert compose(invert(p), p) == identity_perm(6)


@given(perm_strategy)
@settings(max_examples=80, deadline=None)
def test_cycle_text_roundtrip(p):
    assert perm_from_cycle_text(perm_to_cycle_text(p), 6) == p


def test_cycle_parse_errors():
    with pytest.raises(GroupError):
        perm_from_cycle_text("(1 2", 3)
    with pytest.raises(GroupError):
        perm_from_cycle_text("(1 5)", 3)
    with pytest.raises(GroupError):
        perm_from_cycle_text("(1 2)(2 3)", 3)
    # a point outside an open cycle is an error wherever it stands
    for text in ("3(1 2)", "(1 2)3(4 5)", "(1 2)3", "(1 2) 3 (4 5)"):
        with pytest.raises(GroupError):
            perm_from_cycle_text(text, 40)
    # one-point cycles are checked for range and repeats like longer ones
    with pytest.raises(GroupError):
        perm_from_cycle_text("(1 2)(9)", 4)
    with pytest.raises(GroupError):
        perm_from_cycle_text("(1 2)(1)", 4)
    assert perm_from_cycle_text("(3)", 4) == identity_perm(4)
    # a non-empty text starts with a cycle, and only spaces, commas and tabs
    # stand between cycles; a superscript digit is no point
    for text in (",", " ,(1 2)", "((1 2))", "(1 2)x", "(1\u00b2)"):
        with pytest.raises(GroupError):
            perm_from_cycle_text(text, 4)
    assert perm_from_cycle_text("(1 2),(3 4)", 4) == (1, 0, 3, 2)
    assert perm_from_cycle_text("(1 2)()", 4) == (1, 0, 2, 3)


# -- multiplication tables ----------------------------------------------------

@pytest.mark.parametrize("positions", [(), (3,), (0, 4), (5, 1, 1, 2)])
def test_gather_matches_tuple_of_items(positions):
    seq = list(range(10, 20))
    assert _gather(positions)(seq) == tuple(seq[i] for i in positions)


def _assert_join_matches_closure(G):
    for s in lat.subgroup_sets(G):
        for g in range(G.order):
            assert G.join(s, [g]) == G.closure(s | {g}), G.name


def test_join_matches_closure_on_catalog_and_quotients(catalog120):
    for G in catalog120:
        if G.order <= 48:
            _assert_join_matches_closure(G)
        if G.order <= 24:
            for N in lat.normal_subgroups(G):
                _assert_join_matches_closure(quotient(G, N).image)


def test_join_with_many_seeds_matches_closure():
    G = s4()
    sets = lat.subgroup_sets(G)
    for a in sets:
        for b in sets:
            assert G.join(a, b) == G.closure(a | b)


def test_greedy_generators_match_from_scratch(catalog120, g864):
    from groupforms.structure import subgroup_class_reps

    cases = [(G, H.members) for G in catalog120 for H in subgroup_class_reps(G)]
    for p in (2, 3):
        cases += [(g864, s) for s in lat.subgroup_sets(sylow_subgroup(g864, p))]
    for G, members in cases:
        assert _greedy_generators(G, members) == greedy_generators_from_scratch(G, members), G.name


def _assert_table_matches_compose(G):
    table, inv = table_by_compose(G)
    assert G._table == table, G.name
    assert G._inv == inv, G.name


def test_table_matches_compose_on_catalog(catalog120):
    for g in catalog120:
        _assert_table_matches_compose(g)


def test_table_matches_compose_on_example864(g864):
    _assert_table_matches_compose(g864)


def test_table_matches_compose_on_trivial_groups():
    for g in (catalog.cyclic(1), catalog.symmetric(1)):
        assert g.order == 1
        _assert_table_matches_compose(g)


def test_table_with_repeated_and_identity_generators():
    g = FiniteGroup.from_generators([(1, 2, 0), (0, 1, 2), (1, 2, 0), (1, 0, 2)], 3)
    assert g.order == 6 and len(g.generators) == 4
    _assert_table_matches_compose(g)


def test_quotient_tables_match_compose(catalog120):
    for g in catalog120:
        if g.order > 48:
            continue
        for n in lat.normal_subgroups(g):
            _assert_table_matches_compose(quotient(g, n).image)


def test_non_generating_generators_raise():
    elements = s3().elements
    with pytest.raises(GroupError):
        FiniteGroup(3, elements, [(1, 2, 0)])
    with pytest.raises(GroupError):
        FiniteGroup(3, elements, [])


# -- packed storage -----------------------------------------------------------

def _closure_by_compose(gens, degree):
    """The sorted image tuples that the generators close to, by plain tuples."""
    elems = {identity_perm(degree)}
    work = list(elems)
    for p in work:  # the loop also visits what it appends
        for g in gens:
            q = compose(p, g)
            if q not in elems:
                elems.add(q)
                work.append(q)
    return sorted(elems)


def test_catalog_groups_are_packed_in_bytes(catalog120):
    for G in catalog120:
        gens = [G.elements[g] for g in G.generators]
        perms = _closure_by_compose(gens, G.degree)
        assert [G.elements[i] for i in range(G.order)] == perms, G.name
        assert list(G.elements) == perms and G.elements[-1] == perms[-1], G.name
        assert G._points.itemsize == G._inv.itemsize == 1, G.name
        assert {row.itemsize for row in G._table} == {1}, G.name
        assert not hasattr(G, "_index"), G.name


def test_group_above_256_points_and_elements_packs_in_two_bytes():
    cycle = tuple(range(1, 300)) + (0,)
    G = FiniteGroup.from_generators([cycle], 300, name="C300")
    perms = _closure_by_compose([cycle], 300)
    assert G.order == len(perms) == 300
    assert G._points.typecode == G._inv.typecode == "H"
    assert {row.typecode for row in G._table} == {"H"}
    assert list(G.elements) == perms
    assert G.elements[G.identity] == identity_perm(300)
    for x in range(G.order):
        assert G.mul(x, G._inv[x]) == G.identity
        assert G.elements[G._inv[x]] == invert(G.elements[x])
    text = groupfile.emit_group_text(G)
    again = groupfile.parse_group_text(text)
    assert groupfile.emit_group_text(again) == text and list(again.elements) == perms
    h = hashlib.sha256(b"degree=300;order=300;")
    for p in perms:
        h.update(",".join(map(str, p)).encode() + b"|")
    assert groupfile.group_checksum(G) == groupfile.group_checksum(again) == h.hexdigest()


def test_elements_of_another_degree_raise():
    with pytest.raises(GroupError, match="not of degree 3"):
        FiniteGroup(3, [(0, 1, 2), (1, 0)], [])


# -- generate -----------------------------------------------------------------

def test_generate_trivial():
    g = generate([], 1)
    assert g.order == 1


def test_generate_s3():
    g = generate([(1, 2, 0), (1, 0, 2)], 3)
    assert g.order == 6


def test_generate_klein():
    g = generate([perm_from_cycle_text("(1 2)(3 4)", 4), perm_from_cycle_text("(1 3)(2 4)", 4)], 4)
    assert g.order == 4
    assert is_elementary_abelian(g)


def test_generate_degree_mismatch():
    with pytest.raises(GroupError):
        generate([(1, 0)], 3)


def test_generate_budget_guard():
    # S7 has order 5040, far beyond the cap
    with Budgets(max_order=100).in_force(), pytest.raises(GroupBudgetError):
        generate([tuple(range(1, 7)) + (0,), (1, 0, 2, 3, 4, 5, 6)], 7)


@pytest.mark.parametrize(
    "fields",
    [
        {"time": float("nan")},
        {"time": float("inf")},
        {"time": -1},
        {"time": "5"},
        {"lattice": -5},
        {"lattice": 0},
        {"lattice": 2.5},
        {"lattice": True},
        {"max_order": 0},
        {"max_order": 2000.0},
    ],
    ids=repr,
)
def test_budgets_refuse_values_that_are_not_budgets(fields):
    # a NaN deadline never trips and makes the report unwritable, and a
    # count below 1 skips every all-subgroup lemma: refused when built
    with pytest.raises(GroupError, match="budget"):
        Budgets(**fields)


def test_a_time_budget_of_0_binds():
    with Budgets(time=0).in_force(), pytest.raises(GroupBudgetError, match="time budget"):
        check_deadline()


# -- subgroup_generated -------------------------------------------------------

def test_subgroup_generated_trivial():
    g = s3()
    assert subgroup_generated(g, [g.identity]).order == 1


def test_subgroup_generated_a3():
    g = s3()
    assert subgroup_generated(g, [idx(g, "(1 2 3)")]).order == 3


def test_subgroup_generated_whole_s4():
    g = s4()
    got = subgroup_generated(g, [idx(g, "(1 2)"), idx(g, "(1 2 3 4)")])
    assert got.order == 24


def test_subgroup_generated_rejects_foreign():
    g = s3()
    with pytest.raises(GroupError):
        subgroup_generated(g, [97])


# -- normalizer / core --------------------------------------------------------

def test_normalizer_whole():
    g = s3()
    assert normalizer(g, g.as_subgroup()).order == 6


def test_normalizer_transposition_s3():
    g = s3()
    c2 = subgroup_generated(g, [idx(g, "(1 2)")])
    assert normalizer(g, c2).members == c2.members


def test_normalizer_sylow2_s4():
    g = s4()
    syl = sylow_subgroup(g, 2)
    assert syl.order == 8
    assert normalizer(g, syl).members == syl.members


def test_core_normal_is_identity_map():
    g = s3()
    a3 = subgroup_generated(g, [idx(g, "(1 2 3)")])
    assert core(g, a3).members == a3.members


def test_core_transposition_trivial():
    g = s3()
    c2 = subgroup_generated(g, [idx(g, "(1 2)")])
    assert core(g, c2).order == 1


def test_core_sylow2_s4_is_klein():
    g = s4()
    syl = sylow_subgroup(g, 2)
    got = core(g, syl)
    expected = {g.identity}
    for text in ["(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"]:
        expected.add(idx(g, text))
    assert got.members == frozenset(expected)


def test_core_idempotent():
    g = s4()
    syl = sylow_subgroup(g, 2)
    c = core(g, syl)
    assert core(g, c).members == c.members


# every function that takes an ambient group G and a subgroup H, with H bound last
G_H_ENTRY_POINTS = {
    "normalizer": normalizer,
    "core": core,
    "quotient": quotient,
    "interval": lat.interval,
    "minimal_overgroups": lat.minimal_overgroups,
    "is_f_subnormal": lambda G, H: subnormal.is_f_subnormal(G, H, NILPOTENT),
    "f_subnormal_witness": lambda G, H: subnormal.f_subnormal_witness(G, H, NILPOTENT),
    "is_f_abnormal": lambda G, H: subnormal.is_f_abnormal(G, H, NILPOTENT),
    "is_absolutely_f_subnormal": (
        lambda G, H: subnormal.is_absolutely_f_subnormal(G, H, NILPOTENT)
    ),
    "is_abnormal": subnormal.is_abnormal,
    "is_self_normalizing": subnormal.is_self_normalizing,
}


@pytest.mark.parametrize("name", list(G_H_ENTRY_POINTS))
def test_every_g_h_entry_point_rejects_a_foreign_or_outside_h(name):
    call = G_H_ENTRY_POINTS[name]
    g, other = s4(), s3()
    c3_of_s3 = subgroup_generated(other, [idx(other, "(1 2 3)")])
    with pytest.raises(GroupError, match="H belongs to a different parent group"):
        call(g, c3_of_s3)
    a4_in_s4 = subgroup_generated(g, [idx(g, "(1 2 3)"), idx(g, "(1 2)(3 4)")])
    c2 = subgroup_generated(g, [idx(g, "(1 2)")])
    with pytest.raises(GroupError, match="H is not a subgroup of the ambient group"):
        call(a4_in_s4, c2)


# -- derived machinery --------------------------------------------------------

def test_derived_abelian_trivial():
    assert derived_subgroup(catalog.cyclic(12)).order == 1


def test_derived_s3_s4():
    assert derived_subgroup(s3()).order == 3
    assert derived_subgroup(s4()).order == 12


def test_derived_series_terminates():
    series = derived_series(s4())
    assert [s.order for s in series] == [24, 12, 4, 1]


def test_lower_central_series_s4():
    series = lower_central_series(s4())
    assert series[-1].order == 12  # stable term = nilpotent residual


# -- quotient -----------------------------------------------------------------

def test_quotient_by_trivial_preserves_flags():
    g = s3()
    hom = quotient(g, subgroup_generated(g, [g.identity]))
    assert hom.image.order == 6
    assert is_abelian(hom.image) == is_abelian(g)
    assert is_nilpotent(hom.image) == is_nilpotent(g)


def test_quotient_a4_by_klein():
    g = a4()
    v4 = sylow_subgroup(g, 2)
    hom = quotient(g, v4)
    assert hom.image.order == 3
    assert is_abelian(hom.image)


def test_quotient_s4_by_klein():
    g = s4()
    v4 = core(g, sylow_subgroup(g, 2))
    hom = quotient(g, v4)
    assert hom.image.order == 6
    assert not is_abelian(hom.image)


def test_quotient_requires_normal():
    g = s3()
    c2 = subgroup_generated(g, [idx(g, "(1 2)")])
    with pytest.raises(GroupError):
        quotient(g, c2)


def test_quotient_kernel_maps_to_identity():
    g = s4()
    v4 = core(g, sylow_subgroup(g, 2))
    hom = quotient(g, v4)
    assert hom.map_members(v4.members) == {hom.image.identity}
    assert hom.image.order * v4.order == g.order


def test_quotients_with_one_coset_action_share_their_image():
    # S4's four S3 subgroups K each give K/K' = C2 by the same permutations
    # of two cosets: one image object, four homomorphisms
    g = s4()
    homs = [
        quotient(K, derived_subgroup(K))
        for K in (SubgroupRef(g, m) for m in lat.subgroup_sets(g) if len(m) == 6)
    ]
    assert len(homs) == 4
    assert len({id(h.image) for h in homs}) == 1
    assert homs[0].image.order == 2
    assert len({h.kernel.members for h in homs}) == 4


def test_frattini_matches_full_lattice(catalog120):
    for g in catalog120:
        if g.order <= 60:
            want = g.whole()
            for M in maximal_subgroups(g):
                want = want & M.members
            assert frattini(g).members == want


# -- sylow ------------------------------------------------------------------

def test_sylow_of_p_group_is_whole():
    q8 = catalog.dicyclic(2)
    assert sylow_subgroup(q8, 2).order == 8


def test_sylow_nondivisor_errors():
    with pytest.raises(GroupError):
        sylow_subgroup(s3(), 5)


def test_sylow_nondivisor_errors_after_caching():
    g = s3()
    assert sylow_subgroup(g, 2).order == 2
    with pytest.raises(GroupError):
        sylow_subgroup(g, 5)


# -- memo ---------------------------------------------------------------------

def test_memo_computes_false_and_none_once():
    g = s3()
    calls = []

    def compute(value):
        calls.append(value)
        return value

    for _ in range(3):
        assert memo(g, "test-falsy", "f", compute, False) is False
        assert memo(g, "test-falsy", "n", compute, None) is None
        assert memo(g, "test-keyless", None, compute, None) is None
    assert calls == [False, None, None]
    assert g._op_cache["test-falsy"] == {"f": False, "n": None}


def test_memo_raising_compute_leaves_no_entry():
    g = s3()

    def boom():
        raise GroupError("no value")

    with pytest.raises(GroupError):
        memo(g, "test-raise", "k", boom)
    assert "k" not in g._op_cache.get("test-raise", {})
    assert memo(g, "test-raise", "k", lambda: 7) == 7
    with pytest.raises(GroupError):
        memo(g, "test-raise-keyless", None, boom)
    assert "test-raise-keyless" not in g._op_cache


# what the A, N and U lemma suites cache on groups and images, pinned so that
# a new memo namespace is a deliberate change
LEMMA_SUITE_NAMESPACES = {
    "abnormal", "class_reps", "core", "derived", "formation_member", "fsn", "gens",
    "image", "interval", "lattice_index", "min_over", "normalizer", "normals", "orders",
    "quotient", "residual", "sub_sets", "sylow",
}


def _images(groups: list[FiniteGroup]) -> list[FiniteGroup]:
    """The groups and every quotient image cached on them or on their images."""
    seen: dict[int, FiniteGroup] = {}
    stack = list(groups)
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen[id(g)] = g
            stack.extend(q.image for q in g._op_cache.get("quotient", {}).values())
            stack.extend(g._op_cache.get("image", {}).values())
    return list(seen.values())


def _cached_objects(g: FiniteGroup):
    """Every object reachable from g's cache without entering another group,
    a formation, a class or code."""
    seen: set[int] = set()
    stack = [g._op_cache]
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, (type, ModuleType, FunctionType, Formation)):
            continue
        seen.add(id(x))
        yield x
        if not isinstance(x, FiniteGroup):
            stack.extend(r for r in gc.get_referents(x) if gc.is_tracked(r))


def test_memo_has_one_layout():
    # every cached fact is one dict entry per namespace, on every group and
    # on every quotient image it holds, and it is plain data: nothing a group
    # caches refers back to a group, so dropping one frees it at once. The
    # groups are built afresh, so that only the lemma suites fill their caches
    groups = catalog.catalog_groups(24)
    for F in (ABELIAN, NILPOTENT, SUPERSOLUBLE):
        check_lemma_suite(groups, F)
    namespaces: set[str] = set()
    every = _images(groups)
    for g in every:
        for namespace, value in g._op_cache.items():
            assert isinstance(value, dict), (g, namespace)
        namespaces |= set(g._op_cache)
        for x in _cached_objects(g):
            assert x is not g, g
            assert not isinstance(x, (SubgroupRef, GroupHom, lat.SubgroupLattice)), (g, x)
    assert len(every) > len(groups)
    assert namespaces == LEMMA_SUITE_NAMESPACES


def test_a_dropped_group_is_freed_without_the_cycle_collector(tmp_path, monkeypatch, capsys):
    # with the collector off, reference counting alone must free each group,
    # its caches and every quotient image it built once the caller drops it
    built: list[weakref.ref] = []
    real_load = cli._load_group

    def load(spec):
        G = real_load(spec)
        built.append(weakref.ref(G))
        return G

    monkeypatch.setattr(cli, "_load_group", load)
    checks = ("check_theorem1", "check_theorem2", "check_corollary1", "check_corollary2")
    gc.collect()
    gc.disable()
    try:
        groups = catalog.catalog_groups(24)  # fresh groups: nothing is cached
        for F in (ABELIAN, NILPOTENT, SUPERSOLUBLE, NILPOTENT_DERIVED, SOLUBLE):
            check_lemma_suite(groups, F)
            for G in groups:
                for check in checks:
                    getattr(structure, check)(G, F)
        groups.append(catalog.load_example864())
        structure.verify_paper_example(groups[-1])
        every = _images(groups)
        assert len(every) > len(groups)
        built += [weakref.ref(g) for g in every]
        del groups, every, G
        cache = str(tmp_path / "s4.lattice.json")
        for source in ("computed", "cache"):
            assert cli.main(["lattice", "--group", "S4", "--cache", cache]) == cli.EXIT_OK
            assert json.loads(capsys.readouterr().out)["source"] == source
        alive = [ref() for ref in built if ref() is not None]
        assert alive == []
    finally:
        gc.enable()


def test_lemma_suite_builds_no_image_of_a_whole_group_by_1(monkeypatch):
    # counts are the stable signal: every image the A lemma suite builds on
    # the catalog <= 24 is counted, so a change to image building is a
    # deliberate re-pin. A whole group's quotient by 1 is the group itself
    # and builds none; every other quotient builds its coset action's image
    # unless one with the same permutations is cached
    groups = catalog.catalog_groups(24)  # fresh groups: nothing is cached
    real_quotient, real_from_table = permgroup._quotient, FiniteGroup.from_table
    building = []  # whether each _quotient under way is a whole group's by 1
    built = Counter()

    def quotient_spy(sub, N):
        building.append(sub.order == sub.parent.order and N.order == 1)
        try:
            return real_quotient(sub, N)
        finally:
            building.pop()

    def from_table_spy(*args):
        built["whole by 1" if building[-1] else "other"] += 1
        return real_from_table(*args)

    monkeypatch.setattr(permgroup, "_quotient", quotient_spy)
    monkeypatch.setattr(FiniteGroup, "from_table", from_table_spy)
    check_lemma_suite(groups, ABELIAN)
    assert built == {"other": 285}


def test_only_memo_touches_the_op_cache():
    src = Path(groupforms.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "lru_cache" not in text and "functools.cache" not in text, path.name
        if path.name != "permgroup.py":
            assert "_op_cache" not in text, path.name


def test_quotient_non_normal_raises_after_other_quotients_cached():
    g = s4()
    v4 = core(g, sylow_subgroup(g, 2))
    assert quotient(g, v4).image.order == 6
    assert quotient(g, g.as_subgroup()).image.order == 1
    c2 = subgroup_generated(g, [idx(g, "(1 2)")])
    for _ in range(2):
        with pytest.raises(GroupError):
            quotient(g, c2)
    assert (g.whole(), c2.members) not in g._op_cache["quotient"]


# -- fitting / frattini -------------------------------------------------------

def test_fitting_nilpotent_is_whole():
    q8 = catalog.dicyclic(2)
    assert fitting(q8).order == 8


def test_fitting_s4():
    assert fitting(s4()).order == 4


def test_frattini_c4():
    assert frattini(catalog.cyclic(4)).order == 2


def test_frattini_elementary_abelian_trivial():
    assert frattini(catalog.elem_abelian(3, 2)).order == 1


# -- prime divisors -----------------------------------------------------------

def test_prime_divisors():
    assert prime_divisors(catalog.cyclic(1)) == set()
    assert prime_divisors(s4()) == {2, 3}
    assert prime_divisors(catalog.cyclic(30)) == {2, 3, 5}


# -- products -----------------------------------------------------------------

def test_direct_product_orders():
    g = direct_product(catalog.cyclic(3), catalog.cyclic(4))
    assert g.order == 12 and is_abelian(g)


def test_trivial_action_semidirect_is_direct():
    c3, c2 = catalog.cyclic(3), catalog.cyclic(2)
    action = {g: tuple(range(3)) for g in c2.generators}
    g = semidirect_product(c3, c2, action)
    assert g.order == 6 and is_abelian(g)


def test_semidirect_inversion_is_s3_shaped():
    c3, c2 = catalog.cyclic(3), catalog.cyclic(2)
    g = semidirect_product(c3, c2, inversion_action(c3, c2))
    assert g.order == 6 and not is_abelian(g)
    assert catalog.fingerprint(g) == catalog.fingerprint(s3())


def test_semidirect_klein_by_c3_is_a4_shaped():
    v4, c3 = catalog.elem_abelian(2, 2), catalog.cyclic(3)
    # coordinate 3-cycle on V4's three involutions
    arr = catalog._vector_action(2, 2, [[0, 1], [1, 1]])[1]
    g = semidirect_product(v4, c3, {c3.generators[0]: arr})
    assert g.order == 12
    assert catalog.fingerprint(g) == catalog.fingerprint(a4())


def test_semidirect_rejects_non_automorphism():
    c4, c2 = catalog.cyclic(4), catalog.cyclic(2)
    bad = (0, 2, 1, 3)  # swaps an order-4 and an order-2 element: no automorphism
    with pytest.raises(GroupError):
        semidirect_product(c4, c2, {c2.generators[0]: bad})


def test_semidirect_rejects_non_homomorphism():
    c5, c2 = catalog.cyclic(5), catalog.cyclic(2)
    squaring = tuple((2 * i) % 5 for i in range(5))  # order-4 automorphism
    with pytest.raises(GroupError):
        semidirect_product(c5, c2, {c2.generators[0]: squaring})


# -- whole-group invariants ---------------------------------------------------

def test_lagrange_on_small_groups(small_groups):
    for g in small_groups:
        if g.order > 24:
            continue
        for s in lat.subgroup_sets(g):
            assert g.order % len(s) == 0


def test_sylow_conjugacy_small(catalog120):
    for g in catalog120:
        if g.order > 48:
            continue
        lattice = lat.all_subgroups(g)
        for p in prime_divisors(g):
            from groupforms.permgroup import p_part

            target = p_part(g.order, p)
            sylows = [ref.members for ref in lattice.nodes if ref.order == target]
            classes = [
                cls
                for cls in lattice.conjugacy_classes
                if lattice.nodes[cls[0]].order == target
            ]
            assert sum(len(c) for c in classes) == len(sylows)
            assert len(classes) == 1  # all Sylow p-subgroups conjugate


def test_nilpotent_matches_sylow_normality(catalog120):
    for g in catalog120:
        if g.order > 48 or g.order == 1:
            continue
        all_normal = True
        for p in prime_divisors(g):
            syl = sylow_subgroup(g, p)
            if normalizer(g, syl).order != g.order:
                all_normal = False
                break
        assert is_nilpotent(g) == all_normal, g.name
