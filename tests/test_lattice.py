"""Subgroup lattices, intervals, minimal overgroups."""

from __future__ import annotations

import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from helpers import (
    interval_by_joins,
    is_supersoluble,
    maximal_subgroups,
    minimal_overgroups_by_scan,
    orbit_reps_by_conjugate_perms,
    orbit_reps_by_subgroup_orbit,
    subgroup_generated,
    subgroup_sets_by_join_closure,
)

import groupforms
from groupforms import catalog
from groupforms import lattice as lat
from groupforms.formations import NILPOTENT
from groupforms.permgroup import (
    Budgets,
    GroupBudgetError,
    SubgroupRef,
    _as_subgroup,
    direct_product,
    is_soluble,
    normalizer,
    prime_divisors,
    quotient,
    sylow_subgroup,
)
from groupforms.lattice import LatticeBudgetError
from groupforms.subnormal import is_abnormal, is_f_abnormal, is_f_subnormal


def _from_bottom(X):
    """Oracle: the interval [1, X] by joins (``interval_by_joins``), in the
    same canonical order. It reads no subgroup list, so it is independent of
    cyclic extension (the soluble route of ``subgroup_sets``) and of the
    parent's list that a proper subgroup reads its sets off; the insoluble
    route is checked against the join closure of the cyclic subgroups too."""
    X = _as_subgroup(X)
    return interval_by_joins(X, SubgroupRef(X.parent, frozenset((X.parent.identity,))))


def test_all_subgroups_counts():
    assert len(lat.subgroup_sets(catalog.cyclic(7))) == 2
    assert len(lat.subgroup_sets(catalog.symmetric(3))) == 6
    assert len(lat.subgroup_sets(catalog.alternating(4))) == 10


def test_insoluble_groups_keep_perfect_subgroups():
    # cyclic extension alone misses A5 itself (perfect) and, in S5, everything above it
    assert len(lat.subgroup_sets(catalog.alternating(5))) == 59
    assert len(lat.subgroup_sets(catalog.symmetric(5))) == 156


def test_subgroup_sets_match_interval_oracle(catalog120):
    for g in catalog120:
        assert lat.subgroup_sets(g) == _from_bottom(g), g.name


def test_subgroup_sets_of_subgroups_and_quotients_match_oracle(catalog120):
    # subgroup_sets also runs on proper subgroups and on quotient images,
    # where normalizers are taken in the subgroup, not the parent
    from groupforms.structure import subgroup_class_reps

    checked = 0
    for g in catalog120:
        if g.order > 48:
            continue
        ambients = subgroup_class_reps(g) + [quotient(g, N).image for N in lat.normal_subgroups(g)]
        for X in ambients:
            assert lat.subgroup_sets(X) == _from_bottom(X), g.name
            checked += 1
    assert checked > 3000


def test_subgroup_sets_of_s4_x_d6_match_oracle():
    g = direct_product(catalog.symmetric(4), catalog.dihedral(6))
    sets = lat.subgroup_sets(g)
    assert len(sets) == 1594
    assert sets == _from_bottom(g)


def test_subgroup_sets_of_g864_sylow_subgroups_match_oracle(g864):
    # conjugation maps over an 864-element parent, on the Sylow 2- and
    # 3-subgroups and their normalizers (the Sylow 2-subgroup is its own)
    checked = []
    for p in (2, 3):
        P = sylow_subgroup(g864, p)
        for X in (P, normalizer(g864, P)):
            assert lat.subgroup_sets(X) == _from_bottom(X), (p, X.order)
            checked.append(X.order)
    assert checked == [32, 32, 27, 216]


@pytest.mark.parametrize(
    "build",
    [
        lambda: catalog.symmetric(4),
        catalog.special_linear_2_3,
        lambda: direct_product(catalog.symmetric(3), catalog.cyclic_semidirect(8, 2, 3)),
        lambda: catalog.build_named("direct(S4,elem_abelian:2,2)"),
    ],
    ids=["S4", "SL(2,3)", "S3xSD16", "S4xV4"],
)
def test_cyclic_extension_extends_one_subgroup_per_class(monkeypatch, build):
    # the soluble route extends one subgroup per conjugacy class and checks
    # the deadline once per extended subgroup and once per new orbit
    G = build()  # a fresh group: nothing is cached yet
    extended = []
    deadlines = Counter()
    real = lat._prime_index_extensions

    def spy(parent, U, u_gens, roots):
        extended.append(U)
        return real(parent, U, u_gens, roots)

    def deadline():
        deadlines[sys._getframe(1).f_code.co_name] += 1

    monkeypatch.setattr(lat, "_prime_index_extensions", spy)
    monkeypatch.setattr(lat, "check_deadline", deadline)
    lat.subgroup_sets(G)
    monkeypatch.undo()
    classes = len(lat.class_reps(G))
    assert len(extended) == classes
    assert len(lat.orbit_reps_under(G, extended, G.whole())) == classes  # pairwise non-conjugate
    assert deadlines == {"_cyclic_extension": classes, "_orbit": classes - 1}


def test_join_closure_matches_cyclic_extension(catalog120):
    # the join-closure oracle, run on soluble groups, against the soluble route
    for g in catalog120:
        if g.order <= 48:
            assert subgroup_sets_by_join_closure(g.as_subgroup()) == lat._cyclic_extension(
                g.as_subgroup()
            ), g.name


@pytest.mark.parametrize("spec", ["A5", "S5", "direct(A5,C2)", "direct(A5,C3)", "alternating:6"])
def test_insoluble_subgroup_sets_match_join_closure(spec):
    # the insoluble route (the interval [1, X]) against an algorithm that
    # shares no code with it: the join closure of the cyclic subgroups
    g = catalog.build_named(spec)
    assert subgroup_sets_by_join_closure(g.as_subgroup()) == lat.subgroup_sets(g)
    if spec == "alternating:6":
        lattice = lat.all_subgroups(g)  # A6 has 501 subgroups in 22 classes
        assert (len(lattice.nodes), len(lattice.conjugacy_classes)) == (501, 22)


def test_lattice_budget():
    with Budgets(lattice=4).in_force(), pytest.raises(LatticeBudgetError):
        lat.subgroup_sets(catalog.symmetric(3))


def test_only_lattice_reads_the_lattice_budget():
    # one module decides whether a group is over the lattice budget; the CLI
    # only writes the budgets into its reports
    src = Path(groupforms.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name not in ("lattice.py", "cli.py"):
            assert not re.search(r"budgets\(\)\s*\.\s*lattice", path.read_text()), path.name
    assert "current_budgets" not in (src / "structure.py").read_text()


def test_lattice_budget_binds_on_cached_lattice():
    from groupforms.structure import subgroup_class_reps

    s4 = catalog.symmetric(4)
    d8 = normalizer(s4, sylow_subgroup(s4, 2)).members
    assert len(lat.all_subgroups(s4).nodes) == 30
    assert len(subgroup_class_reps(s4)) == 11
    assert len(lat.class_reps(s4, d8)) == 16
    with Budgets(lattice=5).in_force():
        with pytest.raises(LatticeBudgetError):
            lat.all_subgroups(s4)
        with pytest.raises(LatticeBudgetError):
            maximal_subgroups(s4)
        with pytest.raises(LatticeBudgetError):
            subgroup_class_reps(s4)
        with pytest.raises(LatticeBudgetError):
            lat.class_reps(s4, d8)
    assert len(lat.all_subgroups(s4).nodes) == 30  # the defaults are back


@pytest.mark.parametrize(
    "search",
    [
        lambda G: lat.subgroup_sets(G),
        lambda G: lat.interval(G, sylow_subgroup(G, 3)),
        lambda G: is_f_subnormal(G, sylow_subgroup(G, 3), NILPOTENT),
        lambda G: lat.normal_subgroups(G),
        lambda G: lat.orbit_reps_under(G, [frozenset((x,)) for x in G.whole()], G.whole()),
        lambda G: lat.class_reps(G),
        lambda G: is_abnormal(G, sylow_subgroup(G, 3)),
    ],
    ids=[
        "subgroup_sets", "interval", "is_f_subnormal", "normal_subgroups", "orbit_reps_under",
        "class_reps", "is_abnormal",
    ],
)
def test_time_budget_binds_inside_searches(search):
    G = catalog.symmetric(4)  # cold: nothing is cached yet
    with Budgets(time=0).in_force(), pytest.raises(GroupBudgetError, match="time budget"):
        search(G)
    search(G)  # no deadline outside the block, and the abort cached nothing


def test_time_budget_binds_once_per_orbit_on_the_index_route(monkeypatch):
    # with the subgroup list cached, class_reps follows integer orbits of
    # list positions and checks the deadline once per orbit
    G = catalog.symmetric(4)  # cold: nothing is cached yet
    lat.subgroup_sets(G)
    with Budgets(time=0).in_force(), pytest.raises(GroupBudgetError, match="time budget") as info:
        lat.class_reps(G)
    assert info.traceback[-2].name == "_point_orbits"
    deadlines = Counter()

    def deadline():
        deadlines[sys._getframe(1).f_code.co_name] += 1

    monkeypatch.setattr(lat, "check_deadline", deadline)
    assert len(lat.class_reps(G)) == deadlines["_point_orbits"] == 11
    assert deadlines["_orbit"] == 0


def _sylow2_normalizer(G):
    return normalizer(G, sylow_subgroup(G, 2))


@pytest.mark.parametrize(
    "budget, walk, taken",
    [
        # above the lattice budget the interval is walked by joins, and the
        # normal subgroups are the products of class closures
        (10, lambda G: len(lat.interval(G, sylow_subgroup(G, 3))), 4),
        (10, lambda G: len(lat.normal_subgroups(G)), 4),
        # D8 is N-abnormal in S4, so the walk takes all of [D8, S4]
        (400, lambda G: is_f_abnormal(G, _sylow2_normalizer(G), NILPOTENT)
         and len(lat.interval(G, _sylow2_normalizer(G))), 2),
    ],
    ids=["interval", "normal_subgroups", "is_f_abnormal"],
)
def test_walk_up_checks_the_deadline_once_per_subgroup_taken(monkeypatch, budget, walk, taken):
    G = catalog.symmetric(4)  # cold: nothing is cached yet
    deadlines = Counter()

    def deadline():
        deadlines[sys._getframe(1).f_code.co_name] += 1

    monkeypatch.setattr(lat, "check_deadline", deadline)
    with Budgets(lattice=budget).in_force():
        assert walk(G) == deadlines["walk_up"] == taken


def test_normal_subgroups():
    c12 = catalog.cyclic(12)
    assert len(lat.normal_subgroups(c12)) == len(lat.subgroup_sets(c12))
    s3 = catalog.symmetric(3)
    assert [n.order for n in lat.normal_subgroups(s3)] == [1, 3, 6]
    a4 = catalog.alternating(4)
    assert [n.order for n in lat.normal_subgroups(a4)] == [1, 4, 12]


def _normal_by_normalizer(X):
    sets = lat.subgroup_sets(X)
    return [s for s in sets if normalizer(X, SubgroupRef(X.parent, s)).members == X.members]


def test_normal_subgroups_match_normalizer_oracle(catalog120, g864):
    # the normal members of the subgroup list, each decided by its normalizer
    checked = 0
    for g in catalog120:
        ambients = [g.as_subgroup()]
        if g.order <= 48:
            ambients += [quotient(g, N).image.as_subgroup() for N in lat.normal_subgroups(g)]
        for X in ambients:
            assert [N.members for N in lat.normal_subgroups(X)] == _normal_by_normalizer(X), g.name
            checked += 1
    assert checked > 2000
    with Budgets(lattice=1000).in_force():
        X = g864.as_subgroup()
        assert [N.members for N in lat.normal_subgroups(X)] == _normal_by_normalizer(X)


def test_normal_subgroup_routes_agree():
    # the list route (the subgroup list fixed by every conjugation map) and
    # the normal-closure route give the same list on every catalog group of
    # order <= 60, each quotient image and each subgroup class rep
    checked = by_list = 0
    for g in catalog.catalog_groups(60):  # fresh groups: no cache is shared
        images = [quotient(g, N).image.as_subgroup() for N in lat.normal_subgroups(g)]
        reps = [SubgroupRef(g, H) for H in lat.class_reps(g)]
        for X in [g.as_subgroup()] + images + reps:
            want = lat._normal_subgroups_by_closures(X)
            assert [N.members for N in lat.normal_subgroups(X)] == want, g.name
            checked += 1
            by_list += is_soluble(X.parent) and lat._parent_list(X.parent) is not None
    assert (checked, by_list) == (4_796, 4_785)


def test_time_budget_binds_in_the_normal_subgroup_list_route():
    G = catalog.symmetric(4)  # cold: nothing is cached yet
    lat.subgroup_sets(G)
    with Budgets(time=0).in_force(), pytest.raises(GroupBudgetError, match="time budget") as info:
        lat.normal_subgroups(G)
    assert info.traceback[-2].name == "_normal_subgroups"
    assert [N.order for N in lat.normal_subgroups(G)] == [1, 4, 12, 24]


def test_maximal_subgroups():
    assert [m.order for m in maximal_subgroups(catalog.cyclic(5))] == [1]
    s3 = catalog.symmetric(3)
    assert sorted(m.order for m in maximal_subgroups(s3)) == [2, 2, 2, 3]
    a4 = catalog.alternating(4)
    assert sorted(m.order for m in maximal_subgroups(a4)) == [3, 3, 3, 3, 4]


def test_minimal_overgroups():
    s3 = catalog.symmetric(3)
    assert lat.minimal_overgroups(s3, s3.as_subgroup()) == []
    a3 = subgroup_generated(s3, [next(i for i in range(6) if s3.element_orders()[i] == 3)])
    overs = lat.minimal_overgroups(s3, a3)
    assert [o.order for o in overs] == [6]
    a4 = catalog.alternating(4)
    v4 = [SubgroupRef(a4, s) for s in lat.subgroup_sets(a4) if len(s) == 4][0]
    assert [o.order for o in lat.minimal_overgroups(a4, v4)] == [12]


def test_minimal_overgroups_incomparable(small_groups):
    for g in small_groups[:20]:
        for s in lat.subgroup_sets(g):
            overs = lat.minimal_overgroups(g, SubgroupRef(g, s))
            for i, a in enumerate(overs):
                assert s < a.members
                for b in overs[i + 1 :]:
                    assert not (a.members < b.members or b.members < a.members)


def test_minimal_overgroups_match_scan(small_groups):
    for g in small_groups:
        for s in lat.subgroup_sets(g):
            H = SubgroupRef(g, s)
            got = [o.members for o in lat.minimal_overgroups(g, H)]
            assert got == minimal_overgroups_by_scan(g, H), g.name


def test_interval():
    s3 = catalog.symmetric(3)
    assert [r.order for r in lat.interval(s3, s3.as_subgroup())] == [6]
    a3 = [SubgroupRef(s3, s) for s in lat.subgroup_sets(s3) if len(s) == 3][0]
    assert [r.order for r in lat.interval(s3, a3)] == [3, 6]
    c6 = catalog.cyclic(6)
    triv = SubgroupRef(c6, frozenset((c6.identity,)))
    assert len(lat.interval(c6, triv)) == 4


def test_interval_from_bottom_matches_all_subgroups(small_groups):
    # the minimal-overgroup walk from 1 against the enumeration; ``interval``
    # itself reads the list within the budget, so the walk is called directly
    for g in small_groups[:15]:
        via_walk = set(lat._interval_by_walk(g.as_subgroup(), frozenset((g.identity,))))
        assert via_walk == set(lat.subgroup_sets(g))


def test_edges_have_no_intermediate(catalog120):
    checked = 0
    for g in catalog120:
        if g.order > 48:
            continue
        lattice = lat.all_subgroups(g)
        sets = [r.members for r in lattice.nodes]
        for i, j in lattice.edges:
            small, big = lattice.nodes[i].members, lattice.nodes[j].members
            assert small < big
            assert not any(small < m < big for m in sets)
            checked += 1
    assert checked > 500


def test_every_nontrivial_group_has_a_maximal(small_groups):
    for g in small_groups:
        if g.order > 1:
            assert len(maximal_subgroups(g)) >= 1


def test_conjugate_nodes_have_equal_order(small_groups):
    for g in small_groups[:20]:
        lattice = lat.all_subgroups(g)
        for cls in lattice.conjugacy_classes:
            orders = {lattice.nodes[i].order for i in cls}
            assert len(orders) == 1


def test_supersolubility_criterion():
    assert is_supersoluble(catalog.symmetric(3))
    assert not is_supersoluble(catalog.symmetric(4))
    assert not is_supersoluble(catalog.alternating(4))
    assert is_supersoluble(catalog.cyclic(12))


def test_maximal_subgroups_containing_matches_full_lattice(catalog120):
    # oracle: filter K's maximal subgroups, read off K's full lattice
    from groupforms.structure import subgroup_class_reps

    pairs = 0
    for g in catalog120:
        if g.order > 60:
            continue
        for K in [g.as_subgroup()] + subgroup_class_reps(g):
            oracle = maximal_subgroups(K)
            for J in subgroup_class_reps(K):
                want = [M for M in oracle if J.members <= M.members]
                assert lat.maximal_subgroups_containing(K, J) == want
                pairs += 1
    assert pairs > 5000


def test_orbit_reps_match_subgroup_orbit_oracle(catalog120):
    # orbits of list positions give the same reps as one subgroup_orbit per
    # rep: whole-group class reps (cached ``class_reps``, cold and warm), the
    # Sylow-based primary reps (input sets not closed under conjugation) and
    # lemma 1.5's N(H)-orbit reps, cached and uncached
    from groupforms import structure
    from groupforms.permgroup import normalizer, prime_divisors, sylow_subgroup

    calls = 0
    for g in catalog120:
        if g.order > 48:
            continue
        whole = g.whole()
        sets = lat.subgroup_sets(g)

        def cold_then_warm(under=None):
            g._op_cache.pop("class_reps", None)
            return [lat.class_reps(g, under) for _ in range(2)]

        want = orbit_reps_by_subgroup_orbit(g, sets, whole)
        assert cold_then_warm() == [want, want]
        reps = [H.members for H in structure.subgroup_class_reps(g)]
        assert reps == want
        primary = []
        for p in sorted(prime_divisors(g)):
            primary.extend(s for s in lat.subgroup_sets(sylow_subgroup(g, p)) if len(s) > 1)
        got = [P.members for P in structure.primary_subgroup_class_reps(g)]
        assert got == lat.orbit_reps_under(g, primary, whole)
        assert got == orbit_reps_by_subgroup_orbit(g, primary, whole)
        calls += 3
        for H in reps:
            norm_h = normalizer(g, SubgroupRef(g, H)).members
            want = orbit_reps_by_subgroup_orbit(g, sets, norm_h)
            assert lat.orbit_reps_under(g, sets, norm_h) == want
            assert cold_then_warm(norm_h) == [want, want]
            calls += 2
    assert calls == 4_548


def _assert_routes_agree(X, H):
    # each list route against the route that never reads the parent's list:
    # cyclic extension or the minimal-overgroup walk, the walk, and joins
    # (the walk caches H's minimal overgroups by joins in ``min_over``)
    parent, top = X.parent, X.members
    if H.order < parent.order:  # the parent's own list is the enumeration
        assert lat._subgroup_sets(H) == lat._enumerate(H)
    assert lat._interval(X, H) == lat._interval_by_walk(X, H.members)
    by_joins = parent._op_cache["min_over"][(H.members, top)]
    assert lat._minimal_overgroups(parent, H, top) == by_joins


def test_list_routes_match_the_routes_above_the_budget(g864):
    # within the lattice budget subgroup_sets, interval and minimal_overgroups
    # read the parent's one subgroup list; above it they enumerate, walk and
    # join. Both give the same lists on every catalog group of order <= 60
    # and each quotient image, for each of its subgroup class reps H
    checked = 0
    for g in catalog.catalog_groups(60):  # fresh groups: no cache is shared
        images = [quotient(g, N).image.as_subgroup() for N in lat.normal_subgroups(g)]
        for X in [g.as_subgroup()] + images:
            assert lat._parent_list(X.parent) is not None  # the list routes are taken
            for H in lat.class_reps(X):
                _assert_routes_agree(X, SubgroupRef(X.parent, H))
                checked += 1
    assert checked == 18_742
    with Budgets(lattice=1000).in_force():
        X = g864.as_subgroup()
        assert lat._parent_list(g864) is not None
        for p in (2, 3):
            _assert_routes_agree(X, sylow_subgroup(g864, p))


def test_time_budget_binds_in_the_edge_loop_of_all_subgroups(monkeypatch):
    # with the subgroup list cached, all_subgroups reads each node's minimal
    # overgroups off it, and each read checks the deadline
    G = catalog.symmetric(4)  # cold: nothing is cached yet
    nodes = len(lat.subgroup_sets(G))
    with Budgets(time=0).in_force(), pytest.raises(GroupBudgetError, match="time budget") as info:
        lat.all_subgroups(G)
    assert info.traceback[-2].name == "_minimal_overgroups"
    deadlines = Counter()

    def deadline():
        deadlines[sys._getframe(1).f_code.co_name] += 1

    monkeypatch.setattr(lat, "check_deadline", deadline)
    lat.all_subgroups(G)
    assert deadlines["_minimal_overgroups"] == nodes == 30


def _reps_by_set_orbits(parent, sets, under):
    # the route above the lattice budget: orbits of member sets. A budget is
    # at least 1, so the trivial group, with its one subgroup, stays within it
    with Budgets(lattice=max(parent.order - 1, 1)).in_force():
        return lat.orbit_reps_under(parent, sets, under)


def test_index_routes_match_the_set_orbit_routes():
    # within the lattice budget, class_reps and orbit_reps_under follow
    # integer orbits of list positions (``_IndexAction``). The route above
    # the budget, orbits of member sets, gives the same lists on every
    # catalog group of order <= 60 and each quotient image: the classes
    # under G, under each N_G(H) and of each class rep H, and the
    # Sylow-based primary reps (input sets not closed under conjugation).
    # The normal-subgroup list route, the positions the generators'
    # permutations fix, is checked on the same groups by
    # test_normal_subgroup_routes_agree
    checked = 0
    for g in catalog.catalog_groups(60):  # fresh groups: no cache is shared
        images = {id(q.image): q.image for q in (quotient(g, N) for N in lat.normal_subgroups(g))}
        for X in [g, *images.values()]:
            assert lat._index_action(X) is not None
            whole, sets = X.whole(), lat.subgroup_sets(X)
            reps = lat.class_reps(X)
            assert reps == _reps_by_set_orbits(X, sets, whole), X
            primary = [
                s for p in sorted(prime_divisors(X))
                for s in lat.subgroup_sets(sylow_subgroup(X, p)) if len(s) > 1
            ]
            assert lat.orbit_reps_under(X, primary, whole) == _reps_by_set_orbits(X, primary, whole)
            for H in reps:
                ref = SubgroupRef(X, H)
                norm = normalizer(X, ref).members
                assert lat.class_reps(X, norm) == _reps_by_set_orbits(X, sets, norm)
                own = lat.subgroup_sets(ref)
                assert lat.class_reps(ref) == _reps_by_set_orbits(X, own, H)
                checked += 1
    assert checked == 8_954


def test_index_route_gives_the_normalizer_classes_of_g864(g864):
    # at lattice budget 1000 the N_G(H)-classes of all 3,024 subgroups of
    # g864 for all 212 class reps H, against position permutations computed
    # by conjugate_set; five of them against orbits of member sets too
    with Budgets(lattice=1000).in_force():
        sets = lat.subgroup_sets(g864)
        reps = lat.class_reps(g864)
        assert (len(sets), len(reps)) == (3_024, 212)
        perms: dict = {}
        for n, H in enumerate(reps):
            norm = normalizer(g864, SubgroupRef(g864, H)).members
            got = lat.class_reps(g864, norm)
            assert got == orbit_reps_by_conjugate_perms(g864, sets, norm, perms)
            if n % 50 == 0:
                assert got == _reps_by_set_orbits(g864, sets, norm)
