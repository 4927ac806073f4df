"""Test-side oracles, independent of the production search strategies."""

from __future__ import annotations

from array import array
from math import gcd
from typing import Iterable, Optional, Sequence

from groupforms import lattice as lat
from groupforms import reports
from groupforms.formations import (
    NILPOTENT,
    SUPERSOLUBLE,
    Formation,
    FormationVerificationError,
    quotient_in,
    residual,
)
from groupforms.lattice import (
    LatticeBudgetError,
    SubgroupLattice,
    all_subgroups,
)
from groupforms.permgroup import (
    FiniteGroup,
    GroupError,
    GroupLike,
    SubgroupRef,
    _as_subgroup,
    _gather,
    check_deadline,
    core,
    is_prime,
    normal_closure,
    quotient,
)
from groupforms.subnormal import _check_contained


CHECKER_STATEMENTS = {
    "theorem1": ("S1", "S2", "S3"),
    "theorem2": ("left", "right"),
    "corollary1": ("divisible_implies_abnormal", "otherwise_subnormal_in_F"),
    "corollary2": ("C1_primary_cyclic_sn_or_abn", "C2_ef_group", "C3_split_shape"),
}


def passes_deciding_all(verdict) -> bool:
    """A checker verdict whose hypothesis holds, which decided every one of
    its statements, and whose report status is pass."""
    return (
        verdict.hypothesis_ok
        and sorted(verdict.statements) == sorted(CHECKER_STATEMENTS[verdict.theorem])
        and verdict.to_check_result().status == reports.PASS
    )


def invert(p: Sequence[int]) -> tuple[int, ...]:
    """The inverse permutation, by writing each point at its image."""
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def table_by_compose(G: FiniteGroup) -> tuple[list[array], array]:
    """The multiplication table and inverses by n^2 lookups of composed tuples,
    with the inverse found by scanning each row for the identity."""
    index = G._index
    elems = G.elements
    table = [array("i", (index[tuple(q[x] for x in p)] for q in elems)) for p in elems]
    inv = array("i", [-1]) * G.order
    for a, row in enumerate(table):
        for b in range(G.order):
            if row[b] == G.identity:
                inv[a] = b
                break
    return table, inv


def oracle_f_subnormal(G: FiniteGroup, H: SubgroupRef, F: Formation) -> bool:
    """Pruning-free chain search: depth-first over raw minimal-overgroup steps,
    testing each step quotient directly. Exponential-ish; small groups only."""
    whole = G.whole()
    dead: set[frozenset] = set()

    def ascend(K: SubgroupRef) -> bool:
        if K.members == whole:
            return True
        if K.members in dead:
            return False
        for L in lat.minimal_overgroups(G, K):
            if quotient_in(F, L, core(L, K)) and ascend(L):
                return True
        dead.add(K.members)
        return False

    return ascend(H)


def is_f_subnormal_via_residual(
    G: GroupLike,
    H: SubgroupRef,
    F: Formation,
) -> bool:
    """Cross-check route: bottom-up BFS with the residual-containment step form.

    Edges are minimal-overgroup steps (K, L) with residual(F, L) <= K;
    H is F-subnormal iff the ambient group is reachable from H.
    """
    amb = _as_subgroup(G)
    _check_contained(amb, H)
    parent = amb.parent
    if H.members == amb.members:
        return True
    seen = {H.members}
    frontier = [H]
    while frontier:
        nxt = []
        for K in frontier:
            for L in lat.minimal_overgroups(amb, K):
                if L.members in seen:
                    continue
                if not residual(F, L).members <= K.members:
                    continue
                if L.members == amb.members:
                    return True
                seen.add(L.members)
                nxt.append(L)
        frontier = nxt
    return False


def raw_membership(F: Formation):
    """F's membership predicate for the oracles, with Huppert's criterion
    standing in for U so that no oracle shares production's chief walk."""
    return is_supersoluble if F is SUPERSOLUBLE else F.membership


def is_f_subnormal_via_quotients(
    G: GroupLike,
    H: SubgroupRef,
    F: Formation,
) -> bool:
    """Cross-check route: bottom-up BFS with the raw quotient-membership step form.

    Edges are minimal-overgroup steps (K, L) whose quotient image
    L / core_L(K) satisfies ``raw_membership(F)``; no residual and no
    ``quotient_in`` verdict is read.
    """
    member = raw_membership(F)
    amb = _as_subgroup(G)
    _check_contained(amb, H)
    if H.members == amb.members:
        return True
    seen = {H.members}
    frontier = [H]
    while frontier:
        nxt = []
        for K in frontier:
            for L in lat.minimal_overgroups(amb, K):
                if L.members in seen:
                    continue
                if not member(quotient(L, core(L, K)).image.as_subgroup()):
                    continue
                if L.members == amb.members:
                    return True
                seen.add(L.members)
                nxt.append(L)
        frontier = nxt
    return False


def is_subnormal(G: GroupLike, H: SubgroupRef) -> bool:
    """Classical subnormality (oracle helper): normal-closure descent reaches H."""
    amb = _as_subgroup(G)
    _check_contained(amb, H)
    parent = amb.parent

    current = amb
    while True:
        nxt = normal_closure(current, H.members)
        if nxt.members == current.members:
            return current.members == H.members
        current = nxt


def oracle_f_abnormal(G: FiniteGroup, H: SubgroupRef, F: Formation) -> bool:
    """Direct quantifier scan over all pairs H <= K maximal-in L <= G."""
    for K in lat.interval(G, H):
        for L in lat.minimal_overgroups(G, K):
            if quotient_in(F, L, core(L, K)):
                return False
    return True


def residual_by_scan(F: Formation, G: GroupLike) -> SubgroupRef:
    """Generic residual oracle, uncached: the intersection of every normal
    subgroup N whose quotient satisfies ``raw_membership(F)``.

    Reads no closed form and no ``residual``/``quotient_in`` cache entry.
    """
    member = raw_membership(F)
    sub = _as_subgroup(G)
    members = sub.members
    for N in lat.normal_subgroups(sub):
        if member(quotient(sub, N).image.as_subgroup()):
            members = members & N.members
    return SubgroupRef(sub.parent, members)


def subgroup_refs(G: FiniteGroup) -> list[SubgroupRef]:
    return [SubgroupRef(G, s) for s in lat.subgroup_sets(G)]


def subgroup_sets_by_join_closure(sub: SubgroupRef) -> list[frozenset[int]]:
    """Join closure of the cyclic subgroups: every subgroup is the join of
    its cyclic subgroups, so iterating one-cyclic joins from the bottom
    reaches everything, perfect subgroups included."""
    parent = sub.parent
    trivial = frozenset((parent.identity,))
    cyclics: dict[frozenset[int], int] = {}
    for x in sub.sorted_members:
        if x == parent.identity:
            continue
        c = parent.closure([x])
        if c not in cyclics:
            cyclics[c] = x
    found: set[frozenset[int]] = {trivial} | set(cyclics)
    work = sorted(found, key=lambda s: (len(s), tuple(sorted(s))))
    cyclic_items = sorted(cyclics.items(), key=lambda kv: (len(kv[0]), kv[1]))
    while work:
        check_deadline()
        current = work.pop()
        coset = _gather(sorted(current))
        for cyc, seed in cyclic_items:
            if seed in current:
                continue
            join = parent.join(current, [seed], coset)
            if join not in found:
                found.add(join)
                work.append(join)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def is_supersoluble(G: GroupLike) -> bool:
    """Huppert's criterion (Math. Z. 60 (1954)): every maximal subgroup has
    prime index. The index is the same for every conjugate, so only the
    subgroup class reps that ``is_maximal`` accepts are read; independent of
    the chief walk."""
    sub = _as_subgroup(G)
    parent = sub.parent
    for M in lat.class_reps(sub):
        if lat.is_maximal(sub, SubgroupRef(parent, M)) and not is_prime(sub.order // len(M)):
            return False
    return True


def subgroup_orbit(
    parent: FiniteGroup, members: frozenset[int], under: frozenset[int]
) -> list[frozenset[int]]:
    """Orbit of a subgroup under conjugation by a subgroup's elements, one
    ``conjugate_set`` per generator and orbit member."""
    gens = parent.greedy_generators(under)
    orbit = {members}
    work = [members]
    while work:
        cur = work.pop()
        for g in gens:
            img = parent.conjugate_set(cur, g)
            if img not in orbit:
                orbit.add(img)
                work.append(img)
    return sorted(orbit, key=lambda s: tuple(sorted(s)))


def orbit_reps_by_subgroup_orbit(
    parent: FiniteGroup, sets, under: frozenset[int]
) -> list[frozenset[int]]:
    """Orbit representatives oracle: one ``subgroup_orbit`` (conjugation by
    ``conjugate_set``) per representative, the canonically least remaining set."""
    remaining = set(sets)
    reps = []
    for s in sorted(remaining, key=lambda s: (len(s), tuple(sorted(s)))):
        if s not in remaining:
            continue
        reps.append(s)
        for img in subgroup_orbit(parent, s, under):
            remaining.discard(img)
    return reps


# ---------------------------------------------------------------------------
# Readers of the full lattice, generator closure, minimal-non-F recognition
# and the formation-closure guard: code that only the tests use.


def generate(
    generators: Iterable[Sequence[int]],
    degree: int,
    name: Optional[str] = None,
) -> FiniteGroup:
    """Close a generator list into a FiniteGroup (deterministic element order)."""
    return FiniteGroup.from_generators(generators, degree, name=name)


def subgroup_generated(G: GroupLike, seed: Iterable[int]) -> SubgroupRef:
    sub = _as_subgroup(G)
    parent = sub.parent
    seed = list(seed)
    for s in seed:
        if s not in sub.members:
            raise GroupError(f"seed element {s} not in the group")
    return SubgroupRef(parent, parent.closure(seed))


def greedy_generators_from_scratch(G: FiniteGroup, members: frozenset[int]) -> tuple[int, ...]:
    """The greedy generating set with every span closed from scratch: the
    least element outside the span so far, until the span is ``members``."""
    gens: list[int] = []
    current: frozenset[int] = frozenset((G.identity,))
    if len(members) > 1:
        for x in sorted(members):
            if x not in current:
                gens.append(x)
                current = G.closure(gens)
                if len(current) == len(members):
                    break
    return tuple(gens)


def minimal_overgroups_by_scan(G: FiniteGroup, H: SubgroupRef) -> list[frozenset[int]]:
    """Minimal elements of {<H, g> : g outside H}, one from-scratch closure of
    H and g per element g, in canonical order."""
    joins = {G.closure(H.members | {g}) for g in range(G.order) if g not in H.members}
    return sorted(
        (s for s in joins if not any(other < s for other in joins)),
        key=lambda s: (len(s), tuple(sorted(s))),
    )


def interval_by_joins(X: GroupLike, H: SubgroupRef) -> list[frozenset[int]]:
    """The interval [H, X] in canonical order, walked up from H: each K
    reached gives <K, g> for one g per double coset KxK of a generator x of
    <g> in X, since <K, kxk'> = <K, x> = <K, g>. Every L in [H, X] is H
    joined with its elements one at a time, so the walk reaches all of
    them. It reads no subgroup list and no minimal-overgroup cache."""
    sub = _as_subgroup(X)
    G = sub.parent
    t = G._table
    orders = G.element_orders()
    found = {H.members}
    work = [H.members]
    while work:
        K = work.pop()
        coset = _gather(sorted(K))
        covered = set(K)
        for g in sub.sorted_members:
            if g in covered:
                continue
            x = g
            for i in range(1, orders[g]):
                if gcd(i, orders[g]) == 1:
                    for k in K:
                        covered.update(coset(t[t[k][x]]))  # the left coset kxK
                x = t[x][g]
            L = G.join(K, [g], coset)
            if L not in found:
                found.add(L)
                work.append(L)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def conjugacy_class_reps(lat: SubgroupLattice) -> list[SubgroupRef]:
    """One node per conjugacy class, the canonically least one."""
    return [lat.nodes[cls[0]] for cls in lat.conjugacy_classes]


def maximal_subgroups(G: GroupLike) -> list[SubgroupRef]:
    """Subgroups maximal in the (sub)group, read off its full lattice."""
    sub = _as_subgroup(G)
    lat = all_subgroups(sub)
    top_idx = next(i for i, ref in enumerate(lat.nodes) if ref.members == sub.members)
    return [lat.nodes[i] for i, j in lat.edges if j == top_idx]


def frattini(G: GroupLike) -> SubgroupRef:
    """Frattini subgroup: intersection of all maximal subgroups, taken a
    class at a time, as the orbit of each class rep that ``is_maximal``
    accepts."""
    sub = _as_subgroup(G)
    parent = sub.parent
    mem = sub.members
    for M in lat.class_reps(sub):
        if lat.is_maximal(sub, SubgroupRef(parent, M)):
            for conjugate in subgroup_orbit(parent, M, sub.members):
                mem = mem & conjugate
    return SubgroupRef(parent, mem)


def is_minimal_non_f(G: GroupLike, F: Formation) -> bool:
    """G outside F with every proper subgroup inside F."""
    sub = _as_subgroup(G)
    if F.contains(sub):
        return False
    lat = all_subgroups(sub)
    if F.subgroup_closed:
        candidates = [M for M in maximal_subgroups(sub)]
    else:
        candidates = [ref for ref in conjugacy_class_reps(lat) if ref.order < sub.order]
    return all(F.contains(M) for M in candidates)


def is_schmidt(G: GroupLike) -> bool:
    return is_minimal_non_f(G, NILPOTENT)


def verify_formation_closure(
    F: Formation, catalog: Sequence[FiniteGroup]
) -> reports.VerdictReport:
    """Empirical guard for the declared closure flags over a catalog.

    Checks quotient closure, residual well-definedness (intersection
    stability), that residual containment (the step test of the chain
    predicates) agrees with membership of the quotient image, and subgroup
    closure where flagged. Violations land in the report rather than raising.
    The closure checks read ``quotient_in``, F's membership predicate on the
    quotient image: residual containment assumes the very closure properties
    checked here. The route check catches a closed form that is not the least
    residual.
    """
    report = reports.VerdictReport(kind="formation-closure", formation=F.name)
    for G in catalog:
        gname = G.name or f"order{G.order}"
        whole = G.as_subgroup()
        normals = lat.normal_subgroups(G)
        in_f = F.contains(G)
        if in_f:
            bad = [N for N in normals if not quotient_in(F, whole, N)]
            if bad:
                report.add(
                    "quotient-closure",
                    reports.FAIL,
                    {"group": gname},
                    [reports.subgroup_witness(N) for N in bad],
                )
            else:
                report.add("quotient-closure", reports.PASS, {"group": gname})
        qualifying = [N for N in normals if quotient_in(F, whole, N)]
        in_image = {N.members for N in qualifying}
        try:
            R = residual(F, G)
        except FormationVerificationError as exc:
            report.add("quotient-route", reports.FAIL, {"group": gname, "error": str(exc)})
        else:
            wrong = [N for N in normals if (R.members <= N.members) != (N.members in in_image)]
            report.add(
                "quotient-route",
                reports.PASS if not wrong else reports.FAIL,
                {"group": gname},
                [reports.subgroup_witness(N) for N in wrong],
            )
        stable = True
        witnesses = []
        for i, N in enumerate(qualifying):
            for M in qualifying[i + 1 :]:
                meet = SubgroupRef(G, N.members & M.members)
                if not quotient_in(F, whole, meet):
                    stable = False
                    witnesses.append(
                        {
                            "first": reports.subgroup_witness(N),
                            "second": reports.subgroup_witness(M),
                        }
                    )
        report.add(
            "residual-well-defined",
            reports.PASS if stable else reports.FAIL,
            {"group": gname},
            witnesses,
        )
        if F.subgroup_closed and in_f:
            bad_subs = []
            try:
                lat_G = all_subgroups(G)
            except LatticeBudgetError:
                report.add("subgroup-closure", reports.SKIP, {"group": gname, "reason": "budget"})
            else:
                for cls in lat_G.conjugacy_classes:
                    H = lat_G.nodes[cls[0]]
                    if not F.contains(H):
                        bad_subs.append(H)
                report.add(
                    "subgroup-closure",
                    reports.PASS if not bad_subs else reports.FAIL,
                    {"group": gname},
                    [reports.subgroup_witness(H) for H in bad_subs],
                )
    return report
