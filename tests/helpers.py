"""Test-side oracles, independent of the production search strategies."""

from __future__ import annotations

from groupforms import lattice as lat
from groupforms.formations import SUPERSOLUBLE, Formation, quotient_in, residual
from groupforms.permgroup import (
    FiniteGroup,
    GroupLike,
    SubgroupRef,
    _as_subgroup,
    core,
    is_prime,
    normal_closure,
    quotient,
)
from groupforms.subnormal import _check_contained


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
        for L in lat.minimal_overgroups(G, K, within=whole):
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
            for L in lat.minimal_overgroups(amb, K, within=amb.members):
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
            for L in lat.minimal_overgroups(amb, K, within=amb.members):
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
    whole = G.whole()
    for K in lat.interval(G, H):
        for L in lat.minimal_overgroups(G, K, within=whole):
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


def is_supersoluble(G: GroupLike) -> bool:
    """Huppert's criterion (Math. Z. 60 (1954)): every maximal subgroup has
    prime index. Read off the full lattice, independent of the chief walk."""
    sub = _as_subgroup(G)
    if sub.order == 1:
        return True
    return all(is_prime(sub.order // M.order) for M in lat.maximal_subgroups(sub))


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
