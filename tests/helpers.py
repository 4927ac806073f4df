"""Test-side oracles, independent of the production search strategies."""

from __future__ import annotations

from groupforms import lattice as lat
from groupforms.formations import Formation, quotient_in, residual
from groupforms.permgroup import (
    FiniteGroup,
    GroupLike,
    SubgroupRef,
    _as_subgroup,
    core,
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
    subgroup N whose quotient satisfies F's raw membership predicate.

    Reads no closed form and no ``residual``/``quotient_in`` cache entry.
    """
    sub = _as_subgroup(G)
    members = sub.members
    for N in lat.normal_subgroups(sub):
        if F.membership(quotient(sub, N).image.as_subgroup()):
            members = members & N.members
    return SubgroupRef(sub.parent, members)


def subgroup_refs(G: FiniteGroup) -> list[SubgroupRef]:
    return [SubgroupRef(G, s) for s in lat.subgroup_sets(G)]
