"""The five subgroup predicates: F-subnormal (two routes), F-abnormal,
absolutely F-subnormal, abnormal, self-normalizing.

A subgroup H is F-subnormal in G when some chain of maximal-subgroup steps
H = H_0 < H_1 < ... < H_n = G has every step quotient H_i / core(H_{i-1})
inside F. The production route walks this chain graph top-down: any
qualifying step below K must contain <H, K^F> (for a formation the step
condition is equivalent to containing K's F-residual), which keeps the
search inside F-quotient-sized intervals even at order 864. The
``via_residual`` route is an independent bottom-up breadth-first search
using the residual-containment form of the step condition; the two must
agree everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import lattice as _lattice
from .formations import Formation, quotient_in, residual
from .permgroup import (
    GroupError,
    GroupLike,
    SubgroupRef,
    _as_subgroup,
    core,
    normalizer,
)


@dataclass(frozen=True)
class StepCertificate:
    """Evidence for one chain step: lower < upper with upper/core(lower) in F."""

    lower: SubgroupRef
    upper: SubgroupRef
    core_order: int
    quotient_order: int
    quotient_in_formation: bool


@dataclass(frozen=True)
class ChainWitness:
    subgroups: tuple[SubgroupRef, ...]  # ascending, H first, ambient last
    steps: tuple[StepCertificate, ...]


def _check_contained(amb: SubgroupRef, H: SubgroupRef) -> None:
    if H.parent is not amb.parent:
        raise GroupError("H belongs to a different parent group")
    if not H.members <= amb.members:
        raise GroupError("H is not a subgroup of the ambient group")


def _edge_in_formation(F: Formation, lower: SubgroupRef, upper: SubgroupRef) -> bool:
    """Step condition, quotient-membership form: upper / core_upper(lower) in F."""
    c = core(upper, lower)
    return quotient_in(F, upper, c)


def is_f_subnormal(G: GroupLike, H: SubgroupRef, F: Formation) -> bool:
    found, _ = _f_subnormal_search(G, H, F, want_witness=False)
    return found


def f_subnormal_witness(G: GroupLike, H: SubgroupRef, F: Formation) -> Optional[ChainWitness]:
    found, chain = _f_subnormal_search(G, H, F, want_witness=True)
    if not found:
        return None
    steps = []
    for lower, upper in zip(chain, chain[1:]):
        c = core(upper, lower)
        hom_ok = quotient_in(F, upper, c)
        steps.append(
            StepCertificate(
                lower=lower,
                upper=upper,
                core_order=c.order,
                quotient_order=upper.order // c.order,
                quotient_in_formation=hom_ok,
            )
        )
    return ChainWitness(subgroups=tuple(chain), steps=tuple(steps))


def _f_subnormal_search(G, H, F, want_witness):
    amb = _as_subgroup(G)
    _check_contained(amb, H)
    parent = amb.parent
    cache = parent._op_cache.setdefault("fsn", {})

    def search(K: SubgroupRef) -> Optional[list[SubgroupRef]]:
        key = (K.members, H.members, F.name)
        cached = cache.get(key)
        if cached is False:
            return None
        if cached is True and not want_witness:
            return []
        if K.members == H.members:
            cache[key] = True
            return [K]
        res = residual(F, K)
        join = parent.closure(set(res.members) | set(H.members))
        if join == K.members:
            cache[key] = False
            return None
        J = SubgroupRef(parent, join)
        for M in _lattice.maximal_subgroups_containing(K, J):
            if not _edge_in_formation(F, M, K):
                continue
            tail = search(M)
            if tail is not None:
                cache[key] = True
                return tail + [K]
        cache[key] = False
        return None

    chain = search(amb)
    return (chain is not None), (chain or [])


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
            for L in _lattice.minimal_overgroups(amb, K, within=amb.members):
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


def is_f_abnormal(G: GroupLike, H: SubgroupRef, F: Formation) -> bool:
    """True iff every step K < L above H has quotient L/core_L(K) outside F."""
    amb = _as_subgroup(G)
    _check_contained(amb, H)
    if H.members == amb.members:
        return True  # vacuous quantification
    parent = amb.parent
    cache = parent._op_cache.setdefault("fabn", {})
    key = (amb.members, H.members, F.name)
    got = cache.get(key)
    if got is not None:
        return got
    result = True
    for K in _lattice.interval(amb, H):
        for L in _lattice.minimal_overgroups(amb, K, within=amb.members):
            if _edge_in_formation(F, K, L):
                result = False
                break
        if not result:
            break
    cache[key] = result
    return result


def is_absolutely_f_subnormal(G: GroupLike, H: SubgroupRef, F: Formation) -> bool:
    """Every subgroup containing H is F-subnormal in the ambient group."""
    amb = _as_subgroup(G)
    _check_contained(amb, H)
    parent = amb.parent
    cache = parent._op_cache.setdefault("abs_fsn", {})
    key = (amb.members, H.members, F.name)
    got = cache.get(key)
    if got is not None:
        return got
    result = True
    for L in _lattice.interval(amb, H):
        if not is_f_subnormal(amb, L, F):
            result = False
            break
    cache[key] = result
    return result


def is_abnormal(G: GroupLike, H: SubgroupRef) -> bool:
    """x in <H, H^x> for every x; checked once per H-H double coset."""
    amb = _as_subgroup(G)
    _check_contained(amb, H)
    parent = amb.parent
    cache = parent._op_cache.setdefault("abnormal", {})
    key = (amb.members, H.members)
    got = cache.get(key)
    if got is not None:
        return got
    t = parent._table
    h_gens = list(parent.greedy_generators(H.members))
    h_sorted = H.sorted_members
    covered = set(H.members)
    result = True
    for x in sorted(amb.members):
        if x in covered:
            continue
        join = parent.closure(h_gens + [parent.conj(g, x) for g in h_gens])
        if x not in join:
            result = False
            break
        for h in h_sorted:
            hx = t[h][x]
            for k in h_sorted:
                covered.add(t[hx][k])
    cache[key] = result
    return result


def is_self_normalizing(G: GroupLike, H: SubgroupRef) -> bool:
    amb = _as_subgroup(G)
    _check_contained(amb, H)
    return normalizer(amb, H).members == H.members


def is_subnormal(G: GroupLike, H: SubgroupRef) -> bool:
    """Classical subnormality (oracle helper): normal-closure descent reaches H."""
    amb = _as_subgroup(G)
    _check_contained(amb, H)
    parent = amb.parent
    from .permgroup import normal_closure

    current = amb
    while True:
        nxt = normal_closure(current, H.members)
        if nxt.members == current.members:
            return current.members == H.members
        current = nxt
