"""The subgroup predicates: F-subnormal, F-abnormal, absolutely
F-subnormal, abnormal, self-normalizing.

A subgroup H is F-subnormal in G when some chain of maximal-subgroup steps
H = H_0 < H_1 < ... < H_n = G has every step quotient H_i / core(H_{i-1})
inside F. For a formation that step condition holds iff H_i^F <= H_{i-1}
(the residual is normal in H_i), and every step of both chain predicates is
decided in that form. The search walks the chain graph top-down: any
qualifying step below K must contain <H, K^F>, which keeps the search inside
F-quotient-sized intervals even at order 864. For a formation flagged
``subgroup_closed`` the search stops at once, True, when K^F <= H: every L
in [H, K] then has L^F <= K^F <= H (Lemma 1(4)), so every maximal chain from
H to K qualifies. The flag is trusted, so a formation wrongly flagged gets
wrong verdicts. It memoises one boolean verdict per (K, H, F);
``f_subnormal_witness`` reads the depth-first chain back off those verdicts
and certifies each step on its quotient image. The independent routes it is
checked against (bottom-up breadth-first searches with the
residual-containment step form and with membership of the built step
quotient, and classical subnormality) are test oracles in
``tests/helpers.py``.

H is F-abnormal when no step K < L of [H, G] has L^F <= K. A walk up from H,
one ``minimal_overgroups`` list per subgroup reached, returns False at the
first such step, so only an F-abnormal H has all of [H, G] walked. The test
oracle builds the interval and decides each step by quotient membership.
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
    _gather,
    check_deadline,
    core,
    memo,
    normalizer,
)


class WitnessChainError(GroupError):
    """A True F-subnormality verdict has no qualifying step to continue its chain."""


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


def is_f_subnormal(G: GroupLike, H: SubgroupRef, F: Formation) -> bool:
    amb = _as_subgroup(G)
    _check_contained(amb, H)
    return _fsn(amb, H, F)


def f_subnormal_witness(G: GroupLike, H: SubgroupRef, F: Formation) -> Optional[ChainWitness]:
    """The chain the top-down search finds, or None when H is not F-subnormal.

    Walking down from the ambient group, each step takes the first qualifying
    maximal subgroup whose cached verdict is True: the depth-first choice.
    Each step is then certified on its quotient image, apart from the search.
    Raises ``WitnessChainError`` when a True verdict has no qualifying step
    below some K, as a formation wrongly flagged ``subgroup_closed`` can bring
    about.
    """
    if not is_f_subnormal(G, H, F):
        return None
    K = _as_subgroup(G)
    chain = [K]
    while K.members != H.members:
        step = next((M for M in _qualifying_steps(K, H, F) if _fsn(M, H, F)), None)
        if step is None:
            raise WitnessChainError(
                f"{F.name}: no qualifying step continues the chain below {K!r} towards {H!r}"
            )
        K = step
        chain.append(K)
    chain.reverse()
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


def _fsn(K: SubgroupRef, H: SubgroupRef, F: Formation) -> bool:
    """Whether H is F-subnormal in K (H <= K), cached per (K, H, F)."""
    return memo(K.parent, "fsn", (K.members, H.members, F), _fsn_search, K, H, F)


def _fsn_search(K: SubgroupRef, H: SubgroupRef, F: Formation) -> bool:
    """True at once when K == H, or when F is subgroup-closed and K^F <= H
    (Lemma 1(4)); otherwise whether some qualifying step below K leads to H."""
    check_deadline()
    if K.members == H.members:
        return True
    if F.subgroup_closed and residual(F, K).members <= H.members:
        return True
    return any(_fsn(M, H, F) for M in _qualifying_steps(K, H, F))


def _qualifying_steps(K: SubgroupRef, H: SubgroupRef, F: Formation) -> list[SubgroupRef]:
    """Maximal M < K with H <= M and K/core_K(M) in F, in canonical order.

    These are the maximal subgroups of K that contain <H, K^F>; when that
    join is K itself there is none.
    """
    parent = K.parent
    join = parent.join(H.members, residual(F, K).members)
    if join == K.members:
        return []
    return _lattice.maximal_subgroups_containing(K, SubgroupRef(parent, join))


def is_f_abnormal(G: GroupLike, H: SubgroupRef, F: Formation) -> bool:
    """True iff every step K < L above H has quotient L/core_L(K) outside F,
    that is L^F is not contained in K.

    Walks up from H: each K reached gives its minimal overgroups L, the
    first L with L^F <= K ends the walk with False, and each L not yet
    reached is walked from in turn.
    """
    amb = _as_subgroup(G)
    _check_contained(amb, H)
    if H.members == amb.members:
        return True  # vacuous quantification
    return memo(amb.parent, "fabn", (amb.members, H.members, F), _f_abnormal, amb, H, F)


def _f_abnormal(amb: SubgroupRef, H: SubgroupRef, F: Formation) -> bool:
    seen = {H.members}
    work = [H]
    while work:
        check_deadline()
        K = work.pop()
        for L in _lattice.minimal_overgroups(amb, K):
            if residual(F, L).members <= K.members:
                return False
            if L.members not in seen:
                seen.add(L.members)
                work.append(L)
    return True


def is_absolutely_f_subnormal(G: GroupLike, H: SubgroupRef, F: Formation) -> bool:
    """Every subgroup containing H is F-subnormal in the ambient group."""
    amb = _as_subgroup(G)
    _check_contained(amb, H)
    return memo(
        amb.parent, "abs_fsn", (amb.members, H.members, F), _absolutely_f_subnormal, amb, H, F
    )


def _absolutely_f_subnormal(amb: SubgroupRef, H: SubgroupRef, F: Formation) -> bool:
    return all(is_f_subnormal(amb, L, F) for L in _lattice.interval(amb, H))


def is_abnormal(G: GroupLike, H: SubgroupRef) -> bool:
    """x in <H, H^x> for every x; checked once per H-H double coset."""
    amb = _as_subgroup(G)
    _check_contained(amb, H)
    return memo(amb.parent, "abnormal", (amb.members, H.members), _abnormal, amb, H)


def _abnormal(amb: SubgroupRef, H: SubgroupRef) -> bool:
    parent = amb.parent
    t = parent._table
    h_gens = parent.greedy_generators(H.members)
    coset = _gather(H.sorted_members)
    covered = set(H.members)
    for x in sorted(amb.members):
        if x in covered:
            continue
        join = parent.join(H.members, [parent.conj(g, x) for g in h_gens], coset)
        if x not in join:
            return False
        for h in H.sorted_members:
            covered.update(coset(t[t[h][x]]))
    return True


def is_self_normalizing(G: GroupLike, H: SubgroupRef) -> bool:
    amb = _as_subgroup(G)
    _check_contained(amb, H)
    return normalizer(amb, H).members == H.members
