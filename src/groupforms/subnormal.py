"""The subgroup predicates: F-subnormal, F-abnormal, absolutely
F-subnormal, abnormal, self-normalizing.

A subgroup H is F-subnormal in G when some chain of maximal-subgroup steps
H = H_0 < H_1 < ... < H_n = G has every step quotient H_i / core(H_{i-1})
inside F. For a formation that step condition holds iff H_i^F <= H_{i-1}
(the residual is normal in H_i), the form in which ``_steps_up`` decides
every step of both chain predicates.

For F flagged ``subgroup_closed``, H is F-subnormal in K iff H = K, or
J = <H, K^F> is proper in K and H is F-subnormal in J. By the paper's
Lemma 1: the top step M of a qualifying chain from H to K contains J, and
H is F-subnormal in M, so in J by 1(5); conversely J >= K^F is F-subnormal
in K by 1(4), and 1(1) joins the two. The descent takes one join and one
residual per step and enumerates no subgroup; K^F <= H is the case J = H.
The flag is trusted, so a formation wrongly flagged gets wrong verdicts.
Without it the search recurses over the qualifying steps up from H. One
verdict is memoised per (K, H, F). ``f_subnormal_witness`` walks up from H
by the first step whose top is F-subnormal and certifies each step on its
quotient image: the group itself for a step to the whole group whose core is
1, else the right-coset action on the step's top. The independent routes (bottom-up breadth-first searches
with the residual-containment step form and with membership of the built
step quotient, and classical subnormality) are test oracles in
``tests/helpers.py``.

H is F-abnormal when no step K < L of [H, G] has L^F <= K. ``walk_up`` from
H, one ``minimal_overgroups`` list and deadline check per subgroup it takes,
returns False at the first such step, so only an F-abnormal H has all of
[H, G] walked. The test oracle builds the interval and decides each step by
quotient membership. F-abnormality and absolute F-subnormality keep no
verdict of their own: each call recomputes them from the cached minimal
overgroups, intervals, residuals and F-subnormality verdicts. Every
predicate checks that H is a subgroup of G with ``permgroup._check_contained``,
the one such check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from . import lattice as _lattice
from .formations import Formation, quotient_in, residual
from .permgroup import (
    GroupError,
    GroupLike,
    SubgroupRef,
    _check_contained,
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


def is_f_subnormal(G: GroupLike, H: SubgroupRef, F: Formation) -> bool:
    return _fsn(_check_contained(G, H), H, F)


def f_subnormal_witness(G: GroupLike, H: SubgroupRef, F: Formation) -> Optional[ChainWitness]:
    """A qualifying chain from H up to the ambient group, or None when H is
    not F-subnormal.

    Walking up from H, each step takes the first qualifying step K < L (in
    the order of ``minimal_overgroups``) whose L is F-subnormal in the
    ambient group, by its cached verdict. Each step is then certified on its
    quotient image, apart from the verdicts. Raises ``WitnessChainError``
    when a True verdict has no such step above some K, as a formation
    wrongly flagged ``subgroup_closed`` can bring about.
    """
    amb = _check_contained(G, H)
    if not _fsn(amb, H, F):
        return None
    K = H
    chain = [K]
    while K.members != amb.members:
        step = next((L for L in _steps_up(amb, K, F) if _fsn(amb, L, F)), None)
        if step is None:
            raise WitnessChainError(
                f"{F.name}: no qualifying step continues the chain above {K!r} inside {amb!r}"
            )
        K = step
        chain.append(K)
    steps = tuple(_certify(lower, upper, F) for lower, upper in zip(chain, chain[1:]))
    return ChainWitness(subgroups=tuple(chain), steps=steps)


def _certify(lower: SubgroupRef, upper: SubgroupRef, F: Formation) -> StepCertificate:
    c = core(upper, lower)
    return StepCertificate(lower, upper, c.order, upper.order // c.order, quotient_in(F, upper, c))


def _fsn(K: SubgroupRef, H: SubgroupRef, F: Formation) -> bool:
    """Whether H is F-subnormal in K (H <= K), cached per (K, H, F)."""
    return memo(K.parent, "fsn", (K.members, H.members, F), _fsn_search, K, H, F)


def _fsn_search(K: SubgroupRef, H: SubgroupRef, F: Formation) -> bool:
    """True at once when K == H. For a subgroup-closed F, whether
    J = <H, K^F> is proper in K with H F-subnormal in J (the descent);
    otherwise whether some qualifying step up from H is F-subnormal in K."""
    check_deadline()
    if K.members == H.members:
        return True
    if F.subgroup_closed:
        J = K.parent.join(H.members, residual(F, K).members)
        return J != K.members and _fsn(SubgroupRef(K.parent, J), H, F)
    return any(_fsn(K, L, F) for L in _steps_up(K, H, F))


def _steps_up(amb: SubgroupRef, K: SubgroupRef, F: Formation) -> Iterator[SubgroupRef]:
    """Each minimal overgroup L of K in amb with L^F <= K, lazily, in the
    order of ``minimal_overgroups``."""
    for L in _lattice.minimal_overgroups(amb, K):
        if residual(F, L).members <= K.members:
            yield L


def is_f_abnormal(G: GroupLike, H: SubgroupRef, F: Formation) -> bool:
    """True iff every step K < L above H has quotient L/core_L(K) outside F,
    that is L^F is not contained in K.

    ``lattice.walk_up`` from H through minimal overgroups: the first K
    reached with a step L^F <= K ends the walk with False.
    """
    amb = _check_contained(G, H)
    if H.members == amb.members:
        return True  # vacuous quantification
    walk = _lattice.walk_up(H, lambda K: _lattice.minimal_overgroups(amb, K))
    return all(next(_steps_up(amb, K, F), None) is None for K in walk)


def is_absolutely_f_subnormal(G: GroupLike, H: SubgroupRef, F: Formation) -> bool:
    """Every subgroup containing H is F-subnormal in the ambient group."""
    amb = _check_contained(G, H)
    return all(is_f_subnormal(amb, L, F) for L in _lattice.interval(amb, H))


def is_abnormal(G: GroupLike, H: SubgroupRef) -> bool:
    """x in <H, H^x> for every x; checked once per H-H double coset, as is the deadline."""
    amb = _check_contained(G, H)
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
        check_deadline()
        join = parent.join(H.members, [parent.conj(g, x) for g in h_gens], coset)
        if x not in join:
            return False
        for h in H.sorted_members:
            covered.update(coset(t[t[h][x]]))
    return True


def is_self_normalizing(G: GroupLike, H: SubgroupRef) -> bool:
    return normalizer(G, H).members == H.members
