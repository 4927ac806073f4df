"""Formations as membership predicates with declared closure flags.

Saturation, superradicality and subgroup closure are trusted metadata, never
computed. ``subgroup_closed`` also selects the F-subnormality descent
(``subnormal``), which assumes the paper's Lemma 1(4) and 1(5), so a wrong
flag changes verdicts, not only which checkers run. A formation may carry a
closed-form residual (a term of a standard series); the others fall back to
a scan of the normal subgroups. On both paths the residual operation checks
that the quotient lies in the formation and raises
``FormationVerificationError`` when it does not. The residual operation does
not check that a closed form is minimal; the tests compare every closed form
with the scan and guard against one that is too large.

``quotient_in`` decides whether K/N lies in F one way: F's membership
predicate on the quotient image. It keeps no cache of its own: ``quotient``
caches the image per (K, N) and ``Formation.contains`` the verdict per
(image, F). The chain predicates test their steps by residual containment
instead (``subnormal``), so only the residual scan, the residual
postconditions and the chain witnesses build quotient images. U membership
walks a chief series of the group's normal subgroups, so it builds no
subgroup lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import lattice as _lattice
from .permgroup import (
    GroupError,
    GroupLike,
    SubgroupRef,
    _as_subgroup,
    derived_series,
    derived_subgroup,
    is_abelian,
    is_nilpotent,
    is_prime,
    is_soluble,
    lower_central_series,
    memo,
    quotient,
)


class FormationVerificationError(GroupError):
    """The residual postcondition failed: the predicate is not formation-closed."""


@dataclass(frozen=True, eq=False)
class Formation:
    """A named isomorphism-invariant group class with declared closure flags.

    ``closed_residual``, when given, maps a subgroup K to K^F directly; without
    it the residual is found by scanning K's normal subgroups. A closed form
    yields only the residual, but every chain step is decided by containment
    of that residual, so one that returns too large a subgroup changes
    F-subnormality verdicts; nothing in the program checks that it is the
    least such subgroup.

    The closure flags are trusted, never computed. ``subgroup_closed`` gates
    checkers and selects the F-subnormality descent through <H, K^F>, so a
    formation wrongly flagged subgroup-closed gets wrong verdicts.

    Cached verdicts are keyed by the formation object itself (``eq=False``:
    equality and hash by identity), never by its name, so two formations
    that share a name do not share verdicts.
    """

    name: str
    description: str
    membership: Callable[[SubgroupRef], bool]
    subgroup_closed: bool = False
    saturated: bool = False
    superradical: bool = False
    contains_nilpotents: bool = False
    closed_residual: Optional[Callable[[SubgroupRef], SubgroupRef]] = None

    def contains(self, G: GroupLike) -> bool:
        sub = _as_subgroup(G)
        return memo(sub.parent, "formation_member", (sub.members, self), self._decide, sub)

    def _decide(self, sub: SubgroupRef) -> bool:
        return bool(self.membership(sub))

    def __repr__(self) -> str:
        return f"<Formation {self.name}>"


def _member_supersoluble(sub: SubgroupRef) -> bool:
    """Every chief factor has prime order.

    U is the saturated formation whose chief factors are cyclic (Doerk-Hawkes,
    ch. IV), and by Jordan-Hoelder any chief series will do.
    ``normal_subgroups`` is ascending by order, so the first one strictly
    above the current term is minimal over it, and a single pass walks one
    chief series from 1 to the group.
    """
    current = frozenset((sub.parent.identity,))
    for M in _lattice.normal_subgroups(sub):
        if current < M.members:
            if not is_prime(len(M.members) // len(current)):
                return False
            current = M.members
    return True


def _member_nilpotent_derived(sub: SubgroupRef) -> bool:
    return is_nilpotent(derived_subgroup(sub))


def _last_lower_central(sub: SubgroupRef) -> SubgroupRef:
    return lower_central_series(sub)[-1]


def _last_derived(sub: SubgroupRef) -> SubgroupRef:
    return derived_series(sub)[-1]


def _nilpotent_residual_of_derived(sub: SubgroupRef) -> SubgroupRef:
    # NA = N o A (Gaschuetz product), so G^NA = (G^A)^N = (G')^N
    return lower_central_series(derived_subgroup(sub))[-1]


ABELIAN = Formation(
    name="A",
    description="abelian groups",
    membership=is_abelian,
    subgroup_closed=True,
    saturated=False,  # Q8/Phi(Q8) is abelian, Q8 is not
    superradical=False,
    contains_nilpotents=False,
    closed_residual=derived_subgroup,
)

NILPOTENT = Formation(
    name="N",
    description="nilpotent groups",
    membership=is_nilpotent,
    subgroup_closed=True,
    saturated=True,
    superradical=True,
    contains_nilpotents=True,
    closed_residual=_last_lower_central,
)

SUPERSOLUBLE = Formation(
    name="U",
    description="supersoluble groups",
    membership=_member_supersoluble,
    subgroup_closed=True,
    saturated=True,
    superradical=False,
    contains_nilpotents=True,
)

NILPOTENT_DERIVED = Formation(
    name="NA",
    description="groups with nilpotent derived subgroup",
    membership=_member_nilpotent_derived,
    subgroup_closed=True,
    saturated=True,
    superradical=False,
    contains_nilpotents=True,
    closed_residual=_nilpotent_residual_of_derived,
)

SOLUBLE = Formation(
    name="Sol",
    description="soluble groups",
    membership=is_soluble,
    subgroup_closed=True,
    saturated=True,
    superradical=False,
    contains_nilpotents=True,
    closed_residual=_last_derived,
)

BUILT_IN: dict[str, Formation] = {
    F.name: F for F in (ABELIAN, NILPOTENT, SUPERSOLUBLE, NILPOTENT_DERIVED, SOLUBLE)
}


def formation_by_name(name: str) -> Formation:
    try:
        return BUILT_IN[name]
    except KeyError:
        raise GroupError(
            f"unknown formation {name!r}; available: {', '.join(sorted(BUILT_IN))}"
        ) from None


def quotient_in(F: Formation, K: SubgroupRef, N: SubgroupRef) -> bool:
    """Whether K/N lies in F: F's membership predicate on the quotient image."""
    return F.contains(quotient(K, N).image)


def residual(F: Formation, G: GroupLike) -> SubgroupRef:
    """Smallest normal subgroup with quotient in F, postcondition verified.

    See ``_residual`` for the two routes; the result is cached per (G, F).
    """
    sub = _as_subgroup(G)
    return memo(sub.parent, "residual", (sub.members, F), _residual, F, sub)


def _residual(F: Formation, sub: SubgroupRef) -> SubgroupRef:
    """F's closed form when it has one, else the normal-subgroup scan.

    The scan walks normal subgroups in ascending order; anything above a known
    member of the family is a member by quotient closure (trusted formation
    metadata), so only the genuinely new candidates build quotients, and the
    ascending order guarantees nothing smaller qualifies. On both routes a
    final ``quotient_in`` check that G/R lies in F, on the quotient image,
    rejects predicates that are not formation-closed and closed forms that
    return too small a subgroup. A closed form that returns too large a
    subgroup passes this check; the tests that compare it with the scan catch
    it.
    """
    if F.closed_residual is not None:
        R = F.closed_residual(sub)
        if not quotient_in(F, sub, R):
            raise FormationVerificationError(
                f"{F.name}: the closed-form residual does not have its quotient in the class"
            )
        return R
    normals = _lattice.normal_subgroups(sub)
    passes: list[SubgroupRef] = []
    for N in normals:  # ascending (order, members)
        if any(P.members <= N.members for P in passes):
            continue
        if quotient_in(F, sub, N):
            passes.append(N)
    if not passes:
        raise FormationVerificationError(
            f"{F.name}: no normal subgroup has quotient in the class "
            "(the trivial quotient should always qualify)"
        )
    members = sub.members
    for P in passes:
        members = members & P.members
    R = SubgroupRef(sub.parent, members)
    if not quotient_in(F, sub, R):
        raise FormationVerificationError(
            f"{F.name} is not intersection-stable on this group: "
            "the intersection of qualifying kernels does not qualify"
        )
    return R
