"""Carter finder, E_F classification, and the theorem checkers.

Every checker computes both sides of its statement independently; a verdict
is a genuine verification, never a derivation. Checkers whose statement
carries formation hypotheses (saturated, superradical, ...) gate on the
declared flags and label the verdict empirical when a flag is missing.

Subgroups are taken up to conjugacy (``subgroup_class_reps``, over the
cached ``lattice.class_reps``, which also gives the N_G(H)-classes of
Lemma 1(5), by integer orbits of list positions within the lattice budget
and member-set orbits above it); Carter subgroups take whole conjugacy
orbits, and a subgroup is maximal when its only minimal overgroup is the
group (``lattice.is_maximal``). No checker builds a full subgroup lattice.

A statement whose all-subgroup quantifier ``lattice`` refuses for the lattice
budget is left out with a one-line reason (``_unless_over_budget``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from . import lattice as _lattice
from . import reports
from .formations import NILPOTENT, NILPOTENT_DERIVED, Formation, residual
from .permgroup import (
    FiniteGroup,
    GroupError,
    GroupLike,
    SubgroupRef,
    _as_subgroup,
    derived_subgroup,
    is_elementary_abelian,
    is_nilpotent,
    is_prime_power,
    is_primary_order,
    is_soluble,
    normalizer,
    p_part,
    prime_divisors,
    prime_factorization,
    quotient,
    sylow_subgroup,
    fitting,
)
from .subnormal import (
    WitnessChainError,
    f_subnormal_witness,
    is_abnormal,
    is_absolutely_f_subnormal,
    is_f_abnormal,
    is_f_subnormal,
    is_self_normalizing,
)

def _contains_all_prime_orders(F: Formation, G: GroupLike) -> bool:
    """F contains C_p for every prime p dividing |G|.

    F is isomorphism-closed, so C_p is read off the least element of order p
    in G itself (Cauchy), and ``F.contains`` caches the verdict on G.
    """
    sub = _as_subgroup(G)
    parent = sub.parent
    orders = parent.element_orders()
    for p in sorted(prime_divisors(sub)):
        x = min(x for x in sub.members if orders[x] == p)
        if not F.contains(SubgroupRef(parent, parent.closure([x]))):
            return False
    return True


# ---------------------------------------------------------------------------
# finders


def primary_cyclic_subgroups(G: GroupLike) -> list[SubgroupRef]:
    """Non-trivial cyclic subgroups of prime-power order, deduplicated."""
    sub = _as_subgroup(G)
    parent = sub.parent
    orders = parent.element_orders()
    found: list[frozenset[int]] = []
    covered: set[int] = set()  # the generators of the subgroups found
    for x in sub.sorted_members:
        n = orders[x]
        if n > 1 and x not in covered and is_prime_power(n):
            C = parent.closure([x])
            found.append(C)
            covered.update(y for y in C if orders[y] == n)
    return [SubgroupRef(parent, s) for s in _lattice.canonical(found)]


def primary_cyclic_class_reps(G: GroupLike) -> list[SubgroupRef]:
    sub = _as_subgroup(G)
    parent = sub.parent
    sets = [H.members for H in primary_cyclic_subgroups(sub)]
    reps = _lattice.orbit_reps_under(parent, sets, sub.members)
    return [SubgroupRef(parent, s) for s in reps]


def primary_subgroup_class_reps(G: GroupLike) -> list[SubgroupRef]:
    """Non-trivial prime-power-order subgroups up to conjugacy.

    Every p-subgroup is conjugate into a fixed Sylow p-subgroup, so the
    Sylow sub-lattices cover everything; this stays feasible at order 864
    where the full lattice does not.
    """
    sub = _as_subgroup(G)
    parent = sub.parent
    sets = []
    for p in sorted(prime_divisors(sub)):
        syl = sylow_subgroup(sub, p)
        sets.extend(s for s in _lattice.subgroup_sets(syl) if len(s) > 1)
    reps = _lattice.orbit_reps_under(parent, sets, sub.members)
    return [SubgroupRef(parent, s) for s in reps]


def subgroup_class_reps(G: GroupLike) -> list[SubgroupRef]:
    """One subgroup per conjugacy class, the canonically least, in canonical order."""
    sub = _as_subgroup(G)
    return [SubgroupRef(sub.parent, s) for s in _lattice.class_reps(sub)]


def carter_subgroups(G: GroupLike) -> list[SubgroupRef]:
    """All nilpotent self-normalizing subgroups (may be empty): every member
    of each conjugacy class whose least member is one."""
    sub = _as_subgroup(G)
    parent = sub.parent
    sets = _lattice.subgroup_sets(sub)
    out: list[frozenset[int]] = []
    for rep, orbit in _lattice.conjugacy_orbits(parent, sets, sub.members):
        H = SubgroupRef(parent, rep)
        if is_nilpotent(H) and is_self_normalizing(sub, H):
            out.extend(orbit)
    return [SubgroupRef(parent, s) for s in _lattice.canonical(out)]


def is_ef_group(G: GroupLike, F: Formation) -> bool:
    """G outside F whose every non-trivial subgroup is F-subnormal or F-abnormal."""
    sub = _as_subgroup(G)
    return not F.contains(sub) and all(
        H.order == 1 or is_f_subnormal(sub, H, F) or is_f_abnormal(sub, H, F)
        for H in subgroup_class_reps(sub)
    )


# ---------------------------------------------------------------------------
# verdicts


def _equivalent(values: list[bool]) -> Optional[bool]:
    """Whether the statements agree; None (nothing decided) for fewer than two."""
    if len(values) < 2:
        return None
    return all(v == values[0] for v in values)


@dataclass
class TheoremVerdict:
    theorem: str
    group: str
    order: int
    formation: str
    hypothesis_ok: bool
    hypothesis_status: str
    statements: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    # the verdict on the decided statements; None decides nothing (a skip)
    rule: Callable[[list[bool]], Optional[bool]] = _equivalent

    def to_check_result(self) -> reports.CheckResult:
        values = list(self.statements.values())
        decided = self.rule(values) if self.hypothesis_ok and values else None
        if decided is None:
            status = reports.SKIP
        else:
            status = reports.PASS if decided else reports.FAIL
        details = {
            "group": self.group,
            "order": self.order,
            "hypothesis": self.hypothesis_status,
            "statements": dict(sorted(self.statements.items())),
        }
        details.update(self.details)
        return reports.CheckResult(self.theorem, status, details, self.witnesses)


def _label(G: GroupLike) -> str:
    sub = _as_subgroup(G)
    if sub.is_whole() and sub.parent.name:
        return sub.parent.name
    return f"order{sub.order}"


def _not_applicable(theorem: str, sub: SubgroupRef, F: Formation, reason: str) -> TheoremVerdict:
    return TheoremVerdict(
        theorem, _label(sub), sub.order, F.name, False, f"hypothesis violated: {reason}"
    )


T = TypeVar("T")
_OVER_BUDGET = "all-subgroup quantifier exceeds the lattice budget"


def _unless_over_budget(
    details: dict, key: str, quantifier: Callable[[], T], reason: str = _OVER_BUDGET
) -> Optional[T]:
    """``quantifier()``, a statement over all subgroups; None, with ``reason``
    recorded as ``details[key]``, when ``lattice`` refuses one of its
    enumerations for the lattice budget."""
    try:
        return quantifier()
    except _lattice.LatticeBudgetError:
        details[key] = reason
        return None


def _holds_for_all(
    verdict: TheoremVerdict,
    subgroups: Iterable[SubgroupRef],
    tests: dict[str, Callable[[SubgroupRef], bool]],
) -> dict[str, bool]:
    """Whether each statement's test is true of every subgroup, tried in order
    against the statements that still hold. A statement's first failing
    subgroup is recorded as its witness, in the order the failures are found;
    the scan stops once every statement has failed."""
    holds = dict.fromkeys(tests, True)
    for H in subgroups:
        for statement, test in tests.items():
            if holds[statement] and not test(H):
                holds[statement] = False
                verdict.witnesses.append(
                    {"statement": statement, "subgroup": reports.subgroup_witness(H)}
                )
        if not any(holds.values()):
            break
    return holds


# the hypotheses of Theorem 1, which Corollaries 1 and 2 inherit
_THEOREM1_FLAGS = ("subgroup_closed", "saturated", "superradical", "contains_nilpotents")
_THEOREM2_FLAGS = ("subgroup_closed", "saturated", "contains_nilpotents")


def _hypothesis_status(F: Formation, needed: Sequence[str]) -> str:
    missing = [flag for flag in needed if not getattr(F, flag)]
    if not missing:
        return "flags satisfied"
    return "empirical only: formation not flagged " + ", ".join(sorted(missing))


def _cyclic_sylow_complements(
    sub: SubgroupRef, D: SubgroupRef
) -> Iterator[tuple[int, int, SubgroupRef]]:
    """``(x, p, <x>)`` in ascending order of x, for each <x> that is a
    self-normalizing (Carter) Sylow p-subgroup of ``sub`` complementing D."""
    parent = sub.parent
    orders = parent.element_orders()
    n = sub.order
    for x in sub.sorted_members:
        o = orders[x]
        if o <= 1 or D.order * o != n or not is_prime_power(o):
            continue
        p = prime_factorization(o)[0][0]
        if o != p_part(n, p):
            continue
        X = SubgroupRef(parent, parent.closure([x]))
        if D.members & X.members == {parent.identity} and is_self_normalizing(sub, X):
            yield x, p, X


def _split_witness(sub: SubgroupRef, D: SubgroupRef, F: Formation) -> Optional[dict]:
    """Theorem 1 (3) and Corollary 2 (3): the least x with <x> a
    self-normalizing Sylow subgroup complementing D and D<x^p> in F."""
    parent = sub.parent
    for x, p, X in _cyclic_sylow_complements(sub, D):
        xp = x
        for _ in range(p - 1):
            xp = parent._table[xp][x]
        tail = SubgroupRef(parent, parent.join(D.members, [xp]))
        if F.contains(tail):
            return {
                "x_index": x,
                "x_order": X.order,
                "prime": p,
                "complement_order": X.order,
                "tail_order": tail.order,
            }
    return None


def check_theorem1(G: GroupLike, F: Formation) -> TheoremVerdict:
    """Equivalence of the three structure statements for primary cyclic subgroups.

    S1: every primary cyclic subgroup F-subnormal or self-normalizing.
    S2: every non-abnormal subgroup F-subnormal and in F.
    S3: G = G' x| <x> with <x> a self-normalizing Sylow subgroup, G' the
        nilpotent residual, and G'<x^p> in F.

    S2 is skipped (``s2_skipped``) when G is above the lattice budget, and
    the primary-subgroup details (``primary_skipped``) when a Sylow subgroup is.
    """
    sub = _as_subgroup(G)
    if F.contains(sub):
        return _not_applicable("theorem1", sub, F, f"group lies in {F.name}")
    if not is_soluble(sub):
        return _not_applicable("theorem1", sub, F, "group is insoluble")
    verdict = TheoremVerdict("theorem1", _label(sub), sub.order, F.name, True,
                             _hypothesis_status(F, _THEOREM1_FLAGS), rule=_equivalent)

    verdict.statements.update(_holds_for_all(verdict, primary_cyclic_class_reps(sub), {
        "S1": lambda C: is_f_subnormal(sub, C, F) or is_self_normalizing(sub, C),
    }))
    verdict.statements.update(_unless_over_budget(verdict.details, "s2_skipped", lambda: (
        _holds_for_all(verdict, subgroup_class_reps(sub), {
            "S2": lambda H: is_abnormal(sub, H) or (is_f_subnormal(sub, H, F) and F.contains(H)),
        })
    )) or {})

    d = derived_subgroup(sub)
    split = d.members == residual(NILPOTENT, sub).members
    verdict.details["derived_equals_nilpotent_residual"] = split
    witness = _split_witness(sub, d, F) if split else None
    verdict.statements["S3"] = witness is not None
    if witness:
        verdict.details["s3_witness"] = witness

    verdict.details.update(_unless_over_budget(verdict.details, "primary_skipped", lambda: (
        _holds_for_all(verdict, primary_subgroup_class_reps(sub), {
            "primary_sn_or_selfnormalizing":
                lambda P: is_f_subnormal(sub, P, F) or is_self_normalizing(sub, P),
            "primary_sn_or_abnormal": lambda P: is_f_subnormal(sub, P, F) or is_f_abnormal(sub, P, F),
        })
    ), "Sylow-subgroup enumeration exceeds the lattice budget") or {})
    return verdict


def check_theorem2(G: GroupLike, F: Formation) -> TheoremVerdict:
    """Biconditional: primary cyclic subgroups absolutely F-subnormal or
    self-normalizing iff G is non-nilpotent with all proper subgroups primary
    and G = G' x| <x>, G' elementary abelian p-group, <x> a maximal Carter
    subgroup of prime order q != p. The right side is skipped
    (``right_skipped``) when G is above the lattice budget."""
    sub = _as_subgroup(G)
    if F.contains(sub):
        return _not_applicable("theorem2", sub, F, f"group lies in {F.name}")
    verdict = TheoremVerdict("theorem2", _label(sub), sub.order, F.name, True,
                             _hypothesis_status(F, _THEOREM2_FLAGS), rule=_equivalent)

    left = _holds_for_all(verdict, primary_cyclic_class_reps(sub), {
        "left": lambda C: is_absolutely_f_subnormal(sub, C, F) or is_self_normalizing(sub, C),
    })["left"]
    verdict.statements["left"] = left
    failure = _unless_over_budget(
        verdict.details, "right_skipped",
        lambda: _theorem2_right_failure(sub, subgroup_class_reps(sub), verdict),
    )
    if failure is not None:
        verdict.statements["right"] = not failure
        if failure:
            verdict.details["right_failure"] = failure
    verdict.details["left_side_soluble"] = is_soluble(sub) if left else None
    return verdict


def _theorem2_right_failure(
    sub: SubgroupRef, reps: list[SubgroupRef], verdict: TheoremVerdict
) -> str:
    """Why theorem 2's right side fails, given the subgroup class reps; "" when it holds."""
    if is_nilpotent(sub):
        return "nilpotent"
    if not _holds_for_all(verdict, reps, {
        "right": lambda H: H.order == sub.order or is_primary_order(H.order),
    })["right"]:
        return "non-primary proper subgroup"
    d = derived_subgroup(sub)
    if is_elementary_abelian(d) and d.order > 1:
        p = prime_factorization(d.order)[0][0]
        for x, q, X in _cyclic_sylow_complements(sub, d):
            if X.order == q and q != p and _lattice.is_maximal(sub, X):
                verdict.details["right_witness"] = {"p": p, "q": q, "derived_order": d.order}
                return ""
    return "no maximal prime-order Carter complement"


def check_corollary1(G: GroupLike, F: Formation) -> TheoremVerdict:
    """Order-divisibility split under Theorem 1 statement (1): proper A is
    abnormal when |Carter| divides |A|, else F-subnormal and in F; both must
    hold. Nothing is decided (``carter_skipped``) when G is above the lattice
    budget."""
    sub = _as_subgroup(G)
    if F.contains(sub) or not is_soluble(sub):
        return _not_applicable("corollary1", sub, F, "needs a soluble group outside the formation")
    s1 = all(
        is_f_subnormal(sub, C, F) or is_self_normalizing(sub, C)
        for C in primary_cyclic_class_reps(sub)
    )
    if not s1:
        return _not_applicable("corollary1", sub, F, "Theorem 1 statement (1) fails")
    verdict = TheoremVerdict("corollary1", _label(sub), sub.order, F.name, True,
                             _hypothesis_status(F, _THEOREM1_FLAGS), rule=all)
    carters = _unless_over_budget(verdict.details, "carter_skipped", lambda: carter_subgroups(sub))
    if carters is None:
        return verdict
    if not carters:
        return _not_applicable("corollary1", sub, F, "no Carter subgroup found")
    k = carters[0].order
    verdict.details["carter_order"] = k
    verdict.statements = {"divisible_implies_abnormal": True, "otherwise_subnormal_in_F": True}
    for A in subgroup_class_reps(sub):  # every failing A is a witness
        if A.order == sub.order:
            continue
        if A.order % k == 0:
            statement, ok = "divisible_implies_abnormal", is_abnormal(sub, A)
        else:
            statement, ok = "otherwise_subnormal_in_F", is_f_subnormal(sub, A, F) and F.contains(A)
        if not ok:
            verdict.statements[statement] = False
            verdict.witnesses.append(
                {"statement": statement, "subgroup": reports.subgroup_witness(A)}
            )
    return verdict


def check_corollary2(G: GroupLike, F: Formation) -> TheoremVerdict:
    """Three-way equivalence: primary cyclics F-subnormal-or-F-abnormal,
    the E_F property, and the split shape with G' the F-residual.

    The E_F property (C2) is skipped (``c2_skipped``) when G is above the
    lattice budget.
    """
    sub = _as_subgroup(G)
    if F.contains(sub) or not is_soluble(sub):
        return _not_applicable("corollary2", sub, F, "needs a soluble group outside the formation")
    verdict = TheoremVerdict("corollary2", _label(sub), sub.order, F.name, True,
                             _hypothesis_status(F, _THEOREM1_FLAGS), rule=_equivalent)

    verdict.statements["C1_primary_cyclic_sn_or_abn"] = _holds_for_all(
        verdict, primary_cyclic_class_reps(sub), {
            "C1": lambda C: is_f_subnormal(sub, C, F) or is_f_abnormal(sub, C, F),
        },
    )["C1"]
    c2 = _unless_over_budget(verdict.details, "c2_skipped", lambda: is_ef_group(sub, F))
    if c2 is not None:
        verdict.statements["C2_ef_group"] = c2
    d = derived_subgroup(sub)
    verdict.statements["C3_split_shape"] = (
        d.members == residual(F, sub).members and _split_witness(sub, d, F) is not None
    )
    return verdict


# ---------------------------------------------------------------------------
# lemma batteries


def _violation(lemma: str, group: str, detail: dict) -> dict:
    return {"lemma": lemma, "group": group, **detail}


def _upward_violations(
    lemma: str, label: str, sub: SubgroupRef, A: SubgroupRef, closed: Callable[[SubgroupRef], bool]
) -> list[dict]:
    """Lemmas 2.1 and 3.2: every B in [A, G] passes ``closed`` and is
    self-normalizing. A is self-normalizing when the lemma holds, so each B
    is its own N(A)-class and taking classes would save nothing."""
    out = []
    for B in _lattice.interval(sub, A):
        if not closed(B):
            out.append(_violation(lemma, label, {"A": A.order, "B": B.order, "kind": "abnormal"}))
        if not is_self_normalizing(sub, B):
            out.append(_violation(lemma, label, {"A": A.order, "B": B.order, "kind": "selfnorm"}))
    return out


def _has_certified_chain(G: SubgroupRef, L: SubgroupRef, F: Formation) -> bool:
    """Whether L has a witness chain in G whose every step quotient passes F's
    membership predicate on its built image."""
    try:
        witness = f_subnormal_witness(G, L, F)
    except WitnessChainError:
        return False
    return witness is not None and all(step.quotient_in_formation for step in witness.steps)


def _bitsets(sets: list[frozenset[int]], order: int) -> tuple[Callable, Callable]:
    """For a subgroup list ``sets`` of a group on range(order): ``above(s)``,
    bit i set when sets[i] contains s (the AND over s of each element's
    bitset of the sets containing it), and ``mask(s)``, bit x set for x in s."""
    containing = [0] * order
    for i, s in enumerate(sets):
        for x in s:
            containing[x] |= 1 << i
    return (
        lambda s: reduce(and_, map(containing.__getitem__, s)),
        lambda s: reduce(or_, map((1).__lshift__, s), 0),
    )


def check_lemma1(G: GroupLike, F: Formation) -> list[dict]:
    """Properties (1)-(6) of F-subnormal subgroups. (3) and (5) build no set
    per pair: (N, H) is keyed by the position of HN, read off ``_bitsets``,
    and (H, K) by K and the member bitset of H & K."""
    sub = _as_subgroup(G)
    parent = sub.parent
    label = _label(sub)
    violations: list[dict] = []
    reps = subgroup_class_reps(sub)
    fsn_reps = [H for H in reps if is_f_subnormal(sub, H, F)]
    normals = _lattice.normal_subgroups(sub)

    # (1) transitivity
    for H in fsn_reps:
        if H.order == sub.order:
            continue
        for K in subgroup_class_reps(H):
            if is_f_subnormal(H, K, F) and not is_f_subnormal(sub, K, F):
                violations.append(
                    _violation("1.1", label, {"H": H.order, "K": K.order})
                )
    # (2) lifting from quotients: by the correspondence theorem the G-classes
    # of subgroups K >= N are the classes of subgroups of G/N, so K/N runs
    # over one subgroup per class of G/N without listing G/N's subgroups
    for N in normals:
        if N.order == 1 or N.order == sub.order:
            continue
        hom = quotient(sub, N)
        for K in reps:
            if not N.members <= K.members:
                continue
            if is_f_subnormal(hom.image, hom.map_subgroup(K), F) and not is_f_subnormal(sub, K, F):
                violations.append(
                    _violation("1.2", label, {"N": N.order, "K": K.order})
                )
    # (3) pushing to quotients: H maps to HN/N, and HN is the least set above
    # H and N; each verdict is decided once per (image, HN/N), since
    # quotients with the same coset action share their image
    sets = _lattice.subgroup_sets(sub)
    above, mask = _bitsets(sets, parent.order)
    above_fsn = [above(H.members) for H in fsn_reps]
    pushed: dict[tuple[FiniteGroup, frozenset[int]], bool] = {}
    for N in normals:
        if N.order == sub.order:
            continue
        hom = quotient(sub, N)
        above_n = above(N.members)
        by_product: dict[int, bool] = {}  # HN's position -> the verdict on HN/N
        for H, above_h in zip(fsn_reps, above_fsn):
            both = above_h & above_n
            j = (both & -both).bit_length() - 1
            if j not in by_product:
                key = (hom.image, hom.map_members(sets[j]))
                if key not in pushed:
                    pushed[key] = is_f_subnormal(hom.image, SubgroupRef(*key), F)
                by_product[j] = pushed[key]
            if not by_product[j]:
                violations.append(
                    _violation("1.3", label, {"N": N.order, "H": H.order})
                )
    if F.subgroup_closed:
        # (4) everything above the residual, each L by a certified chain (step
        # quotients built and tested): for a flagged F the descent behind
        # is_f_subnormal assumes (4) and (5), so its verdicts cannot check them
        res = residual(F, sub)
        for L in _lattice.interval(sub, res):
            if not _has_certified_chain(sub, L, F):
                violations.append(_violation("1.4", label, {"L": L.order}))
        # (5) intersections into arbitrary subgroups, each verdict decided
        # once per (K, H & K); the descent assumes (5), so the independent
        # evidence for it is criterion 5's oracle routes, not this check
        masks = dict(zip(sets, map(mask, sets)))
        met: dict[tuple[frozenset[int], int], bool] = {}
        for H in fsn_reps:
            norm_h = normalizer(sub, H).members
            mask_h = masks[H.members]
            for K_set in _lattice.class_reps(sub, norm_h):
                key = (K_set, mask_h & masks[K_set])
                if key not in met:
                    meet = SubgroupRef(parent, H.members & K_set)
                    met[key] = is_f_subnormal(SubgroupRef(parent, K_set), meet, F)
                if not met[key]:
                    violations.append(
                        _violation("1.5", label, {"H": H.order, "K": len(K_set)})
                    )
        # (6) descending inside F-members
        for H in fsn_reps:
            if not F.contains(H):
                continue
            for K in subgroup_class_reps(H):
                if not is_f_subnormal(sub, K, F):
                    violations.append(
                        _violation("1.6", label, {"H": H.order, "K": K.order})
                    )
    return violations


def check_lemma2(G: GroupLike, F: Formation) -> Optional[list[dict]]:
    """F-abnormal subgroups: upward closure, self-normalization, abnormality; None = gated."""
    sub = _as_subgroup(G)
    label = _label(sub)
    if not (F.subgroup_closed and _contains_all_prime_orders(F, sub)):
        return None
    violations = []
    soluble = is_soluble(sub)
    for A in subgroup_class_reps(sub):
        if not is_f_abnormal(sub, A, F):
            continue
        violations += _upward_violations("2.1", label, sub, A, lambda B: is_f_abnormal(sub, B, F))
        if soluble and not is_abnormal(sub, A):
            violations.append(_violation("2.2", label, {"A": A.order}))
    return violations


def check_lemma3(G: GroupLike) -> list[dict]:
    """Abnormal subgroups: Sylow normalizers, upward closure, quotients."""
    sub = _as_subgroup(G)
    label = _label(sub)
    violations = []
    for p in sorted(prime_divisors(sub)):
        N = normalizer(sub, sylow_subgroup(sub, p))
        if not is_abnormal(sub, N):
            violations.append(_violation("3.1", label, {"p": p, "normalizer": N.order}))
    normals = _lattice.normal_subgroups(sub)
    for A in subgroup_class_reps(sub):
        if not is_abnormal(sub, A):
            continue
        if not is_self_normalizing(sub, A):
            violations.append(_violation("3.abn-selfnorm", label, {"A": A.order}))
        violations += _upward_violations("3.2", label, sub, A, lambda B: is_abnormal(sub, B))
        for N in normals:
            if N.order == sub.order:
                continue
            hom = quotient(sub, N)
            if not is_abnormal(hom.image, hom.map_subgroup(A)):
                violations.append(_violation("3.3", label, {"A": A.order, "N": N.order}))
    return violations


def check_lemma4(G: GroupLike, F: Formation) -> Optional[list[dict]]:
    """All maximal subgroups F-subnormal forces membership; None = gated out."""
    sub = _as_subgroup(G)
    label = _label(sub)
    if not (F.subgroup_closed and F.saturated):
        return None
    if sub.order == 1:
        return []
    maximal_class_reps = [M for M in subgroup_class_reps(sub) if _lattice.is_maximal(sub, M)]
    if all(is_f_subnormal(sub, M, F) for M in maximal_class_reps):
        if not F.contains(sub):
            return [_violation("4", label, {"maximals": len(maximal_class_reps)})]
    return []


def check_lemma5(G: GroupLike, F: Formation) -> Optional[list[dict]]:
    """Soluble G in F iff every primary cyclic subgroup F-subnormal; None = gated."""
    sub = _as_subgroup(G)
    label = _label(sub)
    if not (
        F.subgroup_closed and F.saturated and F.superradical and F.contains_nilpotents
    ):
        return None
    if not is_soluble(sub):
        return None
    lhs = F.contains(sub)
    rhs = all(is_f_subnormal(sub, C, F) for C in primary_cyclic_class_reps(sub))
    if lhs != rhs:
        return [_violation("5", label, {"in_formation": lhs, "all_primary_cyclic_sn": rhs})]
    return []


def check_lemma6(G: GroupLike, F: Formation) -> Optional[list[dict]]:
    """G in F iff every primary cyclic subgroup absolutely F-subnormal; None = gated."""
    sub = _as_subgroup(G)
    label = _label(sub)
    if not (F.subgroup_closed and F.saturated and F.contains_nilpotents):
        return None
    lhs = F.contains(sub)
    rhs = all(
        is_absolutely_f_subnormal(sub, C, F) for C in primary_cyclic_class_reps(sub)
    )
    if lhs != rhs:
        return [_violation("6", label, {"in_formation": lhs, "all_primary_cyclic_abs_sn": rhs})]
    return []


# looked up at call time, so a rebound module attribute is the one called
_LEMMA_RUNNERS = {
    "1": lambda G, F: check_lemma1(G, F),
    "2": lambda G, F: check_lemma2(G, F),
    "3": lambda G, F: check_lemma3(G),
    "4": lambda G, F: check_lemma4(G, F),
    "5": lambda G, F: check_lemma5(G, F),
    "6": lambda G, F: check_lemma6(G, F),
}


def check_lemma_suite(
    groups: Iterable[FiniteGroup],
    F: Formation,
    lemmas: Sequence[str] = ("1", "2", "3", "4", "5", "6"),
) -> reports.VerdictReport:
    """Each lemma on each group: ``skip`` when its hypothesis fails or the
    lattice budget refuses its all-subgroup quantifier, else fail or pass."""
    report = reports.VerdictReport(kind="lemma-suite", formation=F.name)
    for G in groups:
        for lemma in lemmas:
            details = {"group": G.name or f"order{G.order}"}
            result = _unless_over_budget(details, "reason", lambda: _LEMMA_RUNNERS[lemma](G, F))
            if result is None:
                details.setdefault("reason", "hypothesis flags not satisfied")
                report.add(f"lemma{lemma}", reports.SKIP, details)
            elif result:
                report.add(f"lemma{lemma}", reports.FAIL, details, result)
            else:
                report.add(f"lemma{lemma}", reports.PASS, details)
    return report


# ---------------------------------------------------------------------------
# the order-864 worked example


def verify_paper_example(G: FiniteGroup) -> reports.VerdictReport:
    """Machine-check of the order-864 worked example for the
    nilpotent-derived-subgroup formation. Checks run in the documented order;
    failures are report content, not exceptions."""
    if G.order != 864:
        raise GroupError(f"example group must have order 864, got {G.order}")
    F = NILPOTENT_DERIVED
    report = reports.VerdictReport(
        kind="example864", subject=reports.group_descriptor(G), formation=F.name
    )

    def check(name: str, ok: bool, details: Optional[dict] = None, witnesses=None) -> None:
        report.add(name, reports.PASS if ok else reports.FAIL, details, witnesses)

    syl3 = sylow_subgroup(G, 3)
    check("sylow3-elementary-abelian-27", syl3.order == 27 and is_elementary_abelian(syl3),
          {"order": syl3.order})
    check("sylow3-f-subnormal", is_f_subnormal(G, syl3, F))

    syl2 = sylow_subgroup(G, 2)
    check("sylow2-selfnormalizing-32", syl2.order == 32 and is_self_normalizing(G, syl2),
          {"order": syl2.order})
    check("sylow2-not-f-subnormal", not is_f_subnormal(G, syl2, F))
    check("sylow2-not-f-abnormal", not is_f_abnormal(G, syl2, F))

    proper = [SubgroupRef(G, s) for s in _lattice.subgroup_sets(syl2) if len(s) < syl2.order]
    bad = [ref for ref in proper if not is_f_subnormal(G, ref, F)]
    check("sylow2-proper-subgroups-f-subnormal", not bad,
          {"proper_subgroups": len(proper), "not_subnormal": len(bad)},
          [reports.subgroup_witness(b) for b in bad[:4]])

    f_res = residual(F, G)
    fit = fitting(G)
    check("f-residual-36", f_res.order == 36, {"order": f_res.order})
    check("f-residual-equals-fitting", f_res.members == fit.members, {"fitting_order": fit.order})
    nil_res = residual(NILPOTENT, G)
    check("nilpotent-residual-108", nil_res.order == 108, {"order": nil_res.order})
    d = derived_subgroup(G)
    check("derived-216", d.order == 216, {"order": d.order})
    check("residual-chain-strict", f_res.members < nil_res.members < d.members)
    return report
