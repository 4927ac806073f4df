"""Subgroup enumeration: subgroup sets, conjugacy orbits, normal subgroups,
intervals, and the full lattice of the ``lattice`` command.

All subgroups of a group come from cyclic extension when it is soluble and
from the interval [1, X] of minimal overgroups otherwise, in the order of
``canonical``. ``subgroup_sets``, ``class_reps`` (cached per group and acting
subgroup) and ``all_subgroups`` refuse a (sub)group above the lattice budget
in force (``permgroup.Budgets``), even when cached; no other module reads
that budget. ``is_maximal`` is the one maximality test, and the full lattice
(``all_subgroups``) serves only the ``lattice`` command and its cache.

One route rule serves what is read off a group's subgroups. Within the
lattice budget, a proper subgroup's subgroups, intervals and minimal
overgroups are filters of the parent's one cached list (``_parent_list``),
and conjugation permutes the list's positions (``_IndexAction``): orbits are
integer orbits, and the normal subgroups of a soluble parent's subgroups are
the positions their generators fix. Above it, a proper subgroup is
enumerated on its own, an interval is walked up by minimal overgroups
(``_interval_by_walk``), minimal overgroups take one join per double coset,
and orbits follow member sets (``_orbit``), as cyclic extension always does.
An insoluble parent's normal subgroups are products of normal closures of
element classes, since its list costs far more. ``walk_up`` is the one walk
up the lattice (intervals, products of class closures, F-abnormality). The
deadline is checked once per subgroup extended or walked, per orbit followed,
and per minimal-overgroup or normal-subgroup list read off the parent's list.
``interval`` and ``minimal_overgroups`` check their subgroup with
``permgroup._check_contained``, as every (G, H) function does.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Collection, Iterable, Iterator, Optional, TypeVar

from .permgroup import (
    FiniteGroup,
    GroupBudgetError,
    GroupLike,
    SubgroupRef,
    _as_subgroup,
    _check_contained,
    _gather,
    check_deadline,
    current_budgets,
    is_soluble,
    memo,
    prime_factorization,
)

T = TypeVar("T")  # what ``walk_up`` takes: member sets or SubgroupRefs


class LatticeBudgetError(GroupBudgetError):
    """Full-lattice enumeration was requested beyond the configured budget."""


def canonical(sets: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """Member sets in canonical order: by size, then by sorted members."""
    return sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))


def walk_up(H: T, overs: Callable[[T], Iterable[T]]) -> Iterator[T]:
    """H, then each subgroup reached through ``overs``, once and depth first.
    Lazy: a caller that stops early asks ``overs`` no more. Checks the
    deadline once per subgroup it takes."""
    seen, work = {H}, [H]
    while work:
        check_deadline()
        K = work.pop()
        yield K
        for L in overs(K):
            if L not in seen:
                seen.add(L)
                work.append(L)


def subgroup_sets(G: GroupLike) -> list[frozenset[int]]:
    """All subgroups of the (sub)group as member sets, canonically sorted.

    A proper subgroup of a parent within the lattice budget reads its sets
    off the parent's list. Otherwise there are two routes, chosen by
    ``is_soluble``; both return the same list. A soluble group is enumerated
    by cyclic extension (``_cyclic_extension``), an insoluble one as the
    interval [1, X] of iterated minimal overgroups (``_interval_by_walk``),
    which reaches perfect subgroups too.
    """
    sub = _as_subgroup(G)
    _check_lattice_size(sub)
    return memo(sub.parent, "sub_sets", sub.members, _subgroup_sets, sub)


def _check_lattice_size(sub: SubgroupRef) -> None:
    budget = current_budgets().lattice
    if sub.order > budget:
        raise LatticeBudgetError(
            f"subgroup enumeration for order {sub.order} exceeds lattice budget {budget}"
        )


def _parent_list(parent: FiniteGroup) -> Optional[list[frozenset[int]]]:
    """The parent's own subgroup list when the parent is within the lattice
    budget in force, else None, and the caller takes its route that reads
    no list."""
    if parent.order > current_budgets().lattice:
        return None
    return subgroup_sets(parent)


def _subgroup_sets(sub: SubgroupRef) -> list[frozenset[int]]:
    if sub.order < sub.parent.order:
        whole = _parent_list(sub.parent)
        if whole is not None:
            return [s for s in whole if s <= sub.members]
    return _enumerate(sub)


def _enumerate(sub: SubgroupRef) -> list[frozenset[int]]:
    """The subgroups of ``sub`` from its own elements, not from a list."""
    if is_soluble(sub):
        return _cyclic_extension(sub)
    return _interval_by_walk(sub, frozenset((sub.parent.identity,)))


def _cyclic_extension(sub: SubgroupRef) -> list[frozenset[int]]:
    """Neubueser's cyclic extension up to conjugacy; complete for soluble
    groups only.

    Every non-trivial subgroup T of a soluble group has a normal subgroup V
    of prime index p, and T = <V, x> for any x in T outside V. The p-part of
    x generates T/V as well, so x can be taken of order p^a with x^p in V.
    Walking up from the trivial subgroup, each queued U is extended by every
    such x: ``_prime_index_extensions`` tries only the x whose p-th power
    lies in U. A new extension S brings its whole conjugacy orbit under
    ``sub`` into the found set, and only S is queued. That is enough: by
    induction V = U^g for a queued U, so the conjugate T^(g^-1) is an
    extension of U, and T lies in its orbit. Generators are kept with the
    queue rather than in the ``gens`` memo, which would keep one entry per
    subgroup.
    """
    parent = sub.parent
    t = parent._table
    orders = parent.element_orders()
    roots: dict[int, list[int]] = {}  # y -> every x of order p^a with x^p = y
    for x in sub.sorted_members:
        factors = prime_factorization(orders[x])
        if len(factors) == 1:
            y = x
            for _ in range(factors[0][0] - 1):
                y = t[y][x]
            roots.setdefault(y, []).append(x)
    gens = parent.greedy_generators(sub.members)
    maps = _conjugation_maps(parent, [g for g in gens if any(t[g][h] != t[h][g] for h in gens)])
    trivial = frozenset((parent.identity,))
    found = {trivial}
    queue: list[tuple[frozenset[int], tuple[int, ...]]] = [(trivial, ())]
    for U, u_gens in queue:  # the loop also visits the extensions it appends
        check_deadline()
        for S, x in _prime_index_extensions(parent, U, u_gens, roots):
            if S not in found:  # found is a union of whole orbits
                found |= _orbit(S, maps)
                queue.append((S, u_gens + (x,)))
    return canonical(found)


def _prime_index_extensions(
    parent: FiniteGroup,
    U: frozenset[int],
    u_gens: tuple[int, ...],
    roots: dict[int, list[int]],
) -> Iterator[tuple[frozenset[int], int]]:
    """Each <U, x> with |<U, x> : U| prime, once, with its x.

    For x of order p^a outside U that normalizes U (generated by ``u_gens``),
    the index is prime exactly when x^p lies in U, so only ``roots[y]`` for
    y in U are tried. Since x normalizes U, Ux^i = x^iU, and the extension is
    the union of the left cosets x^iU for i < p, each one gather of a table
    row. Any other element of an extension outside U gives the same
    extension, so its elements are marked covered.
    """
    t = parent._table
    inv = parent._inv
    coset = _gather(sorted(U))
    covered = set(U)
    for y in U:
        for x in roots.get(y, ()):
            if x in covered:
                continue
            row = t[inv[x]]
            if not all(t[row[h]][x] in U for h in u_gens):
                continue  # x does not normalize U
            S = set(U)
            power = x
            while power not in U:
                S.update(coset(t[power]))
                power = t[power][x]
            covered |= S
            yield frozenset(S), x


@dataclass(frozen=True)
class SubgroupLattice:
    """Complete subgroup lattice with maximality edges and conjugacy classes."""

    parent: FiniteGroup
    top: frozenset[int]
    nodes: tuple[SubgroupRef, ...]
    edges: tuple[tuple[int, int], ...]  # (i, j): node i is maximal in node j
    conjugacy_classes: tuple[tuple[int, ...], ...]


def all_subgroups(G: GroupLike) -> SubgroupLattice:
    sub = _as_subgroup(G)
    _check_lattice_size(sub)  # a cached or loaded lattice binds too
    return memo(sub.parent, "lattice", sub.members, _all_subgroups, sub)


def _all_subgroups(sub: SubgroupRef) -> SubgroupLattice:
    parent = sub.parent
    sets = subgroup_sets(sub)
    nodes = tuple(SubgroupRef(parent, s) for s in sets)
    by_members = {ref.members: i for i, ref in enumerate(nodes)}
    edges: list[tuple[int, int]] = []
    for i, ref in enumerate(nodes):
        for over in minimal_overgroups(sub, ref):
            edges.append((i, by_members[over.members]))
    classes = tuple(
        tuple(sorted(by_members[s] for s in orbit))
        for _, orbit in conjugacy_orbits(parent, sets, sub.members)
    )
    return SubgroupLattice(
        parent=parent,
        top=sub.members,
        nodes=nodes,
        edges=tuple(sorted(edges)),
        conjugacy_classes=classes,
    )


def conjugacy_orbits(
    parent: FiniteGroup, sets: Collection[frozenset[int]], under: frozenset[int]
) -> Iterator[tuple[frozenset[int], Collection[frozenset[int]]]]:
    """Each orbit of the subgroup sets under conjugation by ``under``, with
    its canonically least member of ``sets``, in canonical order of those.

    Orbits are followed in full, as positions of the list of a parent within
    the lattice budget (``_IndexAction``) when every set is on it, else as
    member sets; so sets not closed under conjugation still lose every
    conjugate, and an orbit may then hold sets that are not in ``sets``.
    """
    gens = parent.greedy_generators(under)
    action = _index_action(parent)
    starts = action and [action.index.get(s) for s in sets]
    if starts and None not in starts:
        perms = [action.perm(g) for g in gens]
        for orbit in _point_orbits(starts, perms, len(action.sets)):
            yield action.sets[orbit[0]], [action.sets[i] for i in orbit]
        return
    maps = _conjugation_maps(parent, gens)
    remaining = set(sets)
    for s in canonical(remaining):
        if s in remaining:
            orbit = _orbit(s, maps)
            remaining -= orbit
            yield s, orbit


def _point_orbits(starts: Iterable[int], perms: list, size: int) -> Iterator[list[int]]:
    """The orbits under ``perms``, permutations of range(size), of the least
    start each has not yet covered, that start first; checks the deadline
    once per orbit."""
    seen = bytearray(size)
    for i in sorted(starts):
        if not seen[i]:
            check_deadline()
            seen[i] = 1
            orbit = [i]
            for j in orbit:  # the loop also visits the points it appends
                for p in perms:
                    k = p[j]
                    if not seen[k]:
                        seen[k] = 1
                        orbit.append(k)
            yield orbit


def _index_action(parent: FiniteGroup) -> Optional["_IndexAction"]:
    """The parent's ``_IndexAction`` within the lattice budget in force, else None."""
    whole = _parent_list(parent)
    return whole and memo(parent, "lattice_index", None, _IndexAction, parent, whole)


class _IndexAction:
    """Conjugation as permutations of the positions of the parent's subgroup
    list (Holt, Eick and O'Brien, Handbook of CGT, 2005, ch. 4). The parent's
    greedy generators map the list by hashing conjugate sets. Any other
    element gets its permutation when it acts, along a spanning tree of the
    Cayley graph as in ``extend_generator_map``: sets[i]^(x*g) =
    (sets[i]^x)^g, one gather per tree edge."""

    def __init__(self, parent: FiniteGroup, sets: list[frozenset[int]]):
        self.sets = sets
        self.index = {s: i for i, s in enumerate(sets)}
        self._table, self._gens = parent._table, parent.greedy_generators(parent.whole())
        self._perms = {parent.identity: tuple(range(len(sets)))}
        for g, m in zip(self._gens, _conjugation_maps(parent, self._gens)):
            self._perms[g] = tuple(self.index[frozenset(map(m.__getitem__, s))] for s in sets)
        self._step: dict[int, tuple[int, int]] = {}  # x*g -> (x, g), on first use

    def perm(self, x: int) -> tuple[int, ...]:
        """i -> the position of sets[i]^x; kept for x and the tree path to it."""
        if not self._step and x not in self._perms:
            step, reached = {}, list(self._perms)  # the identity and the generators
            for y in reached:  # breadth first: the loop also visits what it appends
                for g in self._gens:
                    z = self._table[y][g]
                    if z not in self._perms and z not in step:
                        step[z] = (y, g)
                        reached.append(z)
            self._step = step  # whole, for a concurrent reader
        path = []
        while x not in self._perms:
            path.append(x)
            x = self._step[x][0]
        p = self._perms[x]
        for y in reversed(path):
            p = self._perms[y] = _gather(p)(self._perms[self._step[y][1]])
        return p


def _conjugation_maps(parent: FiniteGroup, gens: Iterable[int]) -> list[tuple[int, ...]]:
    """For each g in ``gens``, x -> g^-1 x g over the parent's elements.

    Row g^-1 of the table is a[x] = g^-1 x, and y g = (g^-1 y^-1)^-1, so
    each map is three gathers of whole rows, done in C.
    """
    inv = parent._inv
    inverted = _gather(inv)
    maps = []
    for g in gens:
        a = parent._table[inv[g]]
        right = _gather(inverted(a))(inv)  # right[y] = y g
        maps.append(_gather(a)(right))
    return maps


def _orbit(s: frozenset[int], maps: list[tuple[int, ...]]) -> set[frozenset[int]]:
    """The orbit of the set s under the group the conjugation maps generate.

    Checks the deadline once per orbit.
    """
    check_deadline()
    orbit = {s}
    work = [s]
    while work:
        cur = work.pop()
        for m in maps:
            img = frozenset(map(m.__getitem__, cur))
            if img not in orbit:
                orbit.add(img)
                work.append(img)
    return orbit


def orbit_reps_under(
    parent: FiniteGroup, sets: Collection[frozenset[int]], under: frozenset[int]
) -> list[frozenset[int]]:
    """Orbit representatives (canonically least) of subgroup sets under conjugation."""
    return [rep for rep, _ in conjugacy_orbits(parent, sets, under)]


def class_reps(G: GroupLike, under: Optional[frozenset[int]] = None) -> list[frozenset[int]]:
    """The canonically least member of each class of subgroups of G under
    conjugation by ``under`` (default: G itself), in canonical order.

    Cached per (G, under): the checkers ask for the same classes again and
    again. The lattice budget binds on a cached result too.
    """
    sub = _as_subgroup(G)
    _check_lattice_size(sub)
    acting = sub.members if under is None else under
    return memo(sub.parent, "class_reps", (sub.members, acting), _class_reps, sub, acting)


def _class_reps(sub: SubgroupRef, under: frozenset[int]) -> list[frozenset[int]]:
    return orbit_reps_under(sub.parent, subgroup_sets(sub), under)


def normal_subgroups(G: GroupLike) -> list[SubgroupRef]:
    """All normal subgroups, in canonical order: for a soluble parent within
    the lattice budget, the sets of the subgroup's own list (a filter of the
    parent's) whose positions its generators' permutations fix; otherwise
    products of normal closures of element classes
    (``_normal_subgroups_by_closures``), since an insoluble parent's list
    costs far more than its normal subgroups."""
    sub = _as_subgroup(G)
    return memo(sub.parent, "normals", sub.members, _normal_subgroups, sub)


def _normal_subgroups(sub: SubgroupRef) -> list[SubgroupRef]:
    """Checks the deadline once per call on the list route."""
    parent = sub.parent
    action = _index_action(parent) if is_soluble(parent) else None
    if action is not None:
        check_deadline()
        perms = [action.perm(g) for g in parent.greedy_generators(sub.members)]
        positions = map(action.index.__getitem__, subgroup_sets(sub))
        sets = [action.sets[i] for i in positions if all(p[i] == i for p in perms)]
    else:
        sets = _normal_subgroups_by_closures(sub)
    return [SubgroupRef(parent, s) for s in sets]


def _normal_subgroups_by_closures(sub: SubgroupRef) -> list[frozenset[int]]:
    """The normal subgroups from the normal closures of the conjugacy classes.

    A conjugacy class spans a normal subgroup C, and for N normal <N, class> =
    NC = <N, gens(C)>. So each distinct C is taken once, and every normal
    subgroup is reached from 1 by joining with the greedy generators of the C
    not below it (Hulpke, "Computing normal subgroups", ISSAC 1998).
    """
    parent = sub.parent
    trivial = frozenset((parent.identity,))
    maps = _conjugation_maps(parent, parent.greedy_generators(sub.members))
    closures = canonical({
        parent.closure(orbit) for orbit in _point_orbits(sub.members - trivial, maps, parent.order)
    })
    spans = [(C, parent.greedy_generators(C)) for C in closures]

    def products(N: frozenset[int]) -> Iterator[frozenset[int]]:
        coset = _gather(sorted(N))
        return (parent.join(N, gens, coset) for C, gens in spans if not C <= N)

    return canonical(walk_up(trivial, products))


def minimal_overgroups(G: GroupLike, H: SubgroupRef) -> list[SubgroupRef]:
    """All K <= G with H maximal in K, in canonical order."""
    sub = _check_contained(G, H)
    top = sub.members
    return memo(sub.parent, "min_over", (H.members, top), _minimal_overgroups, sub.parent, H, top)


def _minimal_overgroups(
    parent: FiniteGroup, H: SubgroupRef, top: frozenset[int]
) -> list[SubgroupRef]:
    """The minimal sets s with H < s <= top of the parent's list; checks the
    deadline once per call."""
    whole = _parent_list(parent)
    if whole is None:
        return _minimal_overgroups_by_joins(parent, H, top)
    check_deadline()
    h = H.members
    return [SubgroupRef(parent, s) for s in _minimal(s for s in whole if h < s <= top)]


def _minimal_overgroups_by_joins(
    parent: FiniteGroup, H: SubgroupRef, top: frozenset[int]
) -> list[SubgroupRef]:
    """Minimal elements of {<H, g> : g in top outside H}. <H, hxh'> = <H, x>
    = <H, g> for h, h' in H and every generator x = g^i of <g>, so after the
    join for g every left coset of H in those double cosets HxH is covered,
    and no join is made twice. Covered elements form whole double cosets."""
    candidates: dict[frozenset[int], None] = {}
    h = H.members
    covered: set[int] = set(h)
    t = parent._table
    orders = parent.element_orders()
    coset = _gather(H.sorted_members)
    for g in sorted(top):
        if g in covered:
            continue
        # H and g lie in the subgroup top, so their join does too
        candidates.setdefault(parent.join(h, [g], coset), None)
        n = orders[g]
        x = g
        for i in range(1, n):
            if x not in covered and gcd(i, n) == 1:
                for k in h:
                    y = t[k][x]
                    if y not in covered:
                        covered.update(coset(t[y]))  # the left coset yH
            x = t[x][g]
    return [SubgroupRef(parent, s) for s in _minimal(canonical(candidates))]


def _minimal(sets: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    """The minimal members of ``sets``, given in canonical order: there every
    set comes after the ones it contains, and a set that is not minimal
    contains a minimal one, so a set that contains no kept set is minimal."""
    mins: list[frozenset[int]] = []
    for s in sets:
        if not any(m < s for m in mins):
            mins.append(s)
    return mins


def interval(G: GroupLike, H: SubgroupRef) -> list[SubgroupRef]:
    """All subgroups L with H <= L <= G, in canonical order."""
    sub = _check_contained(G, H)
    return memo(sub.parent, "interval", (H.members, sub.members), _interval, sub, H)


def _interval(sub: SubgroupRef, H: SubgroupRef) -> list[SubgroupRef]:
    whole = _parent_list(sub.parent)
    if whole is None:
        sets = _interval_by_walk(sub, H.members)
    else:
        h, top = H.members, sub.members
        sets = [s for s in whole if h <= s <= top]
    return [SubgroupRef(sub.parent, s) for s in sets]


def _interval_by_walk(sub: SubgroupRef, bottom: frozenset[int]) -> list[frozenset[int]]:
    """[bottom, sub] by ``walk_up`` through minimal overgroups, each list
    taken by joins (``_minimal_overgroups_by_joins``, cached in
    ``min_over``). It never reads the parent's list, which the whole-group
    enumeration of an insoluble group builds through it."""
    parent, top = sub.parent, sub.members
    walk = walk_up(SubgroupRef(parent, bottom), lambda K: memo(
        parent, "min_over", (K.members, top), _minimal_overgroups_by_joins, parent, K, top))
    return canonical(K.members for K in walk)


def is_maximal(K: SubgroupRef, M: SubgroupRef) -> bool:
    """M is maximal in K: K is M's only minimal overgroup inside K."""
    overs = minimal_overgroups(K, M)
    return [o.members for o in overs] == [K.members]


def maximal_subgroups_containing(K: SubgroupRef, J: SubgroupRef) -> list[SubgroupRef]:
    """Maximal subgroups M of K with J <= M, in canonical order. Nothing in
    the package calls it; the benchmark's tracer still times it."""
    if not J.members <= K.members:
        return []
    return [M for M in interval(K, J) if is_maximal(K, M)]
