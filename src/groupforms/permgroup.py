"""Permutation-group arithmetic on fully enumerated small groups.

Elements are permutations stored as image tuples (0-based). Every group
carries its complete, canonically ordered element list plus integer
multiplication/inverse tables, so all later subgroup predicates are exact
integer work. Deliberately no stabilizer chains: the target scale
(order <= ~1000, default cap 2000) makes full enumeration the simplest thing
that is always right.

The budgets of a run (``Budgets``) are put in force once, with
``Budgets.in_force()``, and read where the work happens: generator closure
and the products read the order limit, subgroup enumeration reads the lattice
limit, and the long search loops call ``check_deadline``. Outside any
``in_force`` block the defaults apply and there is no deadline.

Every function of the package that takes an ambient group and a subgroup H
of it decides that H has the same parent and lies inside it in one place,
``_check_contained``. The Fitting subgroup is recomputed on each call from
the cached Sylow subgroups and cores.
"""

from __future__ import annotations

import itertools
import re
import time
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar, Union

T = TypeVar("T")


class GroupError(ValueError):
    """Invalid group-theoretic input (degree mismatch, bad subgroup, ...)."""


class GroupBudgetError(RuntimeError):
    """A configured budget (max order, lattice size, time) was exceeded."""


@dataclass(frozen=True)
class Budgets:
    """The limits of one run; the field names are the report's ``budgets`` keys.

    ``max_order`` bounds every group built from generators, ``lattice`` the
    order of any (sub)group whose subgroups are all enumerated, and ``time``
    (seconds, None for no limit) the wall time from ``in_force`` on.
    """

    max_order: int = 2000
    lattice: int = 400
    time: Optional[float] = None

    @contextmanager
    def in_force(self) -> Iterator[None]:
        """Make these the budgets of the enclosed code; the deadline starts now."""
        deadline = None if self.time is None else time.monotonic() + self.time
        token = _IN_FORCE.set((self, deadline))
        try:
            yield
        finally:
            _IN_FORCE.reset(token)


# (budgets, monotonic deadline or None); the budget is never part of a memo key
_IN_FORCE: ContextVar[tuple[Budgets, Optional[float]]] = ContextVar(
    "groupforms_budgets", default=(Budgets(), None)
)


def current_budgets() -> Budgets:
    return _IN_FORCE.get()[0]


def check_deadline() -> None:
    """Raise ``GroupBudgetError`` once the time budget in force has run out."""
    budgets, deadline = _IN_FORCE.get()
    if deadline is not None and time.monotonic() >= deadline:
        raise GroupBudgetError(f"time budget of {budgets.time}s exceeded")


def _check_product_order(order: int) -> None:
    limit = current_budgets().max_order
    if order > limit:
        raise GroupBudgetError(f"product of order {order} exceeds the max-order budget ({limit})")


# ---------------------------------------------------------------------------
# raw permutation helpers (image-tuple representation)


def identity_perm(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def _gather(positions: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """``f(seq) == tuple(seq[i] for i in positions)``, done in C.

    An ``itemgetter`` of one index returns a scalar (and of none raises), so
    fewer than two positions are a special case.
    """
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda seq: (seq[p],)
    return lambda seq: ()


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Product 'apply p, then q'."""
    return _gather(p)(q)


def is_permutation(p: Sequence[int]) -> bool:
    n = len(p)
    return sorted(p) == list(range(n))


def cycles_of(p: Sequence[int]) -> list[tuple[int, ...]]:
    """Non-trivial cycles, 0-based, each rotated to start at its minimum."""
    seen = [False] * len(p)
    cycles = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        cycles.append(tuple(cyc))
    return cycles


def perm_to_cycle_text(p: Sequence[int]) -> str:
    """Cycle notation with 1-based points, e.g. ``(1 2 3)(4 5)``; identity is ``()``."""
    cycles = cycles_of(p)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in cyc) + ")" for cyc in cycles)


# one cycle: its points, separated by spaces, commas or tabs
_CYCLE = re.compile(r"\(([\d ,\t]*)\)")


def perm_from_cycle_text(text: str, degree: int) -> tuple[int, ...]:
    """Parse 1-based cycle notation into an image tuple of the given degree.

    The text is a run of cycles ``(...)`` with nothing but spaces, commas or
    tabs between them; the empty text and ``()`` are the identity."""
    body = text.strip()
    if (body and not body.startswith("(")) or _CYCLE.sub("", body).strip(" ,\t"):
        raise GroupError(f"bad cycle notation: {text!r}")
    images = list(range(degree))
    touched: set[int] = set()
    for cycle in _CYCLE.findall(body):
        pts = [int(x) - 1 for x in cycle.replace(",", " ").split()]
        for x in pts:
            if not 0 <= x < degree:
                raise GroupError(f"point {x + 1} out of range for degree {degree}")
            if x in touched:
                raise GroupError(f"point {x + 1} repeated in {text!r}")
            touched.add(x)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return tuple(images)


def prime_factorization(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return prime_factorization(n) == [(n, 1)]


def is_prime_power(n: int) -> bool:
    """True for p^k with k >= 1 (1 is not a prime power here)."""
    return len(prime_factorization(n)) == 1 and n > 1


def is_primary_order(n: int) -> bool:
    """Order of a primary group: 1 or a single-prime power."""
    return n == 1 or is_prime_power(n)


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


# ---------------------------------------------------------------------------
# groups


class FiniteGroup:
    """A fully enumerated permutation group.

    Immutable after construction. ``elements`` is lexicographically sorted on
    image tuples, which makes every set-valued result downstream
    deterministic. ``generator_perms`` must generate ``elements``: unless a
    table is passed in, ``_build_table`` fills it along their Cayley graph
    and raises ``GroupError`` otherwise. The whole member set and the
    whole-group ``SubgroupRef`` are built once, with the group.
    ``_op_cache`` holds idempotent lazy results (lattices, residuals,
    normalizers, ...), one dict per namespace; every read and write goes
    through ``memo``. Concurrent duplicate computation is harmless by design.
    """

    __slots__ = (
        "degree",
        "elements",
        "order",
        "generators",
        "name",
        "_index",
        "_table",
        "_inv",
        "_identity",
        "_whole",
        "_whole_ref",
        "_op_cache",
    )

    def __init__(
        self,
        degree: int,
        elements: Sequence[tuple[int, ...]],
        generator_perms: Sequence[tuple[int, ...]],
        name: Optional[str] = None,
        _table: Optional[list[array]] = None,
    ):
        self.degree = degree
        self.elements = tuple(elements)
        self.order = len(self.elements)
        self.name = name
        self._index = {p: i for i, p in enumerate(self.elements)}
        ident = identity_perm(degree)
        if ident not in self._index:
            raise GroupError("element set does not contain the identity")
        self._identity = self._index[ident]
        gen_idx = []
        for g in generator_perms:
            idx = self._index.get(tuple(g))
            if idx is None:
                raise GroupError("generator outside element set")
            gen_idx.append(idx)
        self.generators = tuple(gen_idx)
        self._table = self._build_table() if _table is None else _table
        e = self._identity
        self._inv = array("i", [row.index(e) for row in self._table])
        self._whole = frozenset(range(self.order))
        self._whole_ref = SubgroupRef(self, self._whole)
        self._op_cache: dict = {}

    def _build_table(self) -> list[array]:
        """The multiplication table, filled along the Cayley graph of the generators.

        Only the generator rows are looked up element by element. For a = p*g,
        ``table[a][b] = table[p][table[g][b]]``, so row a is row p gathered at
        the positions of row g: one C-level ``itemgetter`` call per row. A
        breadth-first walk from the identity fills the rest; a row it leaves
        empty means the generators do not generate the element set.
        """
        index = self._index
        elems = self.elements
        e = self._identity
        steps = [
            (g, _gather([index[compose(elems[g], q)] for q in elems]))
            for g in dict.fromkeys(self.generators)
            if g != e
        ]
        table: list[Optional[array]] = [None] * self.order
        table[e] = array("i", range(self.order))
        reached = [e]
        for p in reached:  # breadth first: the loop also visits what it appends
            row = table[p]
            for g, gather in steps:
                a = row[g]
                if table[a] is None:
                    table[a] = array("i", gather(row))
                    reached.append(a)
        if len(reached) < self.order:
            raise GroupError("generators do not generate the element set")
        return table

    # -- low-level element arithmetic (index space) --

    def mul(self, a: int, b: int) -> int:
        return self._table[a][b]

    def conj(self, x: int, g: int) -> int:
        """g^-1 * x * g in index space."""
        t = self._table
        return t[t[self._inv[g]][x]][g]

    def commutator(self, a: int, b: int) -> int:
        t = self._table
        return t[t[t[self._inv[a]][self._inv[b]]][a]][b]

    @property
    def identity(self) -> int:
        return self._identity

    def element_orders(self) -> array:
        return memo(self, "orders", None, self._element_orders)

    def _element_orders(self) -> array:
        e = self._identity
        t = self._table
        out = array("i", [0]) * self.order
        for i in range(self.order):
            o, x = 1, i
            while x != e:
                x = t[x][i]
                o += 1
            out[i] = o
        return out

    def whole(self) -> frozenset[int]:
        return self._whole

    def closure(self, seeds: Iterable[int]) -> frozenset[int]:
        """The subgroup generated by the seeds, as an index set, from scratch.

        A breadth-first walk that multiplies every element reached by every
        seed. For a subgroup that extends a known one, ``join`` does the same
        work a coset at a time.
        """
        t = self._table
        e = self._identity
        gens = sorted({s for s in seeds if s != e})
        out = {e}
        frontier = [e]
        while frontier:
            new = []
            for x in frontier:
                row = t[x]
                for g in gens:
                    y = row[g]
                    if y not in out:
                        out.add(y)
                        new.append(y)
            frontier = new
        return frozenset(out)

    def join(
        self,
        base: frozenset[int],
        seeds: Iterable[int],
        coset: Optional[Callable[[Sequence[int]], tuple[int, ...]]] = None,
    ) -> frozenset[int]:
        """<base, seeds> for a subgroup member set ``base``, as an index set.

        Dimino's closure (Holt, Eick and O'Brien, Handbook of Computational
        Group Theory, 2005): the result is grown one left coset of ``base``
        at a time from the greedy generators of ``base`` and the seeds
        outside it; see ``_cosets_closure``. ``coset`` is
        ``_gather(sorted(base))``, for a caller that joins one base with many
        seeds and builds it once.
        """
        new = tuple(dict.fromkeys(s for s in seeds if s not in base))
        if not new:
            return base
        gens = self.greedy_generators(base) + new
        return self._cosets_closure(base, gens, coset or _gather(sorted(base)))

    def _cosets_closure(
        self,
        base: frozenset[int],
        gens: Sequence[int],
        coset: Callable[[Sequence[int]], tuple[int, ...]],
    ) -> frozenset[int]:
        """<base, gens> when ``gens`` include generators of the subgroup ``base``.

        Starting from ``base`` itself, each generator s sends a reached coset
        rH to the coset (s*r)H, whose members are row s*r gathered at the
        positions of ``base``: one C-level call per new coset. A union of
        left cosets that contains the identity and is closed under left
        multiplication by the generators is the group they generate, so the
        Python work is cosets times generators rather than elements times
        generators.
        """
        t = self._table
        out = set(base)
        reps = [self._identity]
        for r in reps:  # the loop also visits the representatives it appends
            for s in gens:
                y = t[s][r]
                if y not in out:
                    out.update(coset(t[y]))
                    reps.append(y)
        return frozenset(out)

    def greedy_generators(self, members: frozenset[int]) -> tuple[int, ...]:
        """A small deterministic generating set for a subgroup index set."""
        return memo(self, "gens", members, _greedy_generators, self, members)

    def conjugate_set(self, members: Iterable[int], g: int) -> frozenset[int]:
        t = self._table
        gi = self._inv[g]
        return frozenset(t[t[gi][x]][g] for x in members)

    def as_subgroup(self) -> "SubgroupRef":
        return self._whole_ref

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"<FiniteGroup {label}: degree {self.degree}, order {self.order}>"

    # -- constructors --

    @classmethod
    def from_generators(
        cls,
        generator_perms: Iterable[Sequence[int]],
        degree: int,
        name: Optional[str] = None,
    ) -> "FiniteGroup":
        """Close the generators; raises past the max-order budget in force."""
        max_order = current_budgets().max_order
        gens = []
        for g in generator_perms:
            gt = tuple(g)
            if len(gt) != degree:
                raise GroupError(f"generator degree {len(gt)} != declared degree {degree}")
            if not is_permutation(gt):
                raise GroupError(f"not a permutation: {gt}")
            gens.append(gt)
        ident = identity_perm(degree)
        elems = {ident}
        frontier = [ident]
        gen_set = [g for g in dict.fromkeys(gens) if g != ident]
        while frontier:
            new = []
            for p in frontier:
                for g in gen_set:
                    q = compose(p, g)
                    if q not in elems:
                        elems.add(q)
                        new.append(q)
                        if len(elems) > max_order:
                            raise GroupBudgetError(
                                f"closure exceeded the max-order budget ({max_order})"
                            )
            frontier = new
        return cls(degree, sorted(elems), gens, name=name)

    @classmethod
    def from_table(
        cls,
        perms: Sequence[tuple[int, ...]],
        table: Sequence[Sequence[int]],
        generator_perms: Sequence[tuple[int, ...]],
        name: Optional[str] = None,
    ) -> "FiniteGroup":
        """Internal fast path: canonicalize a precomputed (perms, table) pair."""
        order = len(perms)
        sort_idx = sorted(range(order), key=perms.__getitem__)
        new_of_old = [0] * order
        for new, old in enumerate(sort_idx):
            new_of_old[old] = new
        sorted_perms = [perms[old] for old in sort_idx]
        renumber = new_of_old.__getitem__
        in_new_order = _gather(sort_idx)
        new_table = [array("i", map(renumber, in_new_order(table[old_i]))) for old_i in sort_idx]
        degree = len(sorted_perms[0])
        return cls(degree, sorted_perms, generator_perms, name=name, _table=new_table)


_MISSING = object()


def memo(group: FiniteGroup, namespace: str, key, compute: Callable, *args):
    """The value cached under ``group._op_cache[namespace][key]``.

    On a miss, ``compute(*args)`` is stored first and then returned; a
    compute that raises stores nothing, not even the namespace. A miss means
    an absent key, so ``False`` and ``None`` results are cached too, and
    ``None`` is a key like any other.
    """
    cache = group._op_cache.get(namespace)
    if cache is not None:
        got = cache.get(key, _MISSING)
        if got is not _MISSING:
            return got
    value = compute(*args)
    # read the namespace again: a recursive compute may have created it
    group._op_cache.setdefault(namespace, {})[key] = value
    return value


def _greedy_generators(G: FiniteGroup, members: frozenset[int]) -> tuple[int, ...]:
    """The least element outside the span so far, until the span is ``members``.

    Each step extends the span by one coset walk from the last span, whose
    generators are the ones chosen so far.
    """
    gens: tuple[int, ...] = ()
    current: frozenset[int] = frozenset((G.identity,))
    if len(members) > 1:
        for x in sorted(members):
            if x not in current:
                gens += (x,)
                current = G._cosets_closure(current, gens, _gather(sorted(current)))
                if len(current) == len(members):
                    break
    return gens


class SubgroupRef:
    """An identified subgroup: a parent group plus a member index set."""

    __slots__ = ("parent", "members", "order", "_sorted")

    def __init__(self, parent: FiniteGroup, members: frozenset[int]):
        self.parent = parent
        self.members = members
        self.order = len(members)
        self._sorted: Optional[tuple[int, ...]] = None

    @property
    def sorted_members(self) -> tuple[int, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.members))
        return self._sorted

    @property
    def generators(self) -> tuple[int, ...]:
        return self.parent.greedy_generators(self.members)

    def generator_perms(self) -> list[tuple[int, ...]]:
        gens = self.generators
        if not gens:
            return [identity_perm(self.parent.degree)]
        return [self.parent.elements[g] for g in gens]

    def is_whole(self) -> bool:
        return self.order == self.parent.order

    def __contains__(self, idx: int) -> bool:
        return idx in self.members

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubgroupRef)
            and other.parent is self.parent
            and other.members == self.members
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:
        return f"<SubgroupRef order {self.order} of {self.parent!r}>"


GroupLike = Union[FiniteGroup, SubgroupRef]


def _as_subgroup(G: GroupLike) -> SubgroupRef:
    return G.as_subgroup() if isinstance(G, FiniteGroup) else G


def _check_contained(G: GroupLike, H: SubgroupRef) -> SubgroupRef:
    """The ambient subgroup of G, once H is known to be a subgroup of it:
    the one containment check of every function that takes both."""
    amb = _as_subgroup(G)
    if H.parent is not amb.parent:
        raise GroupError("H belongs to a different parent group")
    if not H.members <= amb.members:
        raise GroupError("H is not a subgroup of the ambient group")
    return amb


@dataclass(frozen=True)
class GroupHom:
    """A surjective homomorphism witnessing a quotient G -> G/N.

    ``element_map`` sends parent element indices (of the source member set) to
    element indices of ``image``; ``image`` is the permutation realization of
    the right-coset action. Quotients of one parent whose coset actions give
    the same permutations share one ``image`` object, and with it its cached
    lattice, residuals and verdicts; each keeps its own ``kernel`` and
    ``element_map``. A shared image's ``generators`` are those of the first
    quotient that built it, so read them only as some generating set.
    """

    source: SubgroupRef
    kernel: SubgroupRef
    image: FiniteGroup
    element_map: Mapping[int, int]

    def map_members(self, members: Iterable[int]) -> frozenset[int]:
        return frozenset(map(self.element_map.__getitem__, members))

    def map_subgroup(self, H: SubgroupRef) -> SubgroupRef:
        return SubgroupRef(self.image, self.map_members(H.members))


# ---------------------------------------------------------------------------
# classical operations


def normalizer(G: GroupLike, H: SubgroupRef) -> SubgroupRef:
    """N_G(H) = {g in G : H^g = H}."""
    amb = _check_contained(G, H)
    return memo(amb.parent, "normalizer", (amb.members, H.members), _normalizer, amb, H)


def _normalizer(amb: SubgroupRef, H: SubgroupRef) -> SubgroupRef:
    parent = amb.parent
    gens = H.generators
    mem = H.members
    t = parent._table
    inv = parent._inv
    out = set()
    for g in sorted(amb.members):
        gi = inv[g]
        row_gi = t[gi]
        ok = True
        for h in gens:
            if t[row_gi[h]][g] not in mem:
                ok = False
                break
        if ok:
            out.add(g)
    return SubgroupRef(parent, frozenset(out))


def core(B: GroupLike, A: SubgroupRef) -> SubgroupRef:
    """Core of A in B: the largest subgroup of A normal in B."""
    amb = _check_contained(B, A)
    return memo(amb.parent, "core", (amb.members, A.members), _core, amb, A)


def _core(amb: SubgroupRef, A: SubgroupRef) -> SubgroupRef:
    parent = amb.parent
    gens = parent.greedy_generators(amb.members)
    current = A.members
    changed = True
    while changed:
        changed = False
        for g in gens:
            conj = parent.conjugate_set(current, g)
            if conj != current:
                current = current & conj
                changed = True
    # the fixpoint is closed and B-invariant, hence exactly the core
    return SubgroupRef(parent, current)


def normal_closure(G: GroupLike, seed: Iterable[int]) -> SubgroupRef:
    """Smallest subgroup containing the seed and normal in the ambient group."""
    amb = _as_subgroup(G)
    parent = amb.parent
    amb_gens = parent.greedy_generators(amb.members)
    current = parent.closure(seed)
    while True:
        extra = []
        for g in amb_gens:
            for x in parent.greedy_generators(current):
                y = parent.conj(x, g)
                if y not in current:
                    extra.append(y)
        if not extra:
            return SubgroupRef(parent, current)
        current = parent.join(current, extra)


def commutator_subgroup(A: SubgroupRef, B: SubgroupRef) -> SubgroupRef:
    """[A, B]: the normal closure in <A, B> of the generators' commutators."""
    parent = A.parent
    a_gens = A.generators or (parent.identity,)
    b_gens = B.generators or (parent.identity,)
    seeds = {parent.commutator(a, b) for a in a_gens for b in b_gens}
    return normal_closure(SubgroupRef(parent, parent.join(A.members, B.generators)), seeds)


def derived_subgroup(G: GroupLike) -> SubgroupRef:
    sub = _as_subgroup(G)
    return memo(sub.parent, "derived", sub.members, commutator_subgroup, sub, sub)


def derived_series(G: GroupLike) -> list[SubgroupRef]:
    sub = _as_subgroup(G)
    series = [sub]
    while True:
        nxt = derived_subgroup(series[-1])
        if nxt.members == series[-1].members:
            break
        series.append(nxt)
    return series


def lower_central_series(G: GroupLike) -> list[SubgroupRef]:
    sub = _as_subgroup(G)
    series = [sub]
    while True:
        nxt = commutator_subgroup(sub, series[-1])
        if nxt.members == series[-1].members:
            break
        series.append(nxt)
    return series


def prime_divisors(G: GroupLike) -> set[int]:
    return {p for p, _ in prime_factorization(_as_subgroup(G).order)}


def is_abelian(G: GroupLike) -> bool:
    sub = _as_subgroup(G)
    parent = sub.parent
    gens = sub.generators
    t = parent._table
    return all(t[a][b] == t[b][a] for a, b in itertools.combinations(gens, 2))


def is_nilpotent(G: GroupLike) -> bool:
    """Every Sylow subgroup normal, tested in element-order-count form.

    For each prime p, the p-power-order elements number exactly the p-part of
    |G| iff the Sylow p-subgroup is unique (= normal).
    """
    sub = _as_subgroup(G)
    parent = sub.parent
    orders = parent.element_orders()
    n = sub.order
    counts: dict[int, int] = {}
    for x in sub.members:
        o = orders[x]
        if o == 1:
            continue
        fac = prime_factorization(o)
        if len(fac) == 1:
            p = fac[0][0]
            counts[p] = counts.get(p, 0) + 1
    for p, _ in prime_factorization(n):
        if counts.get(p, 0) + 1 != p_part(n, p):
            return False
    return True


def is_soluble(G: GroupLike) -> bool:
    series = derived_series(G)
    return series[-1].order == 1


def is_elementary_abelian(G: GroupLike) -> bool:
    sub = _as_subgroup(G)
    if sub.order == 1:
        return True
    fac = prime_factorization(sub.order)
    if len(fac) != 1:
        return False
    p = fac[0][0]
    orders = sub.parent.element_orders()
    if any(orders[x] not in (1, p) for x in sub.members):
        return False
    return is_abelian(sub)


def sylow_subgroup(G: GroupLike, p: int) -> SubgroupRef:
    """A Sylow p-subgroup, grown deterministically through normalizers."""
    sub = _as_subgroup(G)
    parent = sub.parent
    n = sub.order
    if n % p != 0:
        raise GroupError(f"{p} does not divide the group order {n}")
    return memo(parent, "sylow", (sub.members, p), _sylow_subgroup, sub, p)


def _sylow_subgroup(sub: SubgroupRef, p: int) -> SubgroupRef:
    parent = sub.parent
    target = p_part(sub.order, p)
    orders = parent.element_orders()
    seed = min(x for x in sub.members if orders[x] % p == 0 and p_part(orders[x], p) == orders[x] and x != parent.identity)
    current = parent.closure([seed])
    while len(current) < target:
        norm = normalizer(sub, SubgroupRef(parent, current))
        grow = None
        for x in sorted(norm.members - current):
            o = orders[x]
            if o > 1 and p_part(o, p) == o:
                grow = x
                break
        if grow is None:
            raise GroupError("Sylow growth stalled (inconsistent group data)")
        current = parent.join(current, [grow])
    return SubgroupRef(parent, current)


def p_core(G: GroupLike, p: int) -> SubgroupRef:
    """O_p(G): the largest normal p-subgroup (core of any Sylow p-subgroup)."""
    sub = _as_subgroup(G)
    if sub.order % p != 0:
        return SubgroupRef(sub.parent, frozenset((sub.parent.identity,)))
    return core(sub, sylow_subgroup(sub, p))


def fitting(G: GroupLike) -> SubgroupRef:
    """Fitting subgroup: the product of the p-cores, verified nilpotent."""
    sub = _as_subgroup(G)
    parent = sub.parent
    members = frozenset((parent.identity,))
    for p in sorted(prime_divisors(sub)):
        members = parent.join(members, p_core(sub, p).generators)
    result = SubgroupRef(parent, members)
    if not is_nilpotent(result):
        raise GroupError("Fitting computation produced a non-nilpotent subgroup")
    return result


def quotient(G: GroupLike, N: SubgroupRef) -> GroupHom:
    """Quotient realized by the right-coset action; errors if N is not normal.

    Cached per (G, N). The image is cached on the parent by its element set,
    so quotients whose coset actions give the same permutations return one
    shared ``FiniteGroup`` (see ``GroupHom``).
    """
    sub = _check_contained(G, N)
    return memo(sub.parent, "quotient", (sub.members, N.members), _quotient, sub, N)


def _quotient(sub: SubgroupRef, N: SubgroupRef) -> GroupHom:
    parent = sub.parent
    gens = parent.greedy_generators(sub.members)
    for g in gens:
        if parent.conjugate_set(N.members, g) != N.members:
            raise GroupError("quotient kernel is not normal")
    t = parent._table
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for x in sub.sorted_members:
        if x in coset_of:
            continue
        r = len(reps)
        reps.append(x)
        for nn in N.members:
            coset_of[t[nn][x]] = r
    q = len(reps)
    coset = coset_of.__getitem__
    at_reps = _gather(reps)
    qtable = [tuple(map(coset, at_reps(t[r]))) for r in reps]
    perms = list(zip(*qtable))
    gen_perms = [perms[coset_of[g]] for g in gens] or [identity_perm(q)]
    image = memo(
        parent, "image", tuple(sorted(perms)), FiniteGroup.from_table, perms, qtable, gen_perms, None
    )
    emap = {x: image._index[perms[r]] for x, r in coset_of.items()}
    return GroupHom(source=sub, kernel=N, image=image, element_map=emap)


# ---------------------------------------------------------------------------
# products


def direct_product(A: FiniteGroup, B: FiniteGroup, name: Optional[str] = None) -> FiniteGroup:
    """A x B on the disjoint union of the two point sets."""
    _check_product_order(A.order * B.order)
    dA, dB = A.degree, B.degree
    gens = []
    for g in (A.elements[i] for i in A.generators):
        gens.append(tuple(g) + tuple(dA + x for x in range(dB)))
    for g in (B.elements[i] for i in B.generators):
        gens.append(tuple(range(dA)) + tuple(dA + x for x in g))
    got = FiniteGroup.from_generators(gens, dA + dB, name=name)
    if got.order != A.order * B.order:
        raise GroupError("direct product closure produced the wrong order")
    return got


def extend_generator_map(
    G: FiniteGroup, images: Mapping[int, T], identity: T, mul: Callable[[T, T], T]
) -> tuple[T, ...]:
    """The homomorphism from G sending each generator g in ``images`` to
    ``images[g]``, as a tuple over G's element indices: x*g goes to
    ``mul(image of x, images[g])`` along every edge of G's Cayley graph.
    Raises ``GroupError`` when two words for one element get different
    images (no homomorphism extends ``images``) or its keys do not generate G.
    """
    out = {G.identity: identity}
    work = [G.identity]
    for x in work:  # the loop also visits the elements it appends
        for g, img_g in images.items():
            xg = G.mul(x, g)
            img = mul(out[x], img_g)
            if xg not in out:
                out[xg] = img
                work.append(xg)
            elif out[xg] != img:
                raise GroupError("generator images do not extend to a homomorphism")
    if len(out) != G.order:
        raise GroupError("generator images do not cover the group")
    return tuple(out[x] for x in range(G.order))


def semidirect_product(
    A: FiniteGroup,
    B: FiniteGroup,
    action: Mapping[int, Sequence[int]],
    name: Optional[str] = None,
) -> FiniteGroup:
    """A x| B realized by the right regular action on the pair set A x B.

    ``action`` maps each B generator index to an automorphism of A given as an
    image array over A's element indices. The map is verified to consist of
    automorphisms and to extend to a homomorphism B -> Aut(A).
    """
    _check_product_order(A.order * B.order)
    gen_phi: dict[int, tuple[int, ...]] = {}
    for b_gen in B.generators:
        if b_gen not in action:
            raise GroupError("action must be given on every B generator")
        phi = tuple(action[b_gen])
        if sorted(phi) != list(range(A.order)):
            raise GroupError("action image is not a bijection on A")
        # a bijection is an automorphism when it is the homomorphism its
        # values on A's generators define
        if extend_generator_map(A, {a: phi[a] for a in A.generators}, A.identity, A.mul) != phi:
            raise GroupError("action image is not an automorphism of A")
        gen_phi[b_gen] = phi
    # phi(b*g) = phi(b) o phi(g), the array of phi(g) gathered from phi(b)
    auto_of = extend_generator_map(
        B, gen_phi, tuple(range(A.order)), lambda phi_b, phi_g: _gather(phi_g)(phi_b)
    )

    nA, nB = A.order, B.order
    pairs = [(a, b) for a in range(nA) for b in range(nB)]  # point a*nB + b is (a, b)
    gen_perms = [
        tuple(A.mul(a, auto_of[b][g]) * nB + b for a, b in pairs) for g in A.generators
    ] + [tuple(a * nB + B.mul(b, g) for a, b in pairs) for g in B.generators]
    got = FiniteGroup.from_generators(gen_perms, nA * nB, name=name)
    if got.order != nA * nB:
        raise GroupError("semidirect closure produced the wrong order")
    return got


def inversion_action(A: FiniteGroup, B: FiniteGroup) -> dict[int, tuple[int, ...]]:
    """Every B generator inverts the abelian group A."""
    if not is_abelian(A):
        raise GroupError("inversion action needs an abelian A")
    inv_map = tuple(A._inv[x] for x in range(A.order))
    return {g: inv_map for g in B.generators}
