"""Named group constructors and the curated verification catalog.

The catalog is the documented family the batch checks sweep over: all cyclic,
dihedral and dicyclic groups in range, abelian types of bounded 2-rank,
symmetric/alternating groups, SL(2,3), and a spread of semidirect products
(Frobenius groups, Schmidt groups, extraspecial groups, ...). Entries are
deduplicated by a cheap isomorphism-invariant fingerprint and returned in a
deterministic order.
"""

from __future__ import annotations

import itertools
import re
from importlib import resources
from typing import Callable, Iterable, Optional

from .groupfile import parse_group_text
from .permgroup import (
    FiniteGroup,
    GroupError,
    derived_subgroup,
    direct_product,
    extend_generator_map,
    inversion_action,
    is_abelian,
    prime_factorization,
    semidirect_product,
)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic group order must be positive")
    if n == 1:
        return FiniteGroup.from_generators([], 1, name="C1")
    return FiniteGroup.from_generators([tuple(range(1, n)) + (0,)], n, name=f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, order 2n (n >= 3)."""
    if n < 3:
        raise GroupError("dihedral needs n >= 3 (use elem_abelian 2 2 for V4)")
    rot = tuple(range(1, n)) + (0,)
    ref = tuple((n - i) % n for i in range(n))
    return FiniteGroup.from_generators([rot, ref], n, name=f"D{n}")


def dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n (n >= 2); n = 2 is the quaternion group."""
    if n < 2:
        raise GroupError("dicyclic needs n >= 2")
    two_n = 2 * n

    def pt(j: int, e: int) -> int:
        return j % two_n + e * two_n

    gen_a = [0] * (4 * n)
    gen_b = [0] * (4 * n)
    for j in range(two_n):
        gen_a[pt(j, 0)] = pt(j + 1, 0)
        gen_a[pt(j, 1)] = pt(j - 1, 1)
        gen_b[pt(j, 0)] = pt(j, 1)
        gen_b[pt(j, 1)] = pt(j + n, 0)
    name = "Q8" if n == 2 else f"Dic{n}"
    return FiniteGroup.from_generators([tuple(gen_a), tuple(gen_b)], 4 * n, name=name)


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupError("symmetric needs n >= 1")
    if n == 1:
        return FiniteGroup.from_generators([], 1, name="S1")
    gens = [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]
    return FiniteGroup.from_generators(gens, n, name=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    if n < 3:
        raise GroupError("alternating needs n >= 3")
    three_cycle = (1, 2, 0) + tuple(range(3, n))
    if n == 3:
        gens = [three_cycle]
    elif n % 2 == 1:
        gens = [three_cycle, tuple(range(1, n)) + (0,)]
    else:
        gens = [three_cycle, (0,) + tuple(range(2, n)) + (1,)]
    return FiniteGroup.from_generators(gens, n, name=f"A{n}")


def elem_abelian(p: int, k: int) -> FiniteGroup:
    if not prime_factorization(p) == [(p, 1)]:
        raise GroupError("elem_abelian needs a prime p")
    if k < 1:
        raise GroupError("elem_abelian needs k >= 1")
    grp = abelian_type([p] * k)
    grp.name = f"E{p}^{k}"
    return grp


def abelian_type(factors: Iterable[int]) -> FiniteGroup:
    """Direct product of cyclic groups of the given orders."""
    factors = list(factors)
    grp = cyclic(factors[0])
    for m in factors[1:]:
        grp = direct_product(grp, cyclic(m))
    grp.name = "x".join(f"C{m}" for m in factors)
    return grp


def cyclic_semidirect(n: int, k: int, m: int) -> FiniteGroup:
    """C_n x| C_k where the C_k generator acts by x -> x^m (m^k = 1 mod n)."""
    if pow(m, k, n) != 1 % n:
        raise GroupError(f"action exponent {m} has no order dividing {k} mod {n}")
    A = cyclic(n)
    B = cyclic(k)
    action_map = tuple((i * m) % n for i in range(n))
    action = {g: action_map for g in B.generators}
    grp = semidirect_product(A, B, action, name=f"C{n}:C{k}m{m}")
    return grp


def frobenius(p: int, k: int) -> FiniteGroup:
    """C_p x| C_k with a faithful action (k divides p-1)."""
    if (p - 1) % k != 0:
        raise GroupError(f"{k} does not divide {p} - 1")
    # deterministic generator of order k in (Z/p)*
    for m in range(2, p):
        if pow(m, k, p) == 1 and all(pow(m, d, p) != 1 for d in range(1, k) if k % d == 0):
            return cyclic_semidirect(p, k, m)
    raise GroupError(f"no order-{k} unit modulo {p}")


def special_linear_2_3() -> FiniteGroup:
    """SL(2,3) as Q8 x| C3, where C3 acts by the automorphism i -> j, j -> k = ij.

    ``(i, j)`` are Q8's generators; ``semidirect_product`` checks that the
    map is an automorphism and that C3 acts through it.
    """
    q8 = dicyclic(2)
    c3 = cyclic(3)
    i, j = q8.generators
    phi = extend_generator_map(q8, {i: j, j: q8.mul(i, j)}, q8.identity, q8.mul)
    return semidirect_product(q8, c3, {c3.generators[0]: phi}, name="SL(2,3)")


def _vector_action(p: int, k: int, matrix: list[list[int]]) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Elementary abelian group with the action of an invertible matrix."""
    A = elem_abelian(p, k)

    def decode(idx: int) -> tuple[int, ...]:
        perm = A.elements[idx]
        return tuple(perm[j * p] - j * p for j in range(k))

    encode: dict[tuple[int, ...], int] = {}
    for idx in range(A.order):
        encode[decode(idx)] = idx
    arr = [0] * A.order
    for idx in range(A.order):
        v = decode(idx)
        w = tuple(sum(matrix[r][c] * v[c] for c in range(k)) % p for r in range(k))
        arr[idx] = encode[w]
    return A, tuple(arr)


def matrix_semidirect(p: int, k: int, matrix: list[list[int]], cyc_order: int, name: str) -> FiniteGroup:
    A, arr = _vector_action(p, k, matrix)
    B = cyclic(cyc_order)
    return semidirect_product(A, B, {B.generators[0]: arr}, name=name)


def heisenberg_3() -> FiniteGroup:
    """Extraspecial group of order 27 and exponent 3 (E9 x| C3, shear action)."""
    return matrix_semidirect(3, 2, [[1, 1], [0, 1]], 3, "He3")


def schmidt_2_4_5() -> FiniteGroup:
    """E16 x| C5, the order-80 Schmidt group (irreducible C5-action)."""
    matrix = [
        [0, 0, 0, 1],
        [1, 0, 0, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
    ]
    return matrix_semidirect(2, 4, matrix, 5, "E16:C5")


def schmidt_5_5_3() -> FiniteGroup:
    """E25 x| C3, the order-75 Schmidt group."""
    return matrix_semidirect(5, 2, [[0, -1], [1, -1]], 3, "E25:C3")


def e9_quarter_turn() -> FiniteGroup:
    """E9 x| C4 with the rotation action (order 36)."""
    return matrix_semidirect(3, 2, [[0, -1], [1, 0]], 4, "E9:C4")


def _inversion_semidirect(A: FiniteGroup, B: FiniteGroup, name: Optional[str]) -> FiniteGroup:
    """A x| B with every generator of B inverting the abelian group A."""
    return semidirect_product(A, B, inversion_action(A, B), name=name)


def load_example864() -> FiniteGroup:
    """The shipped order-864 worked-example group."""
    text = resources.files("groupforms.data").joinpath("g864.pgrp").read_text(encoding="utf-8")
    return parse_group_text(text)


# ---------------------------------------------------------------------------
# named-constructor grammar (CLI surface)

_NAME_RE = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)\s*:\s*(.*)$")
_SHORTHAND = re.compile(r"^([CSDAQ])(\d+)$")

# the one-argument constructors, by the name of their ``name:N`` form
_ONE_ARG: dict[str, Callable[[int], FiniteGroup]] = {
    "cyclic": cyclic,
    "dihedral": dihedral,
    "dicyclic": dicyclic,
    "symmetric": symmetric,
    "alternating": alternating,
}
_SHORTHAND_NAME = {"C": "cyclic", "S": "symmetric", "A": "alternating", "D": "dihedral"}


def build_named(spec: str) -> FiniteGroup:
    """Build a group from a constructor expression.

    Grammar: ``cyclic:N``, ``dihedral:N``, ``dicyclic:N``, ``symmetric:N``,
    ``alternating:N``, ``elem_abelian:P,K``, ``direct(expr,expr)``,
    ``semidirect(expr,expr,inversion)``, ``sl23``, ``example864``, plus
    shorthands like ``C12``, ``S4``, ``A5``, ``D6`` (dihedral), ``Q8``.
    """
    s = spec.strip()
    if s.startswith("direct(") and s.endswith(")"):
        a_spec, b_spec = _split_args(s[len("direct(") : -1], 2)
        return direct_product(build_named(a_spec), build_named(b_spec))
    if s.startswith("semidirect(") and s.endswith(")"):
        a_spec, b_spec, action = _split_args(s[len("semidirect(") : -1], 3)
        A = build_named(a_spec)
        B = build_named(b_spec)
        if action.strip() != "inversion":
            raise GroupError(f"unknown semidirect action {action!r} (only 'inversion' is named)")
        return _inversion_semidirect(A, B, None)
    short = _SHORTHAND.match(s)
    if short:
        kind, num = short.group(1), int(short.group(2))
        if kind != "Q":
            return _ONE_ARG[_SHORTHAND_NAME[kind]](num)
        if num % 4 != 0:
            raise GroupError("Q-shorthand means dicyclic of order divisible by 4")
        return dicyclic(num // 4)
    if s == "sl23":
        return special_linear_2_3()
    if s == "example864":
        return load_example864()
    m = _NAME_RE.match(s)
    if not m:
        raise GroupError(f"unrecognized group spec {spec!r}")
    name, args = m.group(1), m.group(2).replace(",", " ").split()
    if all(re.fullmatch(r"[-+]?\d+", a) for a in args):
        if name in _ONE_ARG and len(args) == 1:
            return _ONE_ARG[name](int(args[0]))
        if name == "elem_abelian" and len(args) == 2:
            return elem_abelian(int(args[0]), int(args[1]))
    raise GroupError(f"unrecognized group spec {spec!r}")


def _split_args(body: str, expected: int) -> list[str]:
    """Split on top-level commas; a comma inside ``name:a,b`` stays in its argument."""
    parts: list[str] = []
    depth = 0
    current = ""
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if (
            ch == ","
            and depth == 0
            and not (_NAME_RE.match(current.strip()) and body[i + 1 :].lstrip()[:1].isdigit())
        ):
            parts.append(current)
            current = ""
        else:
            current += ch
    parts.append(current)
    if len(parts) != expected:
        raise GroupError(f"expected {expected} arguments, got {len(parts)}")
    return [p.strip() for p in parts]


# ---------------------------------------------------------------------------
# the curated catalog


# The 2-rank cap keeps subgroup lattices at a size the exhaustive sweeps can
# afford; E32 itself is included separately as the stress case.
_MAX_TWO_RANK = 4


def _abelian_types(max_order: int) -> list[FiniteGroup]:
    """All abelian isomorphism types up to max_order of 2-rank at most ``_MAX_TWO_RANK``."""
    out = []
    for n in range(2, max_order + 1):
        for typ in _abelian_partitions(n):
            if sum(1 for m in typ if m % 2 == 0) > _MAX_TWO_RANK:
                continue
            out.append(abelian_type(typ))
    return out


def _abelian_partitions(n: int) -> list[tuple[int, ...]]:
    """Cyclic-factor multisets (invariant-factor style) for abelian groups of order n."""
    fac = prime_factorization(n)
    per_prime: list[list[tuple[int, ...]]] = []
    for p, e in fac:
        parts = [tuple(sorted(part, reverse=True)) for part in _partitions(e)]
        per_prime.append([tuple(p**a for a in part) for part in parts])
    out = []
    for combo in itertools.product(*per_prime):
        factors: list[int] = []
        for chunk in combo:
            factors.extend(chunk)
        out.append(tuple(sorted(factors, reverse=True)))
    return sorted(set(out))


def _partitions(n: int) -> list[list[int]]:
    if n == 0:
        return [[]]
    out = []

    def rec(remaining: int, cap: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(list(acc))
            return
        for part in range(min(remaining, cap), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def fingerprint(G: FiniteGroup) -> tuple:
    """Cheap isomorphism invariant used for catalog deduplication only."""
    orders = G.element_orders()
    histogram: dict[int, int] = {}
    for x in range(G.order):
        histogram[orders[x]] = histogram.get(orders[x], 0) + 1
    return (
        G.order,
        tuple(sorted(histogram.items())),
        is_abelian(G),
        derived_subgroup(G).order,
    )


# The non-family catalog entries as (order, constructor) rows, in
# construction order: deduplication keeps the first group of each
# fingerprint, so a row never displaces an earlier one.
_CATALOG_TABLE: tuple[tuple[int, Callable[[], FiniteGroup]], ...] = (
    (6, lambda: symmetric(3)),
    (24, lambda: symmetric(4)),
    (120, lambda: symmetric(5)),
    (12, lambda: alternating(4)),
    (60, lambda: alternating(5)),
    (32, lambda: elem_abelian(2, 5)),
    (20, lambda: frobenius(5, 4)),
    (21, lambda: frobenius(7, 3)),
    (24, special_linear_2_3),
    (24, lambda: cyclic_semidirect(3, 8, 2)),
    (27, heisenberg_3),
    (27, lambda: cyclic_semidirect(9, 3, 4)),
    (36, e9_quarter_turn),
    (42, lambda: frobenius(7, 6)),
    (32, lambda: cyclic_semidirect(16, 2, 7)),  # semidihedral
    (39, lambda: frobenius(13, 3)),
    (52, lambda: frobenius(13, 4)),
    (55, lambda: frobenius(11, 5)),
    (75, schmidt_5_5_3),
    (80, schmidt_2_4_5),
    (110, lambda: frobenius(11, 10)),
    (18, lambda: _inversion_semidirect(elem_abelian(3, 2), cyclic(2), "E9:C2")),
    (16, lambda: cyclic_semidirect(8, 2, 3)),
    (16, lambda: cyclic_semidirect(8, 2, 5)),
    (36, lambda: direct_product(symmetric(3), symmetric(3), name="S3xS3")),
    (18, lambda: direct_product(symmetric(3), cyclic(3), name="S3xC3")),
    (24, lambda: direct_product(alternating(4), cyclic(2), name="A4xC2")),
    (24, lambda: direct_product(dicyclic(2), cyclic(3), name="Q8xC3")),
    (36, lambda: direct_product(alternating(4), cyclic(3), name="A4xC3")),
    (48, lambda: direct_product(symmetric(4), cyclic(2), name="S4xC2")),
    (48, lambda: direct_product(alternating(4), cyclic(4), name="A4xC4")),
    (48, lambda: direct_product(alternating(4), elem_abelian(2, 2), name="A4xV4")),
    (72, lambda: direct_product(symmetric(3), alternating(4), name="S3xA4")),
    (60, lambda: direct_product(symmetric(3), dihedral(5), name="S3xD5")),
    (60, lambda: direct_product(alternating(4), cyclic(5), name="A4xC5")),
    (96, lambda: direct_product(symmetric(4), elem_abelian(2, 2), name="S4xV4")),
    (96, lambda: direct_product(alternating(4), dicyclic(2), name="A4xQ8")),
    (96, lambda: direct_product(symmetric(3), cyclic_semidirect(8, 2, 3), name="S3xSD16")),
    (100, lambda: direct_product(frobenius(5, 4), cyclic(5), name="F20xC5")),
    (120, lambda: direct_product(symmetric(3), frobenius(5, 4), name="S3xF20")),
    (120, lambda: direct_product(alternating(4), dihedral(5), name="A4xD5")),
    (120, lambda: direct_product(symmetric(4), cyclic(5), name="S4xC5")),
)


def catalog_groups(max_order: int = 120) -> list[FiniteGroup]:
    """The curated catalog, deduplicated and sorted by (order, name).

    The families come first: cyclic, dihedral, dicyclic, then the abelian
    types, which share no fingerprint with the non-abelian table rows.
    """
    entries = [cyclic(n) for n in range(1, max_order + 1)]
    entries += [dihedral(n) for n in range(3, max_order // 2 + 1)]
    entries += [dicyclic(n) for n in range(2, max_order // 4 + 1)]
    entries += _abelian_types(max_order)
    entries += [build() for order, build in _CATALOG_TABLE if order <= max_order]

    seen: set[tuple] = set()
    unique: list[FiniteGroup] = []
    for g in entries:
        fp = fingerprint(g)
        if fp not in seen:
            seen.add(fp)
            unique.append(g)
    unique.sort(key=lambda g: (g.order, g.name or ""))
    return unique
