"""The ``pgrp v1`` group file format, plus the lattice cache file.

Format (UTF-8 text, ``#`` starts a comment anywhere on a line):

    pgrp v1
    degree N
    order M        # optional sanity gate
    name S         # optional
    (1 2 3)        # one generator per line, cycle notation, 1-based points

The emitter produces the canonical form: header, ``order``, optional
``name``, then the recorded generators; ``emit(parse(text))`` is idempotent.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Union

from . import lattice as _lattice
from .permgroup import (
    FiniteGroup,
    GroupError,
    SubgroupRef,
    perm_from_cycle_text,
    perm_to_cycle_text,
)

FORMAT_HEADER = "pgrp v1"
CACHE_FORMAT_VERSION = 2  # 2: checksum hashes every point injectively


class GroupFileError(GroupError):
    """Syntax or consistency error in a group file, with line information."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


def _strip_comment(raw: str) -> str:
    if "#" in raw:
        raw = raw[: raw.index("#")]
    return raw.strip()


def parse_group_text(text: str) -> FiniteGroup:
    lines = text.splitlines()
    body: list[tuple[int, str]] = []
    for i, raw in enumerate(lines, start=1):
        stripped = _strip_comment(raw)
        if stripped:
            body.append((i, stripped))
    if not body:
        raise GroupFileError("empty group file")
    lineno, header = body[0]
    if header != FORMAT_HEADER:
        raise GroupFileError(f"expected header {FORMAT_HEADER!r}, got {header!r}", lineno)
    if len(body) < 2:
        raise GroupFileError("missing 'degree' line", lineno)
    lineno, degree_line = body[1]
    parts = degree_line.split()
    if len(parts) != 2 or parts[0] != "degree" or not parts[1].isdecimal():
        raise GroupFileError("expected 'degree N'", lineno)
    degree = int(parts[1])
    if degree < 1:
        raise GroupFileError("degree must be positive", lineno)
    expected_order: Optional[int] = None
    name: Optional[str] = None
    generators = []
    for lineno, line in body[2:]:
        if line.startswith("order "):
            try:
                expected_order = int(line.split(None, 1)[1])
            except (IndexError, ValueError):
                raise GroupFileError("expected 'order M'", lineno) from None
        elif line.startswith("name "):
            name = line.split(None, 1)[1].strip()
        elif line.startswith("("):
            try:
                generators.append(perm_from_cycle_text(line, degree))
            except GroupError as exc:
                raise GroupFileError(str(exc), lineno) from None
        else:
            raise GroupFileError(f"unrecognized line {line!r}", lineno)
    group = FiniteGroup.from_generators(generators, degree, name=name)
    if expected_order is not None and group.order != expected_order:
        raise GroupFileError(
            f"order mismatch: file declares {expected_order}, generators close to {group.order}"
        )
    return group


def parse_group_file(path: Union[str, Path]) -> FiniteGroup:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GroupFileError(f"group file is not UTF-8 text: {exc}") from None
    return parse_group_text(text)


def emit_group_text(G: FiniteGroup) -> str:
    lines = [FORMAT_HEADER, f"degree {G.degree}", f"order {G.order}"]
    if G.name:
        lines.append(f"name {G.name}")
    gens = [G.elements[i] for i in G.generators]
    if not gens:
        gens = [G.elements[G.identity]]
    lines.extend(perm_to_cycle_text(p) for p in gens)
    return "\n".join(lines) + "\n"


def write_group_file(G: FiniteGroup, path: Union[str, Path]) -> None:
    Path(path).write_text(emit_group_text(G), encoding="utf-8")


# ---------------------------------------------------------------------------
# lattice cache


class CacheMismatchError(GroupError):
    """Cache file does not match the group (stale checksum or version)."""


def group_checksum(G: FiniteGroup) -> str:
    h = hashlib.sha256()
    h.update(f"degree={G.degree};order={G.order};".encode())
    for p in G.elements:
        h.update(",".join(map(str, p)).encode())
        h.update(b"|")
    return h.hexdigest()


def _checked_indices(values, bound: int, what: str) -> list[int]:
    """``values`` as a list of ints in ``range(bound)``, else a cache mismatch."""
    out = list(values)
    if not all(type(v) is int and 0 <= v < bound for v in out):
        raise CacheMismatchError(f"cache {what} out of range")
    return out


def cache_save(lat: _lattice.SubgroupLattice, path: Union[str, Path]) -> None:
    payload = {
        "format_version": CACHE_FORMAT_VERSION,
        "group_checksum": group_checksum(lat.parent),
        "degree": lat.parent.degree,
        "order": lat.parent.order,
        "top": sorted(lat.top),
        "nodes": [list(ref.sorted_members) for ref in lat.nodes],
        "edges": [list(e) for e in lat.edges],
        "conjugacy_classes": [list(c) for c in lat.conjugacy_classes],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def cache_load(path: Union[str, Path], G: FiniteGroup) -> _lattice.SubgroupLattice:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # UnicodeDecodeError and JSONDecodeError too
        raise CacheMismatchError(f"unreadable cache file: {exc}") from None
    if not isinstance(payload, dict):
        raise CacheMismatchError("cache payload is not a JSON object")
    if payload.get("format_version") != CACHE_FORMAT_VERSION:
        raise CacheMismatchError(
            f"cache format version {payload.get('format_version')} != {CACHE_FORMAT_VERSION}"
        )
    if payload.get("group_checksum") != group_checksum(G):
        raise CacheMismatchError("cache checksum does not match this group")
    try:
        members = [_checked_indices(m, G.order, "node member") for m in payload["nodes"]]
        n = len(members)
        edges = [tuple(_checked_indices(e, n, "edge index")) for e in payload["edges"]]
        classes = [tuple(_checked_indices(c, n, "class index")) for c in payload["conjugacy_classes"]]
        top = frozenset(_checked_indices(payload["top"], G.order, "top member"))
    except (KeyError, TypeError) as exc:
        raise CacheMismatchError(f"malformed cache payload: {exc!r}") from None
    if any(len(e) != 2 for e in edges):
        raise CacheMismatchError("cache edge is not a pair")
    return _lattice.SubgroupLattice(
        parent=G,
        top=top,
        nodes=tuple(SubgroupRef(G, frozenset(m)) for m in members),
        edges=tuple(edges),
        conjugacy_classes=tuple(classes),
    )
