"""Seeded benchmark inputs, written as ``pgrp v1`` files.

A seed relabels the points of every input group by a permutation of its
degree. The relabelling is plain arithmetic on the cycle text of each
generator line, so it does not depend on the code being measured. Seed 0
keeps the shipped labelling. A relabelled group is conjugate to the original
in the symmetric group, so every verdict is unchanged while the canonical
element order, and with it the search order, changes.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLE_FILE = SRC / "groupforms" / "data" / "g864.pgrp"

_NUMBER = re.compile(r"\d+")


def relabel_images(seed: int, key: str, degree: int) -> list[int]:
    """1-based images of points 1..degree; the identity for seed 0."""
    images = list(range(1, degree + 1))
    if seed != 0:
        random.Random(f"{seed}:{key}").shuffle(images)
    return images


def relabel_cycle_text(line: str, images: list[int]) -> str:
    """Rename every point of a cycle-notation line through ``images``."""
    return _NUMBER.sub(lambda m: str(images[int(m.group()) - 1]), line)


def relabel_group_text(text: str, seed: int, key: str) -> str:
    """Relabel the generator lines of a ``pgrp v1`` text; other lines stay."""
    degree = None
    out = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body.startswith("degree "):
            degree = int(body.split()[1])
        elif body.startswith("("):
            if degree is None:
                raise ValueError(f"{key}: generator line before the degree line")
            raw = relabel_cycle_text(body, relabel_images(seed, key, degree))
        out.append(raw)
    return "\n".join(out) + "\n"


def declared_order(text: str) -> int:
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body.startswith("order "):
            return int(body.split()[1])
    raise ValueError("group file declares no order")


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "groupforms").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pgrp"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def catalog_texts(max_order: int, cache_dir: Path) -> list[str]:
    """Seed-0 texts of ``catalog.catalog_groups(max_order)``.

    Building the catalog to order 120 takes ~9 s, so the texts are cached
    under ``cache_dir``, keyed by a digest of the package sources.
    """
    cache = cache_dir / f"catalog{max_order}-{_source_digest()}.json"
    if cache.exists():
        return json.loads(cache.read_text(encoding="utf-8"))
    from groupforms import catalog, groupfile

    texts = [groupfile.emit_group_text(g) for g in catalog.catalog_groups(max_order)]
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_suffix(".tmp")
    tmp.write_text(json.dumps(texts), encoding="utf-8")
    tmp.replace(cache)
    return texts


def write_inputs(texts: list[str], seed: int, out_dir: Path) -> dict:
    """Relabel ``texts`` by ``seed`` into ``out_dir``; return the manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.glob("*.pgrp"):
        old.unlink()
    files = []
    digest = hashlib.sha256()
    for i, text in enumerate(texts):
        data = relabel_group_text(text, seed, str(i))
        path = out_dir / f"{i:04d}.pgrp"
        path.write_text(data, encoding="utf-8")
        digest.update(data.encode())
        files.append(str(path))
    return {
        "seed": seed,
        "files": files,
        "orders": [declared_order(t) for t in texts],
        "input_sha256": digest.hexdigest(),
    }


def check_counts(manifest: dict, count: int, min_order: int, max_order: int) -> None:
    """Refuse inputs whose group count or declared orders are not the expected ones."""
    orders = manifest["orders"]
    if len(orders) != count or not all(min_order <= n <= max_order for n in orders):
        raise ValueError(
            f"expected {count} groups of order {min_order}..{max_order}, got {len(orders)} "
            f"of order {min(orders, default=None)}..{max(orders, default=None)}"
        )
