"""Structured verdict reports with a stable, diffable JSON serialization.

Schema (version 1), keys always emitted in sorted order:

    {
      "schema_version": 1,
      "tool": "groupforms",
      "tool_version": "<package version>",
      "kind": "<analyze|batch|lemma-suite|...>",
      "budgets": {...},
      "subject": {"name": ..., "order": ..., "degree": ..., "generators": [...]},
      "formation": "<name or null>",
      "checks": [
        {"check": ..., "status": "pass|fail|skip|error",
         "details": {...}, "witnesses": [...]}
      ],
      "summary": {"pass": n, "fail": n, "skip": n, "error": n}
    }

``envelope`` writes the first six keys for every kind; a ``batch`` report
has ``check``, ``runs``, ``errors`` and ``aggregate`` in place of the rest.
Reports never embed timestamps or unordered containers, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from .permgroup import FiniteGroup, SubgroupRef, perm_to_cycle_text

TOOL_NAME = "groupforms"
TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
SKIP = "skip"
ERROR = "error"

_STATUS_ORDER = (PASS, FAIL, SKIP, ERROR)


def dumps(payload: dict) -> str:
    """The one JSON form of every CLI output: sorted keys, indent 2, and a
    trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def envelope(kind: str, budgets: dict, formation: Optional[str]) -> dict:
    """The keys every report starts from; each kind adds its own."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "tool_version": TOOL_VERSION,
        "kind": kind,
        "budgets": budgets,
        "formation": formation,
    }


def subgroup_witness(H: SubgroupRef) -> dict:
    """Serializable handle for a subgroup: order plus generator cycle text."""
    return {
        "order": H.order,
        "generators": [perm_to_cycle_text(p) for p in H.generator_perms()],
    }


def group_descriptor(G: FiniteGroup) -> dict:
    return {
        "name": G.name,
        "degree": G.degree,
        "order": G.order,
        "generators": [perm_to_cycle_text(G.elements[i]) for i in G.generators]
        or [perm_to_cycle_text(G.elements[G.identity])],
    }


@dataclass
class CheckResult:
    check: str
    status: str
    details: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class VerdictReport:
    kind: str
    subject: Optional[dict] = None
    formation: Optional[str] = None
    budgets: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)
    subreports: list["VerdictReport"] = field(default_factory=list)

    def add(self, check: str, status: str, details: Optional[dict] = None, witnesses=None) -> None:
        self.checks.append(CheckResult(check, status, details or {}, witnesses or []))

    def summary(self) -> dict:
        counts = {s: 0 for s in _STATUS_ORDER}
        for c in self.checks:
            counts[c.status] = counts.get(c.status, 0) + 1
        for sub in self.subreports:
            for s, n in sub.summary().items():
                counts[s] = counts.get(s, 0) + n
        return counts

    def to_dict(self) -> dict:
        out = envelope(self.kind, self.budgets, self.formation)
        out.update(
            subject=self.subject,
            checks=[c.to_dict() for c in self.checks],
            summary=self.summary(),
        )
        if self.subreports:
            out["reports"] = [sub.to_dict() for sub in self.subreports]
        return out

    def to_json(self) -> str:
        return dumps(self.to_dict())
