"""The benchmark workloads: their inputs, how one group is checked, and the
verdicts each must give.

Each group is checked the way ``groupforms batch`` checks one file: the
structure checker runs on the parsed group, its result goes into an
``analyze`` report with the CLI's default budgets, and the report is
serialised with ``VerdictReport.to_json``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

# The CLI defaults of ``analyze``/``batch``, recorded in every report.
CLI_BUDGETS = {"max_order": 2000, "lattice": 400, "time": None}


@dataclass(frozen=True)
class Workload:
    name: str
    check: str  # the ``--check`` value of ``groupforms batch``
    formation: str
    catalog_max_order: int  # 0: the shipped order-864 example instead of the catalog
    groups: int
    min_order: int
    max_order: int
    expected: dict  # verdict totals over all groups


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="example864",
            check="example864",
            formation="N",
            catalog_max_order=0,
            groups=1,
            min_order=864,
            max_order=864,
            expected={"pass": 10, "fail": 1, "skip": 0, "error": 0},
        ),
        Workload(
            name="lemmas-A60",
            check="lemmas",
            formation="A",
            catalog_max_order=60,
            groups=172,
            min_order=1,
            max_order=60,
            expected={"pass": 516, "fail": 0, "skip": 516, "error": 0},
        ),
        Workload(
            name="theorem1-120",
            check="theorem1",
            formation="N",
            catalog_max_order=120,
            groups=344,
            min_order=1,
            max_order=120,
            expected={"pass": 111, "fail": 0, "skip": 233, "error": 0},
        ),
    )
}

# The worked example's eleven checks. Only the proper-subgroup claim is red:
# twelve of the 105 proper subgroups of the Sylow 2-subgroup are not
# NA-subnormal, which is the correct verdict on the shipped group.
EXAMPLE_VERDICTS = {
    "sylow3-elementary-abelian-27": ("pass", None),
    "sylow3-f-subnormal": ("pass", None),
    "sylow2-selfnormalizing-32": ("pass", None),
    "sylow2-not-f-subnormal": ("pass", None),
    "sylow2-not-f-abnormal": ("pass", None),
    "sylow2-proper-subgroups-f-subnormal": ("fail", {"proper_subgroups": 105, "not_subnormal": 12}),
    "f-residual-36": ("pass", None),
    "f-residual-equals-fitting": ("pass", None),
    "nilpotent-residual-108": ("pass", None),
    "derived-216": ("pass", None),
    "residual-chain-strict": ("pass", None),
}

STATUSES = ("pass", "fail", "skip", "error")


def ops_per_group(wl: Workload) -> int:
    """An operation is one group's check, or one of the example's checks."""
    return len(EXAMPLE_VERDICTS) if wl.check == "example864" else 1


def check_group(wl: Workload, G):
    """Run the workload's checker on one group; return the ``analyze`` report."""
    # Imported here: the parent process loads this module before it has put
    # the package sources on the path.
    from groupforms import reports, structure
    from groupforms.formations import formation_by_name

    F = formation_by_name(wl.formation)
    report = reports.VerdictReport(
        kind="analyze",
        subject=reports.group_descriptor(G),
        formation=F.name,
        budgets=dict(CLI_BUDGETS),
    )
    if wl.check == "example864":
        report.subreports.append(structure.verify_paper_example(G))
    elif wl.check == "lemmas":
        report.subreports.append(structure.check_lemma_suite([G], F))
    else:
        report.checks.append(structure.check_theorem1(G, F).to_check_result())
    return report


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def operations(wl: Workload, report, text: str) -> list[dict]:
    """One record per operation: whether its verdict is the expected one, and
    a digest of its report bytes."""
    if wl.check == "example864":
        checks = report.subreports[0].checks
        names = [c.check for c in checks]
        if sorted(names) != sorted(EXAMPLE_VERDICTS):
            return failed_operations(wl, f"unexpected example checks {names}")
        out = []
        for c in checks:
            status, details = EXAMPLE_VERDICTS[c.check]
            ok = c.status == status and (details is None or c.details == details)
            out.append({"ok": ok, "sha": _sha(json.dumps(c.to_dict(), sort_keys=True))})
        return out
    counts = report.summary()
    return [{"ok": counts["fail"] == 0 and counts["error"] == 0, "sha": _sha(text)}]


def failed_operations(wl: Workload, reason: str) -> list[dict]:
    return [{"ok": False, "sha": reason}] * ops_per_group(wl)


def score(wl: Workload, children: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations over the check processes of one run.

    An operation fails if its verdict is wrong, or if its report bytes differ
    from those of the first process of the run. A process whose verdict
    totals differ from the expected ones has at least half their L1 distance
    in wrong verdicts, even where no single operation shows which.
    """
    attempted = failed = 0
    reference = children[0]["ops"]
    for child in children:
        ops = child["ops"]
        bad = sum(
            1
            for i, op in enumerate(ops)
            if not op["ok"] or i >= len(reference) or op["sha"] != reference[i]["sha"]
        )
        misplaced = sum(abs(child["totals"].get(s, 0) - wl.expected[s]) for s in STATUSES) // 2
        attempted += len(ops)
        failed += min(max(bad, misplaced), len(ops))
    return attempted, failed


def report_digest(child: dict) -> str:
    """sha256 over the per-operation report digests of one process."""
    return _sha("".join(op["sha"] for op in child["ops"]))
