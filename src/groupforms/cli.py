"""Command-line interface: analyze, batch, lattice.

Exit codes: 0 all checks passed; 1 at least one check failed; 2 operational
error (unparsable input, unwritable output, budget exceeded; the lattice
budget only skips what it refuses, except in ``example864``); 3 nothing was
decided: every check skipped, for an unmet hypothesis (the requested theorem
does not apply to the given group/formation) or for the lattice budget. One
rule maps status counts to the code: ``analyze`` applies it to its report's
summary, ``batch`` to its aggregate over every file (a file that cannot be
loaded or checked counts as an error), so a batch in which every check
skipped exits 3 and an empty directory exits 0.

Reports are deterministic: no timestamps, sorted keys, and batch output is
assembled in a fixed order regardless of worker parallelism.

The ``--budget-*`` options form one ``permgroup.Budgets``, put in force for
the whole run (for ``batch``, for each file): the deadline covers loading and
checking, and each budget binds where the work happens. A value that is not
a budget, or a ``--jobs`` below 1, is a usage error (exit 2, no stdout).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import suppress
from multiprocessing import Pool
from pathlib import Path
from typing import Optional

from . import catalog as _catalog
from . import groupfile as _groupfile
from . import lattice as _lattice
from . import reports as _reports
from . import structure as _structure
from .formations import BUILT_IN, formation_by_name
from .permgroup import (
    Budgets,
    FiniteGroup,
    GroupBudgetError,
    GroupError,
    check_deadline,
    current_budgets,
    is_count,
    is_seconds,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2
EXIT_HYPOTHESIS = 3

ALL_CHECKS = ("theorem1", "theorem2", "corollary1", "corollary2", "lemmas")
CHECK_NAMES = ALL_CHECKS + ("example864", "all")

# what a run reports as an operational error (exit 2) instead of raising
_OPERATIONAL = (GroupError, GroupBudgetError, OSError)


def _option(convert, valid, rule: str):
    """An argparse type: the converted text if it converts and is ``valid``,
    else a usage error saying what the value must be."""
    def parse(text: str):
        with suppress(ValueError):
            if valid(convert(text)):
                return convert(text)
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return parse


def _budgets(args: argparse.Namespace) -> Budgets:
    return Budgets(args.budget_max_order, args.budget_lattice, args.budget_time)


def _load_group(spec: str) -> FiniteGroup:
    path = Path(spec)
    if path.exists():
        return _groupfile.parse_group_file(path)
    try:
        return _catalog.build_named(spec)
    except GroupError as exc:
        raise GroupError(
            f"{spec!r} is neither an existing file nor a constructor expression ({exc})"
        ) from exc


def _run_checks(group: FiniteGroup, formation_name: str, check: str) -> _reports.VerdictReport:
    F = formation_by_name(formation_name)
    report = _reports.VerdictReport(
        kind="analyze",
        subject=_reports.group_descriptor(group),
        formation=F.name,
        budgets=dataclasses.asdict(current_budgets()),
    )
    for name in ALL_CHECKS if check == "all" else (check,):
        try:
            check_deadline()
            if name == "lemmas":
                report.subreports.append(_structure.check_lemma_suite([group], F))
            elif name == "example864":
                report.subreports.append(_structure.verify_paper_example(group))
            else:
                verdict = getattr(_structure, f"check_{name}")(group, F)
                report.checks.append(verdict.to_check_result())
        except GroupBudgetError as exc:
            report.add(name, _reports.ERROR, {"error": str(exc), "incomplete": True})
            break
    return report


def _load_and_check(load, source: str, formation_name: str, check: str,
                    budgets: Budgets) -> _reports.VerdictReport:
    """Load a group and run the checks on it, with the budgets in force for both."""
    with budgets.in_force():
        return _run_checks(load(source), formation_name, check)


def _exit_code(counts: dict) -> int:
    """The exit code of a run from its status counts (a report's summary, or
    the batch aggregate)."""
    if counts[_reports.ERROR]:
        return EXIT_ERROR
    if counts[_reports.FAIL]:
        return EXIT_VIOLATION
    if counts[_reports.PASS] == 0 and counts[_reports.SKIP] > 0:
        return EXIT_HYPOTHESIS
    return EXIT_OK


def _error(exc: object) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_ERROR


def _emit(text: str, out_path: Optional[str], code: int) -> int:
    """Write the report file, if asked, then stdout, and return ``code``; a
    failed write prints no report and is an operational error."""
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            return _error(exc)
    sys.stdout.write(text)
    return code


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        report = _load_and_check(_load_group, args.group, args.formation, args.check,
                                 _budgets(args))
    except _OPERATIONAL as exc:
        return _error(exc)
    return _emit(report.to_json(), args.report, _exit_code(report.summary()))


def _batch_worker(task: tuple) -> dict:
    path, formation_name, check, budgets = task
    try:
        report = _load_and_check(_groupfile.parse_group_file, path, formation_name, check, budgets)
    except _OPERATIONAL as exc:
        return {"file": Path(path).name, "error": str(exc)}
    return {
        "file": Path(path).name,
        "order": report.subject["order"],
        "name": report.subject["name"],
        "report": report.to_dict(),
    }


def cmd_batch(args: argparse.Namespace) -> int:
    budgets = _budgets(args)
    directory = Path(args.dir)
    if not directory.is_dir():
        return _error(f"{directory} is not a directory")
    files = sorted(p for p in directory.iterdir() if p.suffix == ".pgrp")
    tasks = [(str(p), args.formation, args.check, budgets) for p in files]
    if args.jobs > 1 and len(tasks) > 1:
        with Pool(min(args.jobs, len(tasks))) as pool:
            results = pool.map(_batch_worker, tasks)
    else:
        results = [_batch_worker(t) for t in tasks]
    # deterministic assembly: by (order, name, file); errors last, by file
    ok_results = [r for r in results if "error" not in r]
    err_results = [r for r in results if "error" in r]
    ok_results.sort(key=lambda r: (r["order"], r["name"] or "", r["file"]))
    err_results.sort(key=lambda r: r["file"])
    aggregate = {"pass": 0, "fail": 0, "skip": 0, "error": len(err_results)}
    for r in ok_results:
        for status, n in r["report"]["summary"].items():
            aggregate[status] += n
    out = _reports.envelope("batch", dataclasses.asdict(budgets), args.formation)
    out.update(check=args.check, runs=ok_results, errors=err_results, aggregate=aggregate)
    return _emit(_reports.dumps(out), args.report, _exit_code(aggregate))


def cmd_lattice(args: argparse.Namespace) -> int:
    cache_path = Path(args.cache) if args.cache else None
    loaded = None
    with _budgets(args).in_force():
        try:
            group = _load_group(args.group)
            if cache_path and cache_path.exists():
                with suppress(_groupfile.CacheMismatchError):
                    loaded = _groupfile.cache_load(cache_path, group)
            if loaded is None:
                lat = _lattice.all_subgroups(group)
                if cache_path:
                    _groupfile.cache_save(lat, cache_path)
            else:
                _lattice.check_lattice_size(group)  # the budget binds on a cache hit too
                lat = loaded
        except _OPERATIONAL as exc:
            return _error(exc)
    source = "computed" if loaded is None else "cache"
    return _emit(_reports.dumps({
        "group": group.name,
        "order": group.order,
        "subgroups": len(lat.nodes),
        "maximal_edges": len(lat.edges),
        "conjugacy_classes": len(lat.conjugacy_classes),
        "source": source,
    }), None, EXIT_OK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupforms",
        description="Formation-theoretic subgroup predicates and structure checks "
        "for small permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the rules of ``Budgets`` itself; a run from the command line also needs
    # a time budget above 0, since one of 0 decides nothing
    at_least_one = _option(int, is_count, "an integer of at least 1")
    seconds = _option(
        float, lambda t: is_seconds(t) and t > 0, "a finite number of seconds above 0"
    )

    def add_size_budgets(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget-max-order", type=at_least_one, default=Budgets.max_order)
        p.add_argument("--budget-lattice", type=at_least_one, default=Budgets.lattice)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--formation", default="N", choices=list(BUILT_IN))
        p.add_argument("--report", help="also write the JSON report to this path")
        add_size_budgets(p)
        p.add_argument("--budget-time", type=seconds, default=None,
                       help="soft per-run time budget in seconds")

    p_analyze = sub.add_parser("analyze", help="run checks on a single group")
    p_analyze.add_argument("--group", required=True,
                           help="path to a .pgrp file or a constructor expression")
    p_analyze.add_argument("--check", default="all", choices=CHECK_NAMES)
    add_common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_batch = sub.add_parser("batch", help="verify every .pgrp file in a directory")
    p_batch.add_argument("--dir", required=True)
    p_batch.add_argument("--check", default="lemmas", choices=CHECK_NAMES)
    p_batch.add_argument("--jobs", type=at_least_one, default=1)
    add_common(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    p_lat = sub.add_parser("lattice", help="compute or load a subgroup lattice cache")
    p_lat.add_argument("--group", required=True)
    p_lat.add_argument("--cache", help="cache file path (load if valid, else recompute)")
    add_size_budgets(p_lat)
    p_lat.set_defaults(func=cmd_lattice, budget_time=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
