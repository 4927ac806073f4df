"""Acceptance criteria, one test per criterion (criterion 1 split in two).

Each test prints and records a PASS/FAIL line; the summary is echoed at the
end of the pytest run. Criterion 1b implements the worked example's
proper-subgroup claim faithfully; it is expected to fail (see the
sylow2-proper-subgroups check details and the README's "known deviation"
note): twelve proper subgroups of the bundled group's Sylow 2-subgroup are
not NA-subnormal.
"""

from __future__ import annotations

import json
import time

import pytest

from conftest import record_criterion
from helpers import (
    is_f_subnormal_via_quotients,
    is_f_subnormal_via_residual,
    is_schmidt,
    passes_deciding_all,
    residual_by_scan,
    subgroup_orbit,
    subgroup_refs,
)

from groupforms import catalog, structure
from groupforms import lattice as lat
from groupforms.formations import (
    ABELIAN,
    NILPOTENT,
    NILPOTENT_DERIVED,
    SOLUBLE,
    SUPERSOLUBLE,
    residual,
)
from groupforms.permgroup import (
    SubgroupRef,
    derived_subgroup,
    is_nilpotent,
    is_soluble,
    lower_central_series,
)
from groupforms.subnormal import is_f_subnormal

FOUR_FORMATIONS = (ABELIAN, NILPOTENT, SUPERSOLUBLE, NILPOTENT_DERIVED)


def _checks_by_name(report):
    return {c.check: c for c in report.checks}


def test_criterion_1a_paper_example_invariants(g864):
    start = time.monotonic()
    report = structure.verify_paper_example(g864)
    elapsed = time.monotonic() - start
    checks = _checks_by_name(report)
    expected_pass = [
        "sylow3-elementary-abelian-27",
        "sylow3-f-subnormal",
        "sylow2-selfnormalizing-32",
        "sylow2-not-f-subnormal",
        "sylow2-not-f-abnormal",
        "f-residual-36",
        "f-residual-equals-fitting",
        "nilpotent-residual-108",
        "derived-216",
        "residual-chain-strict",
    ]
    failed = [name for name in expected_pass if checks[name].status != "pass"]
    ok = not failed and elapsed <= 600
    record_criterion(
        "1a paper example: residual/Sylow invariants",
        ok,
        f"{elapsed:.0f}s",
    )
    assert not failed, f"failed example checks: {failed}"
    assert elapsed <= 600, f"example run took {elapsed:.0f}s > 10 min"
    # stash for 1b without recomputation
    test_criterion_1a_paper_example_invariants.report = report


def test_criterion_1b_paper_example_sylow2_proper_subgroups(g864):
    report = getattr(test_criterion_1a_paper_example_invariants, "report", None)
    if report is None:
        report = structure.verify_paper_example(g864)
    check = _checks_by_name(report)["sylow2-proper-subgroups-f-subnormal"]
    ok = check.status == "pass"
    record_criterion(
        "1b paper example: every proper subgroup of Sylow-2 NA-subnormal",
        ok,
        "paper defect: " + json.dumps(check.details) if not ok else "",
    )
    assert ok, (
        "the worked example's proper-subgroup claim fails as stated: "
        f"{check.details['not_subnormal']} of {check.details['proper_subgroups']} proper "
        "subgroups of the Sylow 2-subgroup are not NA-subnormal. The README reads this as a "
        "defect in the source material's worked example rather than in the checker: "
        "tests/test_example864_tabulation.py shows that the extensions of K = S3 x S3 x A4 "
        "by C2 that swap the S3 blocks are two groups, that the one matching the example's "
        "other invariants is the shipped group, and that 12 of its 105 are not NA-subnormal."
    )


def test_criterion_2_theorem1_equivalence(catalog120):
    start = time.monotonic()
    counterexamples = []
    count = 0
    for g in catalog120:
        if not is_soluble(g) or is_nilpotent(g):
            continue
        count += 1
        v = structure.check_theorem1(g, NILPOTENT)
        assert v.hypothesis_ok, g.name
        if not passes_deciding_all(v):
            counterexamples.append((g.name, v.statements))
    elapsed = time.monotonic() - start
    ok = not counterexamples and elapsed <= 300
    record_criterion(
        "2  theorem 1: S1/S2/S3 equivalent, soluble non-nilpotent <= 120",
        ok,
        f"{count} groups, {elapsed:.0f}s",
    )
    assert not counterexamples, counterexamples
    assert elapsed <= 300


def test_criterion_3_theorem2_biconditional(catalog120):
    start = time.monotonic()
    counterexamples = []
    insoluble_left = []
    count = 0
    for g in catalog120:
        if g.order > 100 or is_nilpotent(g):
            continue
        count += 1
        v = structure.check_theorem2(g, NILPOTENT)
        assert v.hypothesis_ok, g.name
        if not passes_deciding_all(v):
            counterexamples.append((g.name, v.statements))
        if v.statements["left"] and not v.details["left_side_soluble"]:
            insoluble_left.append(g.name)
    elapsed = time.monotonic() - start
    ok = not counterexamples and not insoluble_left and elapsed <= 300
    record_criterion(
        "3  theorem 2: biconditional, non-nilpotent <= 100",
        ok,
        f"{count} groups, {elapsed:.0f}s",
    )
    assert not counterexamples, counterexamples
    assert not insoluble_left, insoluble_left
    assert elapsed <= 300


def test_criterion_4_lemma_suite(catalog120):
    start = time.monotonic()
    le60 = [g for g in catalog120 if g.order <= 60]
    le100 = [g for g in catalog120 if g.order <= 100]
    failures = []
    for F in FOUR_FORMATIONS:
        rep = structure.check_lemma_suite(le60, F, lemmas=("1", "2", "3", "4"))
        counts = rep.summary()
        if counts["fail"]:
            failures.append((F.name, [c.details for c in rep.checks if c.status == "fail"]))
    rep5 = structure.check_lemma_suite(
        [g for g in le100 if is_soluble(g)], NILPOTENT, lemmas=("5",)
    )
    if rep5.summary()["fail"]:
        failures.append(("lemma5", [c.details for c in rep5.checks if c.status == "fail"]))
    for F in (NILPOTENT, SUPERSOLUBLE):
        rep6 = structure.check_lemma_suite(le100, F, lemmas=("6",))
        if rep6.summary()["fail"]:
            failures.append((f"lemma6/{F.name}", [c.details for c in rep6.checks if c.status == "fail"]))
    elapsed = time.monotonic() - start
    ok = not failures
    record_criterion(
        "4  lemma suite: 1-4 (<=60, four formations), 5 and 6 (<=100)",
        ok,
        f"{elapsed:.0f}s",
    )
    assert not failures, failures


def test_criterion_5_oracle_equivalences(catalog120):
    start = time.monotonic()
    residual_bad = []
    for g in catalog120:
        if residual(ABELIAN, g).members != derived_subgroup(g).members:
            residual_bad.append((g.name, "A"))
        if residual(NILPOTENT, g).members != lower_central_series(g)[-1].members:
            residual_bad.append((g.name, "N"))
        # production (a closed form for every formation) against the generic scan
        for F in FOUR_FORMATIONS + (SOLUBLE,):
            if residual(F, g).members != residual_by_scan(F, g).members:
                residual_bad.append((g.name, F.name, "scan"))
    mismatches = []
    pairs = 0
    for g in catalog120:
        if g.order > 48:
            continue
        for F in FOUR_FORMATIONS:
            for H in subgroup_refs(g):
                pairs += 1
                got = is_f_subnormal(g, H, F)
                if got != is_f_subnormal_via_residual(g, H, F):
                    mismatches.append((g.name, F.name, H.order))
                if got != is_f_subnormal_via_quotients(g, H, F):
                    mismatches.append((g.name, F.name, H.order, "quotients"))
    elapsed = time.monotonic() - start
    ok = not residual_bad and not mismatches
    record_criterion(
        "5  oracles: residuals vs series and scan; three subnormality routes <= 48",
        ok,
        f"{pairs} pairs, {elapsed:.0f}s",
    )
    assert not residual_bad, residual_bad
    assert not mismatches, mismatches


def test_criterion_6_structural_oracles(catalog120):
    start = time.monotonic()
    carter_bad = []
    for g in catalog120:
        if g.order > 100 or not is_soluble(g):
            continue
        carters = structure.carter_subgroups(g)
        if not carters:
            carter_bad.append((g.name, "no Carter subgroup"))
            continue
        orbit = set(subgroup_orbit(g, carters[0].members, g.whole()))
        if {c.members for c in carters} != orbit:
            carter_bad.append((g.name, "multiple conjugacy classes"))
    schmidt_bad = []
    for g in catalog120:
        if g.order > 100:
            continue
        brute = (not is_nilpotent(g)) and all(
            is_nilpotent(SubgroupRef(g, s))
            for s in lat.subgroup_sets(g)
            if len(s) < g.order
        )
        if is_schmidt(g) != brute:
            schmidt_bad.append(g.name)
    ef_ok = (
        structure.is_ef_group(catalog.symmetric(3), NILPOTENT)
        and structure.is_ef_group(catalog.alternating(4), NILPOTENT)
        and not structure.is_ef_group(catalog.symmetric(4), NILPOTENT)
    )
    elapsed = time.monotonic() - start
    ok = not carter_bad and not schmidt_bad and ef_ok
    record_criterion(
        "6  structural oracles: Carter, Schmidt, E_N verdicts",
        ok,
        f"{elapsed:.0f}s",
    )
    assert not carter_bad, carter_bad
    assert not schmidt_bad, schmidt_bad
    assert ef_ok


def test_criterion_7_determinism_and_interface(tmp_path, capsys):
    from groupforms import groupfile
    from groupforms.cli import main

    start = time.monotonic()
    # repeated analyze runs are byte-identical
    main(["analyze", "--group", "S4", "--formation", "N", "--check", "all"])
    first = capsys.readouterr().out
    main(["analyze", "--group", "S4", "--formation", "N", "--check", "all"])
    second = capsys.readouterr().out
    same_report = first == second
    # batch: parallel equals sequential, byte for byte
    d = tmp_path / "groups"
    d.mkdir()
    for name in ("S3", "A4", "C6", "D4", "Q8", "S4", "D6"):
        groupfile.write_group_file(catalog.build_named(name), d / f"{name.lower()}.pgrp")
    main(["batch", "--dir", str(d), "--check", "theorem1", "--jobs", "1"])
    seq = capsys.readouterr().out
    main(["batch", "--dir", str(d), "--check", "theorem1", "--jobs", "3"])
    par = capsys.readouterr().out
    same_batch = seq == par
    # parser round-trip: emit(parse(.)) is canonical and idempotent
    text = "pgrp v1\ndegree 4\n# comment\n(1 2 3 4)\n(1 2)\n"
    once = groupfile.emit_group_text(groupfile.parse_group_text(text))
    twice = groupfile.emit_group_text(groupfile.parse_group_text(once))
    roundtrip = once == twice
    # cache round-trip identity
    g = catalog.symmetric(4)
    lattice = lat.all_subgroups(g)
    cache_path = tmp_path / "s4.lattice.json"
    groupfile.cache_save(lattice, cache_path)
    loaded = groupfile.cache_load(cache_path, g)
    cache_ok = (
        {r.members for r in loaded.nodes} == {r.members for r in lattice.nodes}
        and set(loaded.edges) == set(lattice.edges)
    )
    elapsed = time.monotonic() - start
    ok = same_report and same_batch and roundtrip and cache_ok
    record_criterion(
        "7  determinism: reports, parallel batch, parser/cache round-trips",
        ok,
        f"{elapsed:.0f}s",
    )
    assert same_report
    assert same_batch
    assert roundtrip
    assert cache_ok
