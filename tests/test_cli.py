"""CLI behavior: exit codes, reports, determinism."""

from __future__ import annotations

import hashlib
import itertools
import json
import time

import pytest

from groupforms import catalog, groupfile, reports
from groupforms.cli import EXIT_ERROR, EXIT_HYPOTHESIS, EXIT_OK, EXIT_VIOLATION, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _group_dir(tmp_path, *names):
    d = tmp_path / "groups"
    d.mkdir()
    for name in names:
        groupfile.write_group_file(catalog.build_named(name), d / f"{name.lower()}.pgrp")
    return d


def test_analyze_theorem1_pass(capsys):
    code, out = run_cli(capsys, "analyze", "--group", "S3", "--formation", "N", "--check", "theorem1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["checks"][0]["status"] == "pass"
    assert payload["subject"]["order"] == 6


def test_analyze_hypothesis_violation_exit(capsys):
    code, out = run_cli(capsys, "analyze", "--group", "C6", "--formation", "N", "--check", "theorem1")
    assert code == EXIT_HYPOTHESIS
    payload = json.loads(out)
    assert payload["checks"][0]["status"] == "skip"


def test_analyze_unknown_group_errors(capsys):
    code = main(["analyze", "--group", "nonsense:9", "--check", "theorem1"])
    assert code == EXIT_ERROR


def test_analyze_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "analyze", "--group", "A4", "--formation", "N",
        "--check", "theorem2", "--report", str(out_path),
    )
    assert code == EXIT_OK
    assert out_path.read_text() == out


def test_analyze_deterministic(capsys):
    code1, out1 = run_cli(capsys, "analyze", "--group", "S4", "--formation", "N", "--check", "all")
    code2, out2 = run_cli(capsys, "analyze", "--group", "S4", "--formation", "N", "--check", "all")
    assert (code1, out1) == (code2, out2)
    assert code1 == EXIT_OK


def test_analyze_honours_lattice_budget(capsys):
    code, out = run_cli(
        capsys, "analyze", "--group", "S4", "--check", "theorem1", "--budget-lattice", "5"
    )
    assert code == EXIT_OK
    details = json.loads(out)["checks"][0]["details"]
    assert "s2_skipped" in details
    assert "S2" not in details["statements"]
    # the Sylow 2-subgroup (order 8) is past the budget too
    assert "primary_skipped" in details
    assert "primary_sn_or_selfnormalizing" not in details
    assert "primary_sn_or_abnormal" not in details


@pytest.mark.parametrize("spec", ["direct(S4,S4)", "S5"])
def test_analyze_honours_max_order_budget(capsys, spec):
    code = main(["analyze", "--group", spec, "--check", "theorem1", "--budget-max-order", "100"])
    assert code == EXIT_ERROR
    assert "max-order budget (100)" in capsys.readouterr().err


def test_missing_group_file_is_not_reported_as_a_bad_expression(tmp_path, capsys):
    missing = tmp_path / "missing.pgrp"
    code = main(["analyze", "--group", str(missing), "--check", "theorem1"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert f"{str(missing)!r} is neither an existing file nor a constructor expression" in err
    assert "Traceback" not in err


def test_batch_isolates_a_file_over_the_max_order_budget(tmp_path, capsys):
    d = _group_dir(tmp_path, "S3", "S4")
    code, out = run_cli(capsys, "batch", "--dir", str(d), "--check", "theorem1",
                        "--budget-max-order", "10")
    assert code == EXIT_ERROR
    payload = json.loads(out)
    assert [e["file"] for e in payload["errors"]] == ["s4.pgrp"]
    assert [r["file"] for r in payload["runs"]] == ["s3.pgrp"]
    assert payload["budgets"] == {"lattice": 400, "max_order": 10, "time": None}


def test_time_budget_binds_within_a_single_check(monkeypatch, capsys):
    # A clock that advances 1 ms per reading. Loading and the check before the
    # first check read it a few times; the U lemma suite on this group reads
    # it about 2,800 times, so the 0.5 s deadline passes inside the check.
    ticks = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: next(ticks) / 1000)
    code, out = run_cli(
        capsys, "analyze", "--group", "direct(S4,C2)", "--formation", "U",
        "--check", "lemmas", "--budget-time", "0.5",
    )
    assert code == EXIT_ERROR
    payload = json.loads(out)
    assert "reports" not in payload  # no partial lemma report
    result = payload["checks"][0]
    assert (result["check"], result["status"]) == ("lemmas", reports.ERROR)
    assert result["details"] == {"error": "time budget of 0.5s exceeded", "incomplete": True}


def test_time_budget_covers_loading(capsys):
    # building the order-864 group alone takes well over 10 ms
    code, out = run_cli(
        capsys, "analyze", "--group", "example864", "--check", "example864",
        "--budget-time", "0.01",
    )
    assert code == EXIT_ERROR
    result = json.loads(out)["checks"][0]
    assert (result["check"], result["status"]) == ("example864", reports.ERROR)


def test_analyze_lemmas_honour_lattice_budget(capsys):
    # a lemma whose all-subgroup quantifier is over the budget is skipped;
    # lemmas 5 and 6 quantify over primary cyclic subgroups only
    code, out = run_cli(
        capsys, "analyze", "--group", "S4", "--check", "lemmas", "--budget-lattice", "5"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["checks"] == []
    results = {c["check"]: c for c in payload["reports"][0]["checks"]}
    for lemma in ("lemma1", "lemma2", "lemma3", "lemma4"):
        assert results[lemma]["status"] == reports.SKIP
        assert results[lemma]["details"]["reason"] == (
            "all-subgroup quantifier exceeds the lattice budget"
        )
    assert results["lemma5"]["status"] == results["lemma6"]["status"] == reports.PASS


def test_analyze_all_under_a_small_lattice_budget_has_no_error(capsys):
    code, out = run_cli(
        capsys, "analyze", "--group", "S4", "--check", "all", "--budget-lattice", "5"
    )
    payload = json.loads(out)
    assert [c["check"] for c in payload["checks"]] == [
        "theorem1", "theorem2", "corollary1", "corollary2"
    ]
    assert [r["kind"] for r in payload["reports"]] == ["lemma-suite"]
    assert len(payload["reports"][0]["checks"]) == 6
    # corollary 1 is skipped because theorem 1 statement (1) fails on S4, and
    # theorem 2, with only its left side decided, decides nothing
    assert payload["summary"] == {"error": 0, "fail": 0, "pass": 4, "skip": 6}
    assert code == EXIT_OK


def test_analyze_example864_corollary1_skips_above_the_lattice_budget(capsys):
    # statement (1) of theorem 1 holds, so the Carter subgroups are needed,
    # and they come from the all-subgroup enumeration the budget refuses
    code, out = run_cli(
        capsys, "analyze", "--group", "example864", "--formation", "NA", "--check", "corollary1",
    )
    assert code == EXIT_HYPOTHESIS
    result = json.loads(out)["checks"][0]
    assert (result["check"], result["status"]) == ("corollary1", reports.SKIP)
    details = result["details"]
    assert details["carter_skipped"] == "all-subgroup quantifier exceeds the lattice budget"
    assert details["hypothesis"] == "empirical only: formation not flagged superradical"
    assert details["statements"] == {}


@pytest.mark.parametrize(
    "check,statement",
    [
        ("theorem1", "S2"),
        ("theorem2", "right"),
        ("corollary2", "C2_ef_group"),
        ("lemmas", "lemma4"),
    ],
)
def test_analyze_lattice_budget_above_default(capsys, check, statement):
    # order 402 lies between the default budget (400) and the one passed here
    code, out = run_cli(
        capsys, "analyze", "--group", "direct(S3,C67)", "--check", check, "--budget-lattice", "500"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    if check == "lemmas":
        result = {c["check"]: c for c in payload["reports"][0]["checks"]}[statement]
        assert result["status"] == reports.PASS
    else:
        result = payload["checks"][0]
        assert result["status"] == reports.PASS
        assert statement in result["details"]["statements"]


@pytest.mark.parametrize("formation", ["N", "U"])
def test_checkers_never_build_a_full_lattice(monkeypatch, capsys, formation):
    # the full lattice serves only the lattice command and its cache
    from groupforms import lattice

    def refuse(*args, **kwargs):
        raise AssertionError("a checker built a full subgroup lattice")

    monkeypatch.setattr(lattice, "all_subgroups", refuse)
    code, out = run_cli(
        capsys, "analyze", "--group", "S4", "--formation", formation, "--check", "all"
    )
    assert code == EXIT_OK
    assert json.loads(out)["summary"]["error"] == 0


def test_analyze_example864_with_lattice_budget_1000(capsys):
    # order 864 is past the default budget; its subgroups come from cyclic extension
    code, out = run_cli(
        capsys, "analyze", "--group", "example864", "--formation", "NA",
        "--check", "theorem1", "--budget-lattice", "1000",
    )
    assert code == EXIT_VIOLATION
    details = json.loads(out)["checks"][0]["details"]
    assert details["statements"] == {"S1": True, "S2": False, "S3": False}
    assert details["hypothesis"] == "empirical only: formation not flagged superradical"


def test_analyze_example864_at_budget_1000_by_both_routes(monkeypatch, capsys):
    # at budget 1000 g864's verdicts read its one subgroup list; with the
    # list withheld they come from cyclic extension per subgroup, walks,
    # joins and normal closures. Both routes give the same report bytes
    from groupforms import lattice

    argv = ["analyze", "--group", "example864", "--check", "all", "--formation", "N",
            "--budget-lattice", "1000"]
    by_list = run_cli(capsys, *argv)
    monkeypatch.setattr(lattice, "_parent_list", lambda parent: None)
    assert run_cli(capsys, *argv) == by_list
    assert by_list[0] == EXIT_OK


def test_analyze_example864_corollary2_skips_only_c2(capsys):
    # above the default lattice budget only the E_F quantifier (C2) is
    # skipped, as theorems 1 and 2 skip theirs; C1 and C3 are still decided
    code, out = run_cli(
        capsys, "analyze", "--group", "example864", "--formation", "NA", "--check", "corollary2",
    )
    assert code == EXIT_VIOLATION
    result = json.loads(out)["checks"][0]
    assert result["status"] == reports.FAIL
    details = result["details"]
    assert details["c2_skipped"] == "all-subgroup quantifier exceeds the lattice budget"
    assert details["statements"] == {"C1_primary_cyclic_sn_or_abn": True, "C3_split_shape": False}


def test_batch_directory(tmp_path, capsys):
    d = _group_dir(tmp_path, "S3", "A4", "D5")
    code, out = run_cli(
        capsys, "batch", "--dir", str(d), "--formation", "N", "--check", "theorem1",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["aggregate"]["fail"] == 0
    assert [r["file"] for r in payload["runs"]] == ["s3.pgrp", "d5.pgrp", "a4.pgrp"]


def test_batch_empty_directory(tmp_path, capsys):
    d = _group_dir(tmp_path)
    code, out = run_cli(capsys, "batch", "--dir", str(d))
    assert code == EXIT_OK
    assert json.loads(out)["runs"] == []


@pytest.mark.parametrize("names, aggregate, expected", [
    # theorem 1 does not apply to a nilpotent group: nothing is decided
    (("C3", "C4"), {"pass": 0, "fail": 0, "skip": 2, "error": 0}, EXIT_HYPOTHESIS),
    (("S3", "C6"), {"pass": 1, "fail": 0, "skip": 1, "error": 0}, EXIT_OK),
], ids=["all-skip", "pass-and-skip"])
def test_batch_exit_code_follows_its_aggregate(tmp_path, capsys, names, aggregate, expected):
    d = _group_dir(tmp_path, *names)
    code, out = run_cli(capsys, "batch", "--dir", str(d), "--check", "theorem1")
    assert json.loads(out)["aggregate"] == aggregate
    assert code == expected


def test_batch_report_file(tmp_path, capsys):
    d = _group_dir(tmp_path, "S3", "A4")
    out_path = tmp_path / "batch.json"
    code, out = run_cli(capsys, "batch", "--dir", str(d), "--check", "theorem2",
                        "--report", str(out_path))
    assert code == EXIT_OK
    assert out_path.read_text(encoding="utf-8") == out


def test_batch_error_isolation(tmp_path, capsys):
    d = _group_dir(tmp_path, "S3")
    (d / "broken.pgrp").write_text("pgrp v1\ndegree 3\norder 99\n(1 2 3)\n")
    code, out = run_cli(capsys, "batch", "--dir", str(d), "--check", "theorem1")
    assert code == EXIT_ERROR
    payload = json.loads(out)
    assert len(payload["errors"]) == 1
    assert len(payload["runs"]) == 1
    assert payload["runs"][0]["report"]["summary"]["pass"] == 1


def test_batch_check_error_isolation(tmp_path, capsys):
    d = _group_dir(tmp_path, "S3")
    code = main(["batch", "--dir", str(d), "--check", "example864", "--formation", "NA"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    payload = json.loads(captured.out)
    assert [e["file"] for e in payload["errors"]] == ["s3.pgrp"]
    assert payload["runs"] == []
    assert "Traceback" not in captured.err


def test_undecodable_group_file_is_an_error_not_a_crash(tmp_path, capsys):
    d = _group_dir(tmp_path, "S3")
    bad = d / "bad.pgrp"
    bad.write_bytes(b"pgrp v1\ndegree 3\n# \xff\n(1 2 3)\n")
    code, out = run_cli(capsys, "batch", "--dir", str(d), "--check", "theorem1")
    assert code == EXIT_ERROR
    payload = json.loads(out)
    assert [e["file"] for e in payload["errors"]] == ["bad.pgrp"]
    assert [r["file"] for r in payload["runs"]] == ["s3.pgrp"]
    assert payload["runs"][0]["report"]["summary"]["pass"] == 1
    assert main(["analyze", "--group", str(bad), "--check", "theorem1"]) == EXIT_ERROR
    assert "Traceback" not in capsys.readouterr().err


def test_batch_isolates_a_non_decimal_degree(tmp_path, capsys):
    d = _group_dir(tmp_path, "S3")
    (d / "bad.pgrp").write_text("pgrp v1\ndegree \u00b2\n(1 2)\n", encoding="utf-8")
    code = main(["batch", "--dir", str(d), "--check", "theorem1"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    payload = json.loads(captured.out)
    assert [e["file"] for e in payload["errors"]] == ["bad.pgrp"]
    assert [r["file"] for r in payload["runs"]] == ["s3.pgrp"]
    assert payload["runs"][0]["report"]["summary"]["pass"] == 1
    assert payload["aggregate"]["error"] == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["analyze", "batch", "lattice"])
def test_unwritable_output_path_is_an_operational_error(tmp_path, capsys, command):
    target = str(tmp_path / "nodir" / "out.json")
    argv = {
        "analyze": ["analyze", "--group", "S3", "--check", "theorem1", "--report", target],
        "batch": ["batch", "--dir", str(_group_dir(tmp_path, "S3")), "--check", "theorem1",
                  "--report", target],
        "lattice": ["lattice", "--group", "S3", "--cache", target],
    }[command]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""  # a failed write prints no report
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_batch_parallel_byte_identical(tmp_path, capsys):
    d = _group_dir(tmp_path, "S3", "A4", "C6", "D4", "Q8", "S4")
    code1, seq = run_cli(capsys, "batch", "--dir", str(d), "--check", "theorem1", "--jobs", "1")
    code2, par = run_cli(capsys, "batch", "--dir", str(d), "--check", "theorem1", "--jobs", "3")
    assert seq == par
    assert code1 == code2


def test_lattice_cache_flow(tmp_path, capsys):
    cache = tmp_path / "s4.lattice.json"
    code1, out1 = run_cli(capsys, "lattice", "--group", "S4", "--cache", str(cache))
    assert code1 == EXIT_OK
    assert json.loads(out1)["source"] == "computed"
    code2, out2 = run_cli(capsys, "lattice", "--group", "S4", "--cache", str(cache))
    assert json.loads(out2)["source"] == "cache"
    assert json.loads(out2)["subgroups"] == 30
    # the lattice budget binds on a cache hit too
    code3 = main(["lattice", "--group", "S4", "--cache", str(cache), "--budget-lattice", "5"])
    assert code3 == EXIT_ERROR
    assert "exceeds lattice budget 5" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[1, 2]\n"], ids=["bytes", "list"])
def test_lattice_recomputes_a_corrupt_cache(tmp_path, capsys, content):
    cache = tmp_path / "s3.lattice.json"
    cache.write_bytes(content)
    code, out = run_cli(capsys, "lattice", "--group", "S3", "--cache", str(cache))
    assert code == EXIT_OK
    assert json.loads(out)["source"] == "computed"
    assert json.loads(cache.read_text())["order"] == 6


# sha256 of the ``lattice --cache`` files of insoluble groups, recorded while
# their subgroups still came from the join closure of the cyclic subgroups
INSOLUBLE_LATTICE_CACHES = {
    "A5": "e1f354444828fe7c3f3f59f9e5a6ecf7083efb098ad874aac9dd98b17a0533e1",
    "S5": "bab3a6d09603a03ff4ed8cbb0e301e278144f9ebe4937b35438ceb4e106c69ed",
    "direct(A5,C3)": "0fdd86243a95b9bdf1b040868f4448f28b517c793cea26f46d99a2fd58e998e2",
}


@pytest.mark.parametrize("group", sorted(INSOLUBLE_LATTICE_CACHES))
def test_insoluble_lattice_cache_unchanged(tmp_path, capsys, group):
    cache = tmp_path / "lattice.json"
    code, out = run_cli(capsys, "lattice", "--group", group, "--cache", str(cache))
    assert code == EXIT_OK
    assert json.loads(out)["source"] == "computed"
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == INSOLUBLE_LATTICE_CACHES[group]


def test_lattice_rejects_options_it_cannot_honour(tmp_path):
    # the lattice command writes no report and checks no formation
    for extra in (["--report", str(tmp_path / "x.json")], ["--formation", "A"],
                  ["--budget-time", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(["lattice", "--group", "S4", *extra])
        assert exc.value.code == 2  # argparse usage error
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--group", "S4", "--check", "theorem1", "--budget-time", "nan"],
        ["analyze", "--group", "S4", "--check", "theorem1", "--budget-time", "inf"],
        ["analyze", "--group", "S4", "--check", "theorem1", "--budget-time", "0"],
        ["analyze", "--group", "S4", "--check", "theorem1", "--budget-time", "-1"],
        ["analyze", "--group", "S4", "--check", "theorem1", "--budget-lattice", "-5"],
        ["analyze", "--group", "S4", "--check", "theorem1", "--budget-max-order", "0"],
        ["batch", "--dir", ".", "--jobs", "0"],
        ["batch", "--dir", ".", "--jobs", "-3"],
        ["batch", "--dir", ".", "--budget-lattice", "2.5"],
        ["lattice", "--group", "S4", "--budget-lattice", "0"],
    ],
    ids=lambda argv: " ".join(argv[-2:]),
)
def test_values_that_are_not_budgets_are_usage_errors(capsys, argv):
    # every output is JSON, which has no NaN or infinity, and a count below
    # 1 is no budget: argparse refuses them (exit 2) before anything runs
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: must be" in captured.err


def test_reports_refuse_a_nan():
    with pytest.raises(ValueError):
        reports.dumps({"time": float("nan")})


def test_lattice_budget_exceeded(capsys):
    code = main(["lattice", "--group", "example864", "--budget-lattice", "400"])
    assert code == EXIT_ERROR


def test_analyze_example864_supersoluble_theorem1_gives_a_verdict(capsys):
    # U membership walks a chief series of normal subgroups, so U needs no
    # full lattice; it used to stop with "exceeds lattice budget 400"
    code, out = run_cli(
        capsys, "analyze", "--group", "example864", "--formation", "U", "--check", "theorem1",
    )
    assert code != EXIT_ERROR
    result = json.loads(out)["checks"][0]
    assert result["status"] in (reports.PASS, reports.FAIL)


# sha256 of the batch report below per formation (tool_version masked). U's
# was recorded when U membership still read maximal subgroups off full
# lattices; A's and N's before subgroup class reps were cached
LEMMAS_BATCH_SHA256 = {
    "U": "760cac1ff44f4cb098e952ae63438cde042aabad66e7339b65bac28516e2dab6",
    "A": "705f6d38698476b4b54b6282a51a9a05d4854d4d1332756fa6b0ca4c5c9a5861",
    "N": "159e2898067c2c278c3a14296b9e1f1ed1ff70c062381061ae7cbad8559dccc3",
}


@pytest.mark.parametrize("formation", sorted(LEMMAS_BATCH_SHA256))
def test_batch_lemmas_report_unchanged(tmp_path, capsys, formation):
    d = _group_dir(tmp_path, "S3", "A4", "D4", "S4", "sl23", "D6")
    code, out = run_cli(
        capsys, "batch", "--dir", str(d), "--check", "lemmas", "--formation", formation,
    )
    assert code == EXIT_OK
    masked = out.replace(f'"tool_version": "{reports.TOOL_VERSION}"', '"tool_version": ""')
    assert hashlib.sha256(masked.encode()).hexdigest() == LEMMAS_BATCH_SHA256[formation]


# sha256 and exit code of ``analyze --check all`` on direct(S4,elem_abelian:2,2),
# recorded while chain steps were still tested through core and quotient_in
# (tool_version masked)
DIRECT_S4_V4_ALL = {
    "N": (EXIT_OK, "3649e2f9da7989edc64d56bf47ae8ac87a086c147a6a1868e704ed1f09d707bf"),
    "NA": (EXIT_VIOLATION, "e0709c1eede8d453ca6634e40b5ae6a78d8fedd376781acd589607a1cc826eee"),
}


@pytest.mark.parametrize("formation", sorted(DIRECT_S4_V4_ALL))
def test_analyze_all_on_direct_s4_v4_report_unchanged(capsys, formation):
    code, out = run_cli(
        capsys, "analyze", "--group", "direct(S4,elem_abelian:2,2)",
        "--formation", formation, "--check", "all",
    )
    masked = out.replace(f'"tool_version": "{reports.TOOL_VERSION}"', '"tool_version": ""')
    assert (code, hashlib.sha256(masked.encode()).hexdigest()) == DIRECT_S4_V4_ALL[formation]


# sha256 and exit code of ``analyze --group example864`` reports, recorded
# while every subgroup join was still closed from scratch (tool_version masked)
EXAMPLE864_REPORTS = {
    ("N", "example864"): (
        EXIT_VIOLATION, "a374947a544bd26ccc4ce1da83168ed717b189a24e65c69aa7ae3abbb25cd246"
    ),
    # theorem 2 decides only its left side above the budget: a skip
    ("NA", "theorem2"): (
        EXIT_HYPOTHESIS, "08cea33a4128433ca7a2629a6e94f186b4a5dcada406087ed15f681c6c700e5b"
    ),
}


@pytest.mark.parametrize("formation, check", sorted(EXAMPLE864_REPORTS))
def test_analyze_example864_report_unchanged(capsys, formation, check):
    code, out = run_cli(
        capsys, "analyze", "--group", "example864", "--formation", formation, "--check", check,
    )
    masked = out.replace(f'"tool_version": "{reports.TOOL_VERSION}"', '"tool_version": ""')
    assert (code, hashlib.sha256(masked.encode()).hexdigest()) == EXAMPLE864_REPORTS[
        (formation, check)
    ]


def test_batch_starts_no_more_workers_than_files(tmp_path, capsys, monkeypatch):
    from groupforms import cli

    asked = []

    class RecordingPool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(cli, "Pool", RecordingPool)
    d = _group_dir(tmp_path, "S3", "C6")
    code, out = run_cli(capsys, "batch", "--dir", str(d), "--check", "theorem1", "--jobs", "8")
    assert code == EXIT_OK
    assert asked == [2]
    assert len(json.loads(out)["runs"]) == 2
