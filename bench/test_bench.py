"""Tests of the benchmark's own parts: relabelling, the verdict oracle and
the tracer's time arithmetic.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from groupforms import catalog, groupfile, reports, structure  # noqa: E402
from groupforms.formations import ABELIAN, NILPOTENT  # noqa: E402

SMALL = {"S4": catalog.symmetric(4), "D6": catalog.dihedral(6),
         "A4xC2": catalog.build_named("direct(A4,C2)")}


def _verdicts(G):
    lemmas = structure.check_lemma_suite([G], ABELIAN).summary()
    return lemmas, structure.check_theorem1(G, NILPOTENT).to_check_result().status


@pytest.mark.parametrize("name", sorted(SMALL))
def test_relabelling_keeps_order_and_verdicts(name):
    text = groupfile.emit_group_text(SMALL[name])
    assert inputs.relabel_group_text(text, 0, name) == text
    base = groupfile.parse_group_text(text)
    for seed in (1, 2, 3):
        relabelled = inputs.relabel_group_text(text, seed, name)
        G = groupfile.parse_group_text(relabelled)
        assert G.order == base.order
        assert _verdicts(G) == _verdicts(base)
    assert any(inputs.relabel_group_text(text, s, name) != text for s in (1, 2, 3))


def test_relabel_cycle_text():
    assert inputs.relabel_cycle_text("(1 2 3)(4 5)", [5, 4, 3, 2, 1]) == "(5 4 3)(2 1)"


def test_check_counts_refuses_wrong_inputs():
    manifest = {"orders": [1, 2, 60]}
    inputs.check_counts(manifest, 3, 1, 60)
    with pytest.raises(ValueError):
        inputs.check_counts(manifest, 4, 1, 60)
    with pytest.raises(ValueError):
        inputs.check_counts(manifest, 3, 1, 59)


def _example_report(flip: str = ""):
    example = reports.VerdictReport(kind="example864")
    for check, (status, details) in workloads.EXAMPLE_VERDICTS.items():
        if check == flip:
            status = "fail" if status == "pass" else "pass"
        example.add(check, status, details)
    report = reports.VerdictReport(kind="analyze")
    report.subreports.append(example)
    return report


def _child(wl, report):
    return {"ops": workloads.operations(wl, report, report.to_json()),
            "totals": report.summary()}


def test_example_oracle_counts_an_injected_wrong_verdict():
    wl = workloads.WORKLOADS["example864"]
    good = _child(wl, _example_report())
    assert workloads.score(wl, [good, good]) == (22, 0)
    bad = _child(wl, _example_report(flip="derived-216"))
    assert workloads.score(wl, [bad]) == (11, 1)
    red = _child(wl, _example_report(flip="sylow2-proper-subgroups-f-subnormal"))
    assert workloads.score(wl, [red]) == (11, 1)


def test_catalog_oracle_counts_wrong_verdicts_and_changed_bytes():
    wl = workloads.WORKLOADS["theorem1-120"]
    expected = wl.expected
    report = workloads.check_group(wl, SMALL["S4"])
    good = _child(wl, report)
    good["totals"] = dict(expected)
    assert workloads.score(wl, [good]) == (1, 0)
    failing = _child(wl, report)
    failing["ops"][0]["ok"] = False
    assert workloads.score(wl, [failing]) == (1, 1)
    swapped = dict(good, totals=dict(expected, skip=expected["skip"] + 1, **{"pass": expected["pass"] - 1}))
    assert workloads.score(wl, [swapped]) == (1, 1)
    changed = dict(good, ops=[dict(good["ops"][0], sha="0" * 64)])
    assert workloads.score(wl, [good, changed]) == (2, 1)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_nested_call_tree():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def work(seconds):
        clock.now += seconds

    def leaf():
        work(1.0)

    def middle():
        work(2.0)
        leaf()

    def top():
        middle()
        work(4.0)
        leaf()
        middle()

    leaf = t.wrap("leaf", leaf)
    middle = t.wrap("middle", middle)
    top = t.wrap("top", top)
    top()
    m = t.metrics()
    assert m["leaf.calls"] == 3 and m["middle.calls"] == 2 and m["top.calls"] == 1
    assert m["leaf.s"] == 3.0 and m["leaf.self_s"] == 3.0
    assert m["middle.s"] == 6.0 and m["middle.self_s"] == 4.0
    assert m["top.s"] == 11.0 and m["top.self_s"] == 4.0


def test_recursion_is_counted_once_inclusive():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def down(n):
        clock.now += 1.0
        if n:
            down(n - 1)

    down = t.wrap("down", down)
    down(2)
    m = t.metrics()
    assert m["down.calls"] == 3
    assert m["down.s"] == 3.0 and m["down.self_s"] == 3.0


def test_install_rebinds_every_import_and_uninstall_restores():
    from groupforms import permgroup, subnormal

    assert tracer.installed() == []
    original = subnormal.is_f_subnormal
    G = catalog.symmetric(4)
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = set(tracer.installed())
        for module, attr, _ in tracer.TIMED + tracer.COUNTED:
            assert f"groupforms.{module}.{attr}" in wrapped
        assert "groupforms.structure.is_f_subnormal" in wrapped
        assert structure.is_f_subnormal is subnormal.is_f_subnormal is not original
        structure.check_theorem1(G, NILPOTENT)
        permgroup.quotient(G, permgroup.derived_subgroup(G))
    finally:
        t.uninstall()
    assert tracer.installed() == []
    assert structure.is_f_subnormal is original
    m = t.metrics()
    assert m["structure.check_theorem1.calls"] == 1
    assert m["subnormal.is_f_subnormal.calls"] > 0
    assert m["permgroup.closure.calls"] > 0
    assert m["permgroup.quotient.built"] >= 1


def test_benchmark_json_names_what_run_prints():
    import json

    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_sampler_clock_excludes_the_reference_samples():
    import signal
    import time

    import reference

    sampler = reference.Sampler(interval=0.01)
    with sampler:
        start, wall = sampler.clock(), time.perf_counter()
        while time.perf_counter() - wall < 0.3:
            pass
        measured, wall = sampler.clock() - start, time.perf_counter() - wall
    assert len(sampler.samples) >= 5
    assert sampler.spent == pytest.approx(sum(sampler.samples))
    assert measured == pytest.approx(wall - sampler.spent, abs=1e-3)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
