"""groupforms benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # the three workloads in turn

Each workload is a closed loop with one client: every group's check starts
when the previous one ends, in one process and one thread. The seed relabels
the points of every input group (see ``inputs.py``); inputs are generated
before anything is timed. Timed processes are fresh interpreters, so caches
start cold as they do for a CLI user:

* check processes run back to back until ``--seconds`` have passed (at least
  one). While one checks, a reference loop samples the machine's speed (see
  ``reference.py``). ``check_ref``, the check time over the loop's mean
  time, is the time metric of the JSON result. On a shared virtual machine
  the raw ``wall_s`` and ``cpu_s`` can drift by 20 to 40 % between runs, so
  they are only printed;
* every process also gives a set-up time (interpreter start, ``import
  groupforms`` and parsing every input); set-up-only processes are added until
  there are ``SETUP_SAMPLES``. ``setup_s`` is their median, each scaled to
  the machine speed at which the reference loop takes ``NOMINAL_S``; the raw
  median is printed as ``setup_raw_s``;
* with ``--trace 1`` one more check process runs with the per-layer wrappers
  of ``tracer.py`` installed and gives the per-layer metrics.

Verdicts are checked against ``workloads.py``, and the report bytes of every
operation must agree across the processes of the run. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORK = inputs.ROOT / ".bench_build" / "groupforms-bench"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

END_TO_END = {"check_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
MEMO_NAMESPACES = (
    "abnormal", "abs_fsn", "as_group", "conj_classes", "core", "derived", "fabn",
    "fitting", "formation_member", "fsn", "gens", "interval", "lattice",
    "lattice_index", "min_over", "normalizer", "normals", "quotient", "quotient_in",
    "residual", "self_sub", "sub_sets", "sylow", "whole",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for _, _, name in tracer.TIMED:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    for _, _, name in tracer.COUNTED:
        units[name] = "count"
    units.update({"structure.group.p50_s": "s", "structure.group.p90_s": "s",
                  "structure.group.samples": "count"})
    units.update({f"memo.{ns}.entries": "count" for ns in MEMO_NAMESPACES})
    units.update({"memo.entries": "count", "trace.overhead_frac": "ratio"})
    return units


def make_inputs(wl: workloads.Workload, seed: int) -> Path:
    """Write the seeded inputs and their manifest; return the manifest path."""
    if wl.catalog_max_order:
        texts = inputs.catalog_texts(wl.catalog_max_order, WORK / "cache")
    else:
        texts = [inputs.EXAMPLE_FILE.read_text(encoding="utf-8")]
    out_dir = WORK / "inputs" / wl.name
    manifest = inputs.write_inputs(texts, seed, out_dir)
    inputs.check_counts(manifest, wl.groups, wl.min_order, wl.max_order)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def spawn(wl: workloads.Workload, manifest: Path, mode: str, deadline: float) -> dict:
    """Run one child process to completion; add its set-up time."""
    cmd = [sys.executable, "-I", str(BENCH / "child.py"),
           "--workload", wl.name, "--manifest", str(manifest), "--mode", mode]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process failed ({proc.returncode}):\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_raw_s"] = result["ready"] - started - result["setup_spent"]
    result["setup_s"] = result["setup_raw_s"] * reference.NOMINAL_S / result["setup_ref_s"]
    return result


def check_ref(child: dict) -> float:
    """Check time of one process in units of its mean reference-loop time."""
    return sum(child["group_wall_s"]) / child["ref_s"]


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_workload(wl: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    manifest = make_inputs(wl, seed)
    input_sha = json.loads(manifest.read_text(encoding="utf-8"))["input_sha256"]

    checks = []
    start = time.monotonic()
    while not checks or time.monotonic() - start < seconds:
        checks.append(spawn(wl, manifest, "check", deadline))
    setups = list(checks)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(wl, manifest, "setup", deadline))
    traced = spawn(wl, manifest, "trace", deadline) if trace else None

    attempted, failed = workloads.score(wl, checks + ([traced] if traced else []))

    def median(key):
        return statistics.median(key(c) for c in checks)

    if trace:
        latencies = [t for c in checks for t in c["group_wall_s"]]
        memo = traced["memo"]
        metrics = dict(traced["layers"])
        metrics.update({
            "structure.group.p50_s": statistics.median(latencies),
            "structure.group.p90_s": p90(latencies),
            "structure.group.samples": len(latencies),
            "memo.entries": sum(memo.values()),
            "trace.overhead_frac": check_ref(traced) / median(check_ref) - 1,
        })
        metrics.update({f"memo.{ns}.entries": memo.get(ns, 0) for ns in MEMO_NAMESPACES})
        units = per_layer_units()
    else:
        metrics = {
            "check_ref": median(check_ref),
            "setup_s": statistics.median(c["setup_s"] for c in setups),
            "peak_rss_mb": median(lambda c: c["peak_rss_mb"]),
        }
        units = END_TO_END
    print(f"workload={wl.name} seed={seed} processes={len(checks)}+{len(setups) - len(checks)} "
          f"input_sha256={input_sha} report_sha256={workloads.report_digest(checks[0])}")
    print(f"fail_frac {failed / attempted:.6f} ratio ({failed} of {attempted} operations)")
    print(f"wall_s {median(lambda c: sum(c['group_wall_s'])):.6g} s")
    print(f"cpu_s {median(lambda c: c['cpu_s']):.6g} s")
    print(f"ref_ms {median(lambda c: c['ref_s']) * 1000:.6g} ms")
    print(f"setup_raw_s {statistics.median(c['setup_raw_s'] for c in setups):.6g} s")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="groupforms benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (inputs.SRC / "groupforms" / "__init__.py").is_file():
        print(f"error: no groupforms sources under {inputs.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(inputs.SRC))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
