"""One timed process of the benchmark: parse every input group, then check
the groups one at a time, dropping each after its check.

    python3 -I bench/child.py --workload NAME --manifest FILE --mode setup|check|trace

Prints one JSON line. ``ready`` is the ``time.monotonic()`` reading once all
inputs are parsed; the parent subtracts its own reading from just before the
start of this process to get the set-up time. Throughout, a reference loop
samples the machine's speed (see ``reference.py``); ``setup_spent`` and group
times exclude it, and ``setup_ref_s``/``ref_s`` are its mean durations during
set-up and during the checks. With ``--mode trace`` the per-layer wrappers are installed
before parsing; otherwise the process refuses to run if any wrapper is found.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import reference  # noqa: E402
import workloads  # noqa: E402


def memo_entries(G) -> Counter:
    """Entries per ``_op_cache`` namespace of G and of the quotient images it holds."""
    counts: Counter = Counter()
    seen = set()
    stack = [G]
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        for namespace, value in g._op_cache.items():
            counts[namespace] += len(value) if isinstance(value, dict) else 1
        stack.extend(hom.image for hom in g._op_cache.get("quotient", {}).values())
    return counts


def run(wl: workloads.Workload, files: list[str], mode: str, sampler: reference.Sampler) -> dict:
    import groupforms
    from groupforms import groupfile

    import tracer

    if Path(groupforms.__file__).resolve().parent != SRC / "groupforms":
        raise SystemExit(f"groupforms imported from {groupforms.__file__}, not from {SRC}")
    trace = None
    if mode == "trace":
        trace = tracer.Tracer(clock=sampler.clock)
        trace.install()
    elif tracer.installed():
        raise SystemExit(f"untraced run found wrappers on {tracer.installed()}")

    groups = [groupfile.parse_group_file(path) for path in files]
    ready = time.monotonic()
    out: dict = {"ready": ready, "setup_spent": sampler.spent, "setup_ref_s": sampler.mean()}
    if mode == "setup":
        return out

    ops: list[dict] = []
    totals: Counter = Counter()
    memo: Counter = Counter()
    group_wall_s = []
    first_sample, spent, cpu = len(sampler.samples), sampler.spent, time.process_time()
    for i in range(len(groups)):
        G, groups[i] = groups[i], None
        start = sampler.clock()
        try:
            report = workloads.check_group(wl, G)
            text = report.to_json()
        except Exception:
            traceback.print_exc()
            report = None
        group_wall_s.append(sampler.clock() - start)
        if report is None:
            ops.extend(workloads.failed_operations(wl, "raised"))
            totals["error"] += 1
        else:
            ops.extend(workloads.operations(wl, report, text))
            totals.update(report.summary())
            if trace is not None:
                memo.update(memo_entries(G))
        del G
    out.update(
        group_wall_s=group_wall_s,
        cpu_s=time.process_time() - cpu - (sampler.spent - spent),
        ref_s=sampler.mean(first_sample),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ops=ops,
        totals=dict(totals),
    )
    if trace is not None:
        out["layers"] = trace.metrics()
        out["memo"] = dict(memo)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "check", "trace"))
    args = parser.parse_args(argv)
    files = json.loads(Path(args.manifest).read_text(encoding="utf-8"))["files"]
    with reference.Sampler() as sampler:
        result = run(workloads.WORKLOADS[args.workload], files, args.mode, sampler)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
