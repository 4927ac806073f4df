"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced function with a wrapper that counts
calls and sums inclusive and self time. Module functions are rebound in every
loaded ``groupforms`` module that holds them (``from ... import`` copies the
name); methods are patched on their class. Hot primitives run about a million
times per run, so the wrappers only add to per-name totals: no span is kept
per call.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable

# (module, attribute, metric prefix). An attribute "Class.method" is patched
# on the class.
TIMED = (
    ("permgroup", "FiniteGroup.closure", "permgroup.closure"),
    ("permgroup", "FiniteGroup.__init__", "permgroup.group_build"),
    ("permgroup", "quotient", "permgroup.quotient"),
    ("permgroup", "core", "permgroup.core"),
    ("permgroup", "normalizer", "permgroup.normalizer"),
    ("lattice", "subgroup_sets", "lattice.subgroup_sets"),
    ("lattice", "all_subgroups", "lattice.all_subgroups"),
    ("lattice", "minimal_overgroups", "lattice.minimal_overgroups"),
    ("lattice", "interval", "lattice.interval"),
    ("lattice", "maximal_subgroups_containing", "lattice.maximal_subgroups_containing"),
    ("lattice", "normal_subgroups", "lattice.normal_subgroups"),
    ("lattice", "orbit_reps_under", "lattice.orbit_reps_under"),
    ("formations", "residual", "formations.residual"),
    ("formations", "quotient_in", "formations.quotient_in"),
    ("subnormal", "is_f_subnormal", "subnormal.is_f_subnormal"),
    ("subnormal", "is_f_abnormal", "subnormal.is_f_abnormal"),
    ("subnormal", "is_abnormal", "subnormal.is_abnormal"),
    ("subnormal", "is_absolutely_f_subnormal", "subnormal.is_absolutely_f_subnormal"),
    ("structure", "verify_paper_example", "structure.verify_paper_example"),
    ("structure", "check_theorem1", "structure.check_theorem1"),
    ("structure", "check_lemma1", "structure.check_lemma1"),
    ("structure", "check_lemma2", "structure.check_lemma2"),
    ("structure", "check_lemma3", "structure.check_lemma3"),
    ("structure", "check_lemma4", "structure.check_lemma4"),
    ("structure", "subgroup_class_reps", "structure.subgroup_class_reps"),
    ("groupfile", "parse_group_file", "groupfile.parse_group_file"),
    ("reports", "VerdictReport.to_json", "reports.to_json"),
)

# Count-only wrappers: every quotient image is canonicalised through
# ``FiniteGroup.from_table``.
COUNTED = (("permgroup", "FiniteGroup.from_table", "permgroup.quotient.built"),)

_MARK = "__bench_traced__"


def _modules() -> list[tuple[str, object]]:
    return [(name, mod) for name, mod in list(sys.modules.items())
            if name == "groupforms" or name.startswith("groupforms.")]


def _resolve(module: str, attr: str):
    """(owner object, attribute name, current raw value) for a target."""
    owner = sys.modules[f"groupforms.{module}"]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr, vars(owner)[attr]


def _is_wrapper(value) -> bool:
    return hasattr(getattr(value, "__func__", value), _MARK)


def installed() -> list[str]:
    """Every attribute of a loaded ``groupforms`` module, or method of a class
    defined there, that holds a wrapper."""
    out = []
    for mod_name, mod in _modules():
        for name, value in list(vars(mod).items()):
            if _is_wrapper(value):
                out.append(f"{mod_name}.{name}")
            if isinstance(value, type) and value.__module__ == mod_name:
                out.extend(f"{mod_name}.{name}.{attr}"
                           for attr, raw in vars(value).items() if _is_wrapper(raw))
    return out


class Tracer:
    """Per-name call counts with inclusive and self time.

    Inclusive time counts only the outermost active call of a name, so
    recursion is not counted twice. Self time is inclusive time minus the
    inclusive time of the traced calls made directly inside it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self._depth: dict[str, int] = {}
        self._child_time: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper of ``fn`` that books its calls and time under ``name``."""
        clock = self.clock
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        depth, child_time = self._depth, self._child_time
        calls[name] = 0
        inclusive[name] = 0.0
        self_time[name] = 0.0
        depth[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            depth[name] += 1
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_time[name] += elapsed - child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                depth[name] -= 1
                if depth[name] == 0:
                    inclusive[name] += elapsed

        setattr(traced, _MARK, True)
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """A wrapper of ``fn`` that only counts its calls under ``name``."""
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(counted, _MARK, True)
        return counted

    def install(self) -> None:
        """Wrap every target of ``TIMED`` and ``COUNTED`` in loaded modules."""
        for targets, make in ((TIMED, self.wrap), (COUNTED, self.count)):
            for module, attr, name in targets:
                owner, key, raw = _resolve(module, attr)
                if isinstance(raw, classmethod):
                    self._set(owner, key, classmethod(make(name, raw.__func__)))
                elif isinstance(owner, type):
                    self._set(owner, key, make(name, raw))
                else:
                    wrapper = make(name, raw)
                    for _, mod in _modules():
                        for attr_name, value in list(vars(mod).items()):
                            if value is raw:
                                self._set(mod, attr_name, wrapper)

    def _set(self, owner: object, key: str, value: object) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.counts)
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.s"] = self.inclusive[name]
            out[f"{name}.self_s"] = self.self_time[name]
        return out
