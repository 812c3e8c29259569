"""Spans around the package's public functions, recorded from outside the package.

``Tracer.installed()`` replaces every public function of the layer modules
(and ``kron`` as ``energetics`` binds it) with a wrapper that records a
span: name, start, end and the index of the enclosing span. Spans stay in
memory until the run ends. ``layer_metrics`` turns the spans of one
workload iteration into the per-layer metrics; a layer's self time is its
duration minus the part of it covered by child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from dataclasses import dataclass

from workloads import rk4_steps

LAYERS = ("cli", "model", "twoqubit", "dynamics", "energetics", "conditions")

# Both table writers count as one layer boundary.
ALIASES = {"cli.write_records_csv": "cli.write_records", "cli.write_records_json": "cli.write_records"}

# Calls made once per run inside cli.compute_records; they are not per-record work.
PER_RUN = "conditions.adjoint_residual"


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index of the enclosing span, -1 at top level
    size: int = 0  # steps for integrate, records for compute_records, bytes for writers


def _size(name: str, signature, args, kwargs, result) -> int:
    if name == "dynamics.integrate":
        bound = signature.bind(*args, **kwargs).arguments
        return rk4_steps(float(bound["t_final"]), float(bound["dt"]))
    if name == "cli.compute_records":
        return len(result)
    if name == "cli.write_records":
        return os.path.getsize(signature.bind(*args, **kwargs).arguments["path"])
    return 0


class Tracer:
    """Collects spans while installed; ``take()`` hands them over and clears them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter_ns(), 0, stack[-1] if stack else -1))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index].end = time.perf_counter_ns()
                stack.pop()
            self.spans[index].size = _size(name, signature, args, kwargs, result)
            return result

        return traced

    def _targets(self):
        """(module, attribute, span name, original) for every binding to replace."""
        modules = {name: importlib.import_module(f"corrflux.{name}") for name in LAYERS}
        public = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    span = f"{layer}.{attr}"
                    public[obj] = ALIASES.get(span, span)
        targets = []
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in public:
                    targets.append((module, attr, public[obj], obj))
        energetics = modules["energetics"]
        targets.append((energetics, "kron", "energetics.kron", energetics.kron))
        return targets

    @contextlib.contextmanager
    def installed(self):
        """Replace the bindings for the duration of the block, then restore them."""
        targets = self._targets()
        wrappers = {}
        try:
            for module, attr, span, original in targets:
                if original not in wrappers:
                    wrappers[original] = self._wrap(span, original)
                setattr(module, attr, wrappers[original])
            yield self
        finally:
            for module, attr, _span, original in targets:
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced workload iteration lasting wall_s seconds."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    size: dict[str, int] = {}
    per_record: dict[str, int] = {}
    # in_records[i]: span i runs inside compute_records and outside the per-run residual.
    in_records = [False] * len(spans)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            parent = spans[span.parent]
            in_records[i] = span.name != PER_RUN and (
                in_records[span.parent] or parent.name == "cli.compute_records"
            )
        calls[span.name] = calls.get(span.name, 0) + 1
        incl[span.name] = incl.get(span.name, 0.0) + (span.end - span.start) * 1e-9
        self_s[span.name] = self_s.get(span.name, 0.0) + selfs[i] * 1e-9
        size[span.name] = size.get(span.name, 0) + span.size
        if in_records[i]:
            per_record[span.name] = per_record.get(span.name, 0) + 1

    records = size.get("cli.compute_records", 0)
    steps = size.get("dynamics.integrate", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_rec(name: str) -> float:
        return ratio(per_record.get(name, 0), records)

    return {
        "dynamics.integrate.self_s": self_s.get("dynamics.integrate", 0.0),
        "dynamics.integrate.step_us": 1e6 * ratio(incl.get("dynamics.integrate", 0.0), steps),
        "dynamics.integrate.calls": calls.get("dynamics.integrate", 0),
        "dynamics.integrate.wall_frac": ratio(incl.get("dynamics.integrate", 0.0), wall_s),
        "dynamics.adjoint_generator.calls_per_record": per_rec("dynamics.adjoint_generator"),
        "dynamics.adjoint_generator.self_s": self_s.get("dynamics.adjoint_generator", 0.0),
        "energetics.energy_ledger.us_per_record": 1e6 * ratio(incl.get("energetics.energy_ledger", 0.0), records),
        "energetics.energy_ledger.self_s": self_s.get("energetics.energy_ledger", 0.0),
        "energetics.effective_hamiltonians.calls_per_record": per_rec("energetics.effective_hamiltonians"),
        "energetics.effective_hamiltonians.self_s": self_s.get("energetics.effective_hamiltonians", 0.0),
        "energetics.decompose.calls_per_record": per_rec("energetics.decompose"),
        "energetics.decompose.self_s": self_s.get("energetics.decompose", 0.0),
        "energetics.kron.calls_per_record": per_rec("energetics.kron"),
        "conditions.commutator_residual.calls_per_record": per_rec("conditions.commutator_residual"),
        "conditions.commutator_residual.self_s": self_s.get("conditions.commutator_residual", 0.0),
        "conditions.adjoint_residual.calls": calls.get("conditions.adjoint_residual", 0),
        "conditions.check_conditions_sampled.self_s": self_s.get("conditions.check_conditions_sampled", 0.0),
        "cli.compute_records.us_per_record": 1e6 * ratio(incl.get("cli.compute_records", 0.0), records),
        "cli.compute_records.wall_frac": ratio(incl.get("cli.compute_records", 0.0), wall_s),
        "cli.write_records.self_s": self_s.get("cli.write_records", 0.0),
        "cli.write_records.bytes": size.get("cli.write_records", 0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "model.parse_scenario.self_s": self_s.get("model.parse_scenario", 0.0),
        "model.parse_scenario.calls": calls.get("model.parse_scenario", 0),
        "twoqubit.scenario_document.self_s": self_s.get("twoqubit.scenario_document", 0.0),
    }
