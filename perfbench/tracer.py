"""External tracer for ticsp: wraps the package's public entry points from
outside, records spans in memory and counts kernel calls.

Nothing inside ``ticsp`` is edited.  `Tracer.install` rebinds each traced
function in every loaded ``ticsp`` module that holds a reference to it
(the ``from .x import f`` bindings), and `Tracer.uninstall` restores the
originals.  Functions imported lazily inside other functions (for example
``reduction`` taking ``explosive_stage`` from ``ticsp.csp`` at call time)
and names looked up at call time by the solver lambdas are covered by the
rebinding of their home module.

Timed spans sit at layer boundaries only.  The kinetics kernels and the
HTE residual are called tens of thousands of times per operation, so they
get a bare call counter; their cost per call comes from a separate
microbenchmark (`kernels.py`).
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

#: Timed layer entry points, as (module, function).
SPANS = (
    ("ticsp.cli", "main"),
    ("ticsp.harness", "run_scenario"),
    ("ticsp.harness", "timescale_table"),
    ("ticsp.harness", "report_tables"),
    ("ticsp.harness", "ii_persistence"),
    ("ticsp.csp", "explosive_stage"),
    ("ticsp.csp", "diagnostics_record"),
    ("ticsp.integrator", "integrate"),
    ("ticsp.integrator", "stable_equilibria"),
    ("ticsp.integrator", "settle_attractor"),
    ("ticsp.integrator", "basin_threshold"),
    ("ticsp.equilibria", "find_hte"),
    ("ticsp.equilibria", "bifurcation_scan"),
    ("ticsp.reduction", "constraint_errors"),
    ("ticsp.reduction", "simulate_reduced"),
    ("ticsp.reduction", "compare_reduced"),
)

#: Call-counted (untimed) kernels, as (module, attribute path).
COUNTERS = (
    ("ticsp.kinetics", "rhs_array"),
    ("ticsp.kinetics", "jacobian_array"),
    ("ticsp.equilibria", "hte_residual"),
    ("ticsp.params", "ParameterSet.replace"),
)

#: Spans whose results carry `Trajectory.stats`, with the counter prefix.
SOLVER_STATS = {
    "integrator.integrate": "integrator",
    "reduction.simulate_reduced": "reduction",
}
SOLVER_FIELDS = ("steps", "nfev", "njev", "nlu")


def metric_name(module: str, attr: str) -> str:
    """'ticsp.csp', 'explosive_stage' -> 'csp.explosive_stage'."""
    return f"{module.split('.', 1)[1]}.{attr}"


def _input_key(arguments: dict) -> tuple:
    """Hashable key of one call's arguments, defaults filled in; a
    trajectory is keyed by a digest of its grid and values."""
    key = []
    for name, value in arguments.items():
        if name == "traj":
            digest = hashlib.blake2b(value.t.tobytes(), digest_size=16)
            digest.update(value.y.tobytes())
            value = digest.hexdigest()
        key.append((name, value))
    return tuple(key)


#: Spans whose distinct inputs are tracked for the useful-work ratio.
INPUT_KEYS = ("csp.explosive_stage", "equilibria.find_hte")


class Tracer:
    """Spans and counters of one traced pass; `reset` starts the next."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        # span: [name, op, parent index or -1, start, end]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.inputs: dict[tuple[str, str], set] = defaultdict(set)
        self.incomplete: dict[str, int] = defaultdict(int)
        self.op = ""

    # -- binding -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ticsp" or name.startswith("ticsp."))]
        for module_name, attr in SPANS:
            name = metric_name(module_name, attr)
            original = getattr(sys.modules[module_name], attr)
            self._rebind(modules, original, self._span_wrapper(name, original))
        for module_name, path in COUNTERS:
            name = metric_name(module_name, path)
            owner_name, _, attr = path.rpartition(".")
            owner = sys.modules[module_name]
            if owner_name:
                owner = getattr(owner, owner_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._count_wrapper(name, original))
            else:
                original = getattr(owner, attr)
                self._rebind(modules, original, self._count_wrapper(name, original))

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- wrappers ----------------------------------------------------------

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, fn):
        signature = inspect.signature(fn) if name in INPUT_KEYS else None
        stats_prefix = SOLVER_STATS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            index = len(spans)
            span = [name, self.op, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.inputs[(name, self.op)].add(_input_key(bound.arguments))
            if stats_prefix is not None:
                for field in SOLVER_FIELDS:
                    self.counts[f"{stats_prefix}.{field}"] += getattr(result.stats, field)
                if not result.complete:
                    self.incomplete[self.op] += 1
            return result

        return traced

    # -- summaries ---------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, op, parent, start, end) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def op_breakdown(self, op: str) -> dict[str, dict[str, float]]:
        """`span_totals` restricted to the spans of one operation."""
        kept = Tracer()
        index = {}
        for i, span in enumerate(self.spans):
            if span[1] == op:
                index[i] = len(kept.spans)
                kept.spans.append([span[0], span[1], index.get(span[2], -1),
                                   span[3], span[4]])
        return kept.span_totals()

    def useful_ratio(self, name: str) -> float:
        """Distinct inputs / calls, with distinct inputs counted per
        operation; 1.0 when the span was never called."""
        calls = sum(1 for span in self.spans if span[0] == name)
        if calls == 0:
            return 1.0
        distinct = sum(len(keys) for (n, _), keys in self.inputs.items() if n == name)
        return distinct / calls

    def dump_spans(self, t0: float, pass_index: int) -> list[dict]:
        return [
            {"pass": pass_index, "name": name, "op": op, "parent": parent,
             "start_s": start - t0, "end_s": end - t0}
            for name, op, parent, start, end in self.spans
        ]
