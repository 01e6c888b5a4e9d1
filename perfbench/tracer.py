"""Spans and counts recorded at pwlham's layer boundaries, from outside.

The tracer replaces the package's public functions with timing wrappers
while a traced pass runs and puts the originals back afterwards; nothing
under ``src/`` changes.  A function is wrapped at every module binding that
holds it, so ``cycle.flow.flight_time`` and a later ``from .flow import
flight_time`` inside ``cycle`` are both seen.  A reference held anywhere
else (a closure, a dict, a default argument) would bypass the wrapper;
the benchmark therefore treats a boundary with no spans on a workload that
must reach it as an error (see ``missing``).

A span is (id, name, start, end, parent id, op id).  Self time is a span's
duration minus the durations of its child spans.  Aggregates are folded in
as spans end, so memory stays flat; raw spans are kept only for the first
``keep_ops`` operations, for writing out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

PACKAGE = "pwlham"

# (owning module, attribute, span name, kind).  "span" records a timed span;
# "count" only counts calls, for functions called thousands of times per
# operation.  Count wrappers cost about as much as the functions they count,
# so they are installed only on counting passes, whose times are not used.
# "Class.method" patches the method on the class itself.
BOUNDARIES = (
    ("pwlham.model", "system_from_json_dict", "model.parse", "span"),
    ("pwlham.model", "LinearHamiltonianField.__init__", "model.construct", "span"),
    ("pwlham.model", "PiecewiseSystem.__init__", "model.construct", "span"),
    ("pwlham.model", "is_continuous", "model.is_continuous", "span"),
    ("pwlham.model", "classify_singularity", "model.classify_singularity", "count"),
    ("pwlham.closure", "solve_three_zone", "closure.solve", "span"),
    ("pwlham.closure", "solve_two_zone", "closure.solve", "span"),
    ("pwlham.cycle", "certify", "cycle.certify", "span"),
    ("pwlham.cycle", "verify_certificate", "cycle.verify", "span"),
    ("pwlham.flow", "classify_boundary_point", "flow.classify_boundary", "span"),
    ("pwlham.flow", "flight_time", "flow.flight_time", "span"),
    ("pwlham.flow", "refine_flight_time", "flow.refine", "span"),
    ("pwlham.flow", "orbit_samples", "flow.orbit_samples", "span"),
    ("pwlham.flow", "flow_closed_form", "flow.closed_form", "count"),
    ("pwlham.poincare", "fixed_point", "poincare.fixed_point", "span"),
    ("pwlham.poincare", "return_map", "poincare.return_map", "span"),
    ("pwlham.poincare", "first_return", "poincare.first_return", "span"),
    ("pwlham.cli", "main", "cli.main", "span"),
    ("pwlham.cli", "render_svg", "cli.render_svg", "span"),
)

# Return maps evaluated inside fixed_point are counted apart from those the
# oracle command spends on bracketing.
NESTED = {"poincare.return_map": "poincare.fixed_point"}

OUTCOME_NAMES = {
    "NoSolution": "no_solution",
    "UniqueCycleCandidate": "unique_candidate",
    "Continuum": "continuum",
}


class Tracer:
    """Spans and counts of one traced pass over a workload's corpus."""

    def __init__(self, keep_ops: int = 0, counters: bool = False) -> None:
        self.keep_ops = keep_ops
        self.counters = counters
        self.self_s: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        # Outcome tallies and nested-call counts, keyed by metric name.
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.bindings: defaultdict[str, list[str]] = defaultdict(list)
        self.ops = 0
        self.op_id = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._solved_this_op = False
        self._restore: list[tuple[object, str, object]] = []

    # --- operations ---------------------------------------------------------

    def begin_op(self, op_id: Optional[int] = None) -> None:
        self.op_id = self.op_id + 1 if op_id is None else op_id
        self.ops += 1
        self._solved_this_op = False

    # --- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        perf = time.perf_counter
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        ancestor = NESTED.get(name)
        observe = {
            "closure.solve": self._observe_solve,
            "cycle.certify": self._observe_certify,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if ancestor is not None and any(f[2] == ancestor for f in stack):
                self.counts[f"{name}@{ancestor}"] += 1
            frame = [0.0, self._next_id, name]
            self._next_id += 1
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                total_s[name] += duration
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if self.op_id < self.keep_ops:
                    parent = stack[-1][1] if stack else -1
                    self.spans.append(
                        (frame[1], name, start, end, parent, self.op_id)
                    )
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_solve(self, outcome: object) -> None:
        # The first closure solve of an operation classifies its system; a
        # repeat solve of the same system (certify re-solving) is not tallied.
        if not self._solved_this_op:
            self._solved_this_op = True
            kind = OUTCOME_NAMES.get(type(outcome).__name__, "unrecognised")
            self.counts[f"closure.outcome.{kind}"] += 1

    def _observe_certify(self, result: object) -> None:
        if getattr(result, "certificate", None) is not None:
            self.counts["cycle.certified"] += 1

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary at every pwlham module binding that holds it."""
        for owner_name, _, _, _ in BOUNDARIES:
            importlib.import_module(owner_name)
        modules = [
            (name, module)
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for owner_name, attr, name, kind in BOUNDARIES:
            if kind == "count" and not self.counters:
                continue
            owner = sys.modules[owner_name]
            make = self._span if kind == "span" else self._count
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, make(name, original))
                self.bindings[name].append(f"{owner_name}.{attr}")
                continue
            original = getattr(owner, attr)
            wrapper = make(name, original)
            for module_name, module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
                        self.bindings[name].append(f"{module_name}.{key}")

    def _patch(self, target: object, key: str, value: object) -> None:
        self._restore.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def uninstall(self) -> None:
        while self._restore:
            target, key, original = self._restore.pop()
            setattr(target, key, original)

    # --- results ------------------------------------------------------------

    def missing(self, expected: frozenset[str]) -> list[str]:
        """Expected boundaries that recorded no span or call."""
        return sorted(name for name in expected if self.calls[name] == 0)

    def to_dict(self) -> dict:
        return {
            "ops": self.ops,
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": self.spans,
        }

    def merge(self, doc: dict) -> None:
        """Fold in the aggregates of a traced child process."""
        self.self_s.update(doc["self_s"])
        self.total_s.update(doc["total_s"])
        self.calls.update(doc["calls"])
        self.counts.update(doc["counts"])
        self.spans.extend(tuple(span) for span in doc["spans"])
