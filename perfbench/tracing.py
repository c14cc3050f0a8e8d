"""Spans around the calls into each supero module, recorded from outside.

``Tracer.install()`` replaces every traced function by a wrapper: each
public function of a layer module and the public methods listed in
METHODS. The wrapper goes in at the definition and at every other binding
inside ``supero`` that holds the same function (names imported with
``from .x import y``, and dict values such as ``supero.suites.SUITES``), so
spans nest the way the calls do. ``uninstall()`` puts the originals back.
Nothing under ``src/`` is edited.

A span's self time is its duration minus the durations of the spans it
called. Time in untraced code (private helpers, Fraction arithmetic) is
self time of the nearest traced caller. Counts are read from the
arguments and return values of the traced calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import weakref
from collections import defaultdict
from time import perf_counter

LAYERS = ("algebras", "roots", "reps", "linalg", "cohomology", "invariants", "checks", "suites", "cli")

# Public methods traced besides the module-level functions.
METHODS = {
    "algebras": {"SubalgebraSpan": ("__init__", "closure_witness", "to_algebra")},
    "linalg": {"SpanSolver": ("__init__", "reduce")},
    "cohomology": {
        "RelativeComplex": (
            "__init__", "space", "report", "ddzero", "apply_differential",
            "differential", "monomials", "lambda_rep",
        )
    },
}

# Leaf helpers called from inner loops: a wrapper there would cost more
# than the work it times.
UNTRACED = frozenset({"reps.wedge_insert", "reps.wedge_remove", "roots.pair"})


def _count_apply_differential(tracer, counts, args, kwargs, result):
    phi = args[3] if len(args) > 3 else kwargs["phi"]
    counts["terms_in"] += len(phi)
    counts["terms_out"] += len(result)


def _count_space(tracer, counts, args, kwargs, result):
    # space(p) is memoised: count each distinct space once
    key = id(result)
    if key in tracer.seen:
        return
    tracer.seen[key] = weakref.ref(result, lambda _ref, key=key: tracer.seen.pop(key, None))
    counts["dim"] += result.dim
    counts["coords"] += len(result.monomials) * args[0].m.dim
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for basis in result.basis for vec in basis for c in vec.values()),
        default=0,
    )
    counts["max_coeff_bits"] = max(counts["max_coeff_bits"], bits)


def _count_exterior_power(tracer, counts, args, kwargs, result):
    counts["out_dim"] += result.dim
    counts["action_nnz"] += sum(a.nnz for a in result.actions)


def _count_kernel(tracer, counts, args, kwargs, result):
    m = args[0]
    counts["rows"] += m.rows
    counts["cols"] += m.cols
    counts["nnz"] += m.nnz
    counts["nullity"] += len(result[0])


def _count_rank(tracer, counts, args, kwargs, result):
    counts["nnz"] += args[0].nnz


COUNTERS = {
    "cohomology.RelativeComplex.apply_differential": _count_apply_differential,
    "cohomology.RelativeComplex.space": _count_space,
    "reps.super_exterior_power": _count_exterior_power,
    "linalg.kernel_basis_with_free": _count_kernel,
    "linalg.rank": _count_rank,
}


class Tracer:
    """Spans kept in memory while installed; summarised and written at the end."""

    def __init__(self):
        self._index: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, float, float]] = []  # id, parent, name, t0, t1
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.counting_s = 0.0
        self.seen: dict[int, weakref.ref] = {}
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._restore: list[tuple[object, str, object, bool]] = []

    def _wrap(self, name: str, fn):
        index = self._index.setdefault(name, len(self._index))
        counter = COUNTERS.get(name)
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                self_s[name] += duration - frame[1]
                calls[name] += 1
                spans.append((span_id, parent[0] if parent else -1, index, t0, t1))
                if parent is not None:
                    parent[1] += duration
            if counter is not None:
                c0 = perf_counter()
                counter(self, self.counts[name], args, kwargs, result)
                spent = perf_counter() - c0
                self.counting_s += spent
                if parent is not None:
                    parent[1] += spent  # tracer cost, not the caller's work
            return result

        return traced

    def _set(self, container, key, value, is_dict=False):
        old = container[key] if is_dict else getattr(container, key)
        self._restore.append((container, key, old, is_dict))
        if is_dict:
            container[key] = value
        else:
            setattr(container, key, value)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"supero.{layer}")
            for name, obj in vars(module).items():
                span = f"{layer}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and span not in UNTRACED):
                    wrappers[obj] = self._wrap(span, obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    self._set(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))
        bindings = [m for n, m in sys.modules.items() if n == "supero" or n.startswith("supero.")]
        for module in bindings:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._set(obj, key, wrappers[value], is_dict=True)

    def uninstall(self) -> None:
        for container, key, old, is_dict in reversed(self._restore):
            if is_dict:
                container[key] = old
            else:
                setattr(container, key, old)
        self._restore.clear()
        self.seen.clear()

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": {k: dict(v) for k, v in self.counts.items()},
            "counting_s": self.counting_s,
            "spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        """Spans as [id, parent id (-1 at the root), name index, start s, duration s]."""
        origin = min((s[3] for s in self.spans), default=0.0)
        rows = sorted(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"names": list(self._index),
                 "spans": [[i, p, n, t0 - origin, t1 - t0] for i, p, n, t0, t1 in rows]},
                fh, separators=(",", ":"),
            )
