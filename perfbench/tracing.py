"""Spans around the calls into the program, recorded from outside it.

``Tracer.install`` replaces every public function of every seidelspectra
module, in every module namespace that binds it, with a wrapper; public
methods of the package's classes and numpy.linalg.eigvalsh are wrapped
too.  A call made while an operation is in flight becomes a span (name,
start, end, parent, operation id) kept in memory.  Span names are
``<module>.<function>`` with the defining module's last name component.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
import time
import types
from collections import defaultdict

# (metric, unit, span name).  A name ending in "*" sums every span of that
# module: cli.main_ms is the CLI's own time, parsing in main plus the
# formatting and JSON in the cmd_* handler it calls.
METRICS = (
    ("linalg.charpoly_oracle_ms", "ms", "linalg.charpoly_oracle"),
    ("linalg.exact_matrix_ms", "ms", "linalg.exact_matrix"),
    ("linalg.exact_matrix_calls", "count", "linalg.exact_matrix"),
    ("linalg.trace_exact_ms", "ms", "linalg.trace_exact"),
    ("family.seidel_matrix_ms", "ms", "family.seidel_matrix"),
    ("verify.eig_numeric_ms", "ms", "verify.eig_numeric"),
    ("numpy.eigvalsh_ms", "ms", "numpy.eigvalsh"),
    ("verify.verify_instance_ms", "ms", "verify.verify_instance"),
    ("verify.sweep_ms", "ms", "verify.sweep"),
    ("closedform.expand_ms", "ms", "closedform.expand"),
    ("closedform.spectrum_closed_ms", "ms", "closedform.spectrum_closed"),
    ("cubic.cubic_root_values_ms", "ms", "cubic.cubic_root_values"),
    ("cubic.cubic_root_values_calls", "count", "cubic.cubic_root_values"),
    ("cli.main_ms", "ms", "cli.*"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.names: set[str] = set()
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        self.names.add(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)

        return traced

    def install(self, package: types.ModuleType) -> None:
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrapped: dict[int, object] = {}
        classes: set[type] = set()
        for module in modules:
            for attr, value in list(vars(module).items()):
                owner = getattr(value, "__module__", None) or ""
                if attr.startswith("_") or not owner.startswith(package.__name__):
                    continue
                if isinstance(value, types.FunctionType):
                    if id(value) not in wrapped:
                        name = f"{owner.rsplit('.', 1)[-1]}.{value.__name__}"
                        wrapped[id(value)] = self.wrap(name, value)
                    setattr(module, attr, wrapped[id(value)])
                elif isinstance(value, type) and value not in classes:
                    classes.add(value)
                    self._wrap_methods(value, owner.rsplit(".", 1)[-1])
        import numpy.linalg

        numpy.linalg.eigvalsh = self.wrap("numpy.eigvalsh", numpy.linalg.eigvalsh)

    def _wrap_methods(self, cls: type, module_name: str) -> None:
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and isinstance(value, types.FunctionType):
                setattr(cls, attr, self.wrap(f"{module_name}.{attr}", value))

    def per_op(self, ops: set[int]) -> dict[int, dict[str, list[int]]]:
        """op id -> span name -> [self time in ns, calls], for the given ops."""
        child_time = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[int, dict[str, list[int]]] = {op: defaultdict(lambda: [0, 0]) for op in ops}
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op in table:
                entry = table[op][name]
                entry[0] += end - start - child_time[index]
                entry[1] += 1
        return table

    def metrics(self, ops: set[int]) -> tuple[dict, list[str]]:
        """Per-layer metrics as medians over ``ops``, and the names not in the program."""
        table = self.per_op(ops)
        out, absent = {}, []
        for metric, unit, span in METRICS:
            if not any(_matches(name, span) for name in self.names):
                absent.append(metric)
            column = 1 if unit == "count" else 0
            per_op = [sum(v[column] for name, v in spans.items() if _matches(name, span))
                      for spans in table.values()]
            value = statistics.median(per_op) if per_op else 0
            out[metric] = {"value": value / 1e6 if unit == "ms" else value, "unit": unit}
        return out, absent


def _matches(name: str, span: str) -> bool:
    return name.startswith(span[:-1]) if span.endswith("*") else name == span
