"""Spans around the engine's layers, recorded from outside the package.

A :class:`Tracer` replaces chosen functions of the ``g2orbits`` modules by
wrappers that record one span per call: name, start, end, the span that
caused it and the operation it belongs to.  ``from .linalg import expm``
copies the name into the importing module, so a function is replaced at
every binding site: each attribute of every loaded ``g2orbits`` module that
is the original function object.  :meth:`Tracer.uninstall` puts the
originals back.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from functools import wraps

PACKAGE = "g2orbits"

# Span record fields, by position.
_ID, _PARENT, _OP, _NAME, _START, _END = range(6)


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [len(self.spans), parent, self.op, name, self.clock(), None]
        self.spans.append(record)
        self._stack.append(record[_ID])
        return record

    def _close(self, record: list) -> None:
        record[_END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    def install(self, layers) -> list[str]:
        """Wrap each ``"<module>.<function>"`` of the package at every
        binding site.  Layers the package does not define are skipped;
        the names of the wrapped ones are returned."""
        modules = _package_modules()
        wrapped = []
        for layer in layers:
            module_name, fn_name = layer.split(".")
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._replaced.append((module, attr, original))
            wrapped.append(layer)
        return wrapped

    def uninstall(self) -> None:
        """Restore every replaced binding site."""
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total time and self time per span name.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record[_PARENT] >= 0:
                child_time[record[_PARENT]] += record[_END] - record[_START]
        out: dict[str, dict[str, float]] = {}
        for record in self.spans:
            duration = record[_END] - record[_START]
            entry = out.setdefault(record[_NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[record[_ID]]
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")
