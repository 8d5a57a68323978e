"""Spans around the public functions of each layer, recorded from outside.

Every public module-level function (and public classmethod) of the layer
modules is replaced by a wrapper that records a span: function, parent span,
start, end and whether it raised.  The replacement is made under every name
the package binds to the function, so calls between modules, such as
``dynamics.catness_fidelity`` or ``interferometry.rotate_modes``, are seen.
Self time is a span's duration minus the time its child spans cover.  The
library runs single-threaded here (``NOON_COHERENCE_THREADS`` is unset), so
one span stack suffices.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "noon_coherence"
LAYERS = ("cli", "states", "fock", "coherence", "dynamics", "interferometry", "channels", "squeezing")
# The CLI layer is entered through main(); its other public functions are
# formatting helpers called per output cell, which belong to main's own time.
CLI_ENTRY = ("main",)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.names: list[str] = []
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.failed = defaultdict(int)
        self.dense_bytes = 0
        self._patches: list[tuple[object, str, object, object]] = []
        self._build()

    def _build(self) -> None:
        density = importlib.import_module(f"{PACKAGE}.fock").TwoModeDensityMatrix
        wrappers = {}  # id(original) -> (original, replacement)
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if layer == "cli" and name not in CLI_ENTRY:
                        continue
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", density))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in vars(obj).items():
                        if isinstance(member, classmethod) and not attr.startswith("_"):
                            wrapped = self._wrap(member.__func__, f"{layer}.{name}.{attr}", density)
                            self._patches.append((obj, attr, member, classmethod(wrapped)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((module, attr, obj, wrappers[id(obj)][1]))

    def _wrap(self, fn, qualname: str, density):
        index = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                spans[span] = (index, parent, start, clock(), failed)
                stack.pop()
            if isinstance(result, density):
                self.dense_bytes += result.entries.nbytes
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def flush(self) -> None:
        """Fold the recorded spans into per-function counts and self time."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for span, (index, _, start, end, failed) in enumerate(self.spans):
            name = self.names[index]
            self.calls[name] += 1
            self.busy[name] += end - start - covered[span]
            self.failed[name] += failed
        self.spans.clear()

    def value(self, metric: str) -> float | None:
        """``<layer>.<function>.calls|busy_s|failed``, 0 for a function that
        was never called (or no longer exists); None for any other name."""
        name, _, field = metric.rpartition(".")
        table = {"calls": self.calls, "busy_s": self.busy, "failed": self.failed}.get(field)
        if table is None or name.split(".")[0] not in LAYERS:
            return None
        return table.get(name, 0)
