"""In-memory span and counter recorder for the traced benchmark run.

``Recorder.install`` wraps every function in the ``__all__`` of each
gpgamma layer (plus ``cli.main``) and rebinds every ``gpgamma.*`` module
attribute that refers to the original function object, so calls between
layers are recorded as well.  Functions of ``special`` are hot scalar
kernels: they get aggregate counters (calls and nanoseconds) instead of one
span per call.  ``uninstall`` restores the originals.

A span is ``[name, start_ns, end_ns, parent, op_id, child_ns]``: ``parent``
is the index of the enclosing span (-1 at top level) and ``child_ns`` the
part of the span covered by child spans and kernels, so that
self time = end - start - child_ns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

LAYERS = ("model", "posterior", "approximation", "validation", "special", "cli")
KERNEL_LAYER = "special"


def _table_work(stats: dict[str, int], table) -> None:
    n = len(table.probs)
    stats["terms"] += n
    stats["max_terms"] = max(stats["max_terms"], n)


def _window_work(stats: dict[str, int], disc) -> None:
    stats["windows"] += len(disc.probs)
    stats["zero_windows"] += int((disc.probs == 0.0).sum())


# Work counts taken from a function's return value.
WORK = {
    "posterior.exact_posterior": _table_work,
    "approximation.discretize_gamma": _window_work,
}


class Recorder:
    """Spans of every traced pass; kernel counters and work counts of the current one."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._first = 0  # index of the current pass's first span
        self.kernels: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.work: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.failed: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []
        self._kernel_depth = 0
        self._undo: list[tuple[types.ModuleType, str, Any]] = []

    def reset(self) -> None:
        """Start a new pass; earlier spans are kept for ``dump``."""
        self._first = len(self.spans)
        self.kernels.clear()
        self.work.clear()
        self.failed.clear()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        on_result = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, perf_counter_ns(), 0, parent, self.op_id, 0]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                span[2] = perf_counter_ns()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][5] += span[2] - span[1]
            if on_result is not None:
                on_result(self.work[name], result)
            return result

        return wrapper

    def _kernel(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._kernel_depth += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self._kernel_depth -= 1
                c = self.kernels[name]
                c[0] += 1
                c[1] += elapsed
                if self._kernel_depth == 0 and self._stack:
                    self.spans[self._stack[-1]][5] += elapsed

        return wrapper

    def install(self) -> None:
        wrapped: dict[Any, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gpgamma.{layer}")
            for attr in getattr(module, "__all__", ["main"]):
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType):
                    name = f"{layer}.{attr}"
                    make = self._kernel if layer == KERNEL_LAYER else self._span
                    wrapped[fn] = make(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "gpgamma" and not modname.startswith("gpgamma."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapped[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    # -- summaries --------------------------------------------------------

    def busy(self, name: str) -> tuple[int, float, float]:
        """(calls, busy s, self s) of this pass's spans called ``name``."""
        calls, busy, child = 0, 0, 0
        for s in self.spans[self._first :]:
            if s[0] == name:
                calls += 1
                busy += s[2] - s[1]
                child += s[5]
        return calls, busy / 1e9, (busy - child) / 1e9

    def kernel(self, name: str) -> tuple[int, float]:
        calls, ns = self.kernels.get(name, (0, 0))
        return calls, ns / 1e9

    def dump(self, path: Path, header: dict[str, Any]) -> None:
        """Write the header, every span and this pass's counters as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for name, start, end, parent, op_id, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, op_id]) + "\n")
            for name, (calls, ns) in sorted(self.kernels.items()):
                fh.write(json.dumps({"kernel": name, "calls": calls, "ns": ns}) + "\n")
