"""Spans around the public functions of the starflow modules, from outside.

Every public function defined in a starflow module is replaced by a timing
wrapper at each module attribute that holds it, so a call is seen whichever
name it is made through (`flow.assemble` and `geometry.assemble` are the
same function bound twice).  Spans live in flat in-memory arrays (function,
parent span, start, end) and are reduced only after the traced commands end;
the self time of a span is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

import starflow


def _public_functions(module):
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and not name.startswith("_"):
            if obj.__module__ == module.__name__:
                yield name, obj


class Tracer:
    def __init__(self, hooks=None):
        self.modules = [
            importlib.import_module(f"starflow.{info.name}")
            for info in pkgutil.iter_modules(starflow.__path__)
        ]
        self.names = []        # "module.function" per function id
        self._saved = []       # (module, attribute, original) to restore
        # "module.function" -> callable(args, result), run after the span ends
        self.hooks = hooks or {}
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def clear(self) -> None:
        """Drop the recorded spans; the wrappers keep appending to the same arrays."""
        for spans in (self.fid, self.parent, self.start, self.end):
            del spans[:]

    def _wrap(self, fid: int, name: str, fn):
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack, hooks, clock = self._stack, self.hooks, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            hook = hooks.get(name)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function at every starflow attribute bound to it."""
        wrappers = {}
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(module):
                self.names.append(f"{short}.{name}")
                wrappers[id(fn)] = self._wrap(len(self.names) - 1, self.names[-1], fn)
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in self._saved:
            setattr(module, attr, obj)
        self._saved.clear()

    def reduce(self) -> dict:
        """Per function: calls, median and p99 duration (ns), total self time (ns)."""
        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        out = {}
        for f in np.unique(fid):
            sel = fid == f
            d = dur[sel]
            out[self.names[f]] = {
                "calls": int(sel.sum()),
                "median_ns": float(np.median(d)),
                "p99_ns": float(np.percentile(d, 99)),
                "total_ns": int(d.sum()),
                "self_ns": float(self_ns[sel].sum()),
            }
        return out
