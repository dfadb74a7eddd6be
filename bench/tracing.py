"""Span tracer that wraps hermitia's public functions from outside.

Every public function defined in a hermitia module is replaced by a wrapper
that records a span (name, start, end, parent).  Every module-level name that
refers to the same function object, in any hermitia module, is rebound, so
calls through ``from .decomposition import residual`` and the like are seen
too.  Spans stay in memory until :meth:`Tracer.write`.  The wrappers keep a
plain stack of open spans, which is sound because the benchmark pins
``HERMITIA_THREADS=1``.
"""

from __future__ import annotations

import gzip
import inspect
import os
import sys
import time
from collections import defaultdict

MODULES = ("core", "decomposition", "flatten", "io", "linalg", "psd_sos",
           "real_herm", "separability", "spectral", "cli")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []  # (name id, start, end, parent span index or -1)
        self.names: list[str] = []
        self.n3: int = 0  # sum of n^3 over linalg.herm_eig calls
        self.csos_iterations: int = 0
        self.sep_certified: int = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # counts taken from a call's arguments, or from its result
        self._before = {"linalg.herm_eig": self._count_n3}
        self._after = {"psd_sos.csos_test": self._count_csos,
                       "separability.separable_search": self._count_sep}

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        after = self._after.get(qualname)
        before = self._before.get(qualname)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name_id, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_n3(self, args, kwargs):
        a = args[0] if args else kwargs["a"]
        self.n3 += len(a) ** 3

    def _count_csos(self, result):
        self.csos_iterations += int(result.iterations)

    def _count_sep(self, result):
        self.sep_certified += result.status == "SEPARABLE_CERTIFIED"

    def install(self) -> None:
        """Wrap every public function and rebind all of its aliases."""
        pkg = self.package.__name__
        mods = [sys.modules[f"{pkg}.{m}"] for m in MODULES] + [self.package]
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"{pkg}.{short}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def mark(self) -> int:
        return len(self.spans)

    def counts(self, start: int, end: int) -> dict[str, int]:
        """Calls per function among spans ``start:end`` (see :meth:`mark`)."""
        out: dict[str, int] = defaultdict(int)
        for name_id, *_ in self.spans[start:end]:
            out[self.names[name_id]] += 1
        return dict(out)

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time per function over all spans.

        Self time is a span's duration minus the durations of its direct
        children; spans are strictly nested because there is one thread.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name_id, start, end, _) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return dict(calls), dict(self_s)

    def write(self, path: str) -> None:
        """Spans as gzip'd TSV: name, start, end, parent index."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name_id, start, end, parent in self.spans:
                fh.write(f"{self.names[name_id]}\t{start:.9f}\t{end:.9f}\t{parent}\n")
