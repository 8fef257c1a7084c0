"""Span and count tracer for the traced benchmark run.

The package binds names with ``from .x import y``, so a function is reachable
under several module attributes (``tracemin.pencil.finite_eigenvalues``,
``tracemin.indefinite.finite_eigenvalues``, ``tracemin.cli.finite_eigenvalues``
and the package namespace). The tracer builds one wrapper per function and
installs it under every attribute that holds the original, so nested calls
are seen wherever the caller looks the name up. NumPy and SciPy linear
algebra is looked up at call time (``np.linalg.svd``, ``sla.eig``), so
wrapping the attribute on ``numpy.linalg`` and ``scipy.linalg`` counts it.

Spans stay in memory until the run ends. Each span records its name, its
parent span and the root span of the op that caused it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("spectral", "definite", "pencil", "indefinite", "oracle", "cli")

# spans of these names would split a caller's own work from its self time
# without being a layer boundary: max_norm is a one-line helper called
# everywhere, and the cmd_* handlers are main's body.
_SKIP = {"max_norm"}
_CLI_TRACED = {"main", "load_problem"}

# (module, attribute, span name)
_LINALG = (
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "svd", "linalg.svd"),
    ("numpy.linalg", "solve", "linalg.solve"),
    ("numpy.linalg", "cholesky", "linalg.cholesky"),
    ("numpy.linalg", "qr", "linalg.qr"),
    ("numpy.linalg", "inv", "linalg.inv"),
    ("scipy.linalg", "eigh", "linalg.eigh"),
    ("scipy.linalg", "eig", "linalg.qz"),
)


class Tracer:
    """Records nested spans while installed; ``uninstall`` restores every
    attribute it replaced."""

    def __init__(self):
        # each span: [name, parent id, root id, start, end]
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            root = spans[parent][2] if stack else sid
            span = [name, parent, root, perf_counter(), 0.0]
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name (the benchmark's own root
        spans: one per op, CLI call or sweep point)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tracemin.{layer}")
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                home = fn.__module__.rpartition(".")[2]
                if not fn.__module__.startswith("tracemin.") or attr.startswith("_"):
                    continue
                if attr in _SKIP or (home == "cli" and attr not in _CLI_TRACED):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(f"{home}.{fn.__name__}", fn)
        for name in ["tracemin"] + [f"tracemin.{layer}" for layer in LAYERS]:
            mod = importlib.import_module(name)
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for modname, attr, span_name in _LINALG:
            mod = importlib.import_module(modname)
            self._patch(mod, attr, self._wrap(span_name, getattr(mod, attr)))

    def _patch(self, mod, attr, new):
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self):
        for mod, attr, old in reversed(self._patches):
            setattr(mod, attr, old)
        self._patches.clear()

    def summary(self, roots):
        """Per span name: calls, self seconds and total seconds, over the
        spans whose root is one of ``roots``; a name never seen reads as
        zeros. Self time is a span's duration minus the durations of its
        direct children."""
        roots = set(roots)
        child = defaultdict(float)
        for name, parent, root, t0, t1 in self.spans:
            if parent >= 0 and root in roots:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for sid, (name, parent, root, t0, t1) in enumerate(self.spans):
            if root in roots:
                agg = out[name]
                agg["calls"] += 1
                agg["self_s"] += (t1 - t0) - child[sid]
                agg["total_s"] += t1 - t0
        return out

    def roots(self, name):
        """Ids of the root spans with the given name."""
        return [sid for sid, s in enumerate(self.spans) if s[1] < 0 and s[0] == name]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, root, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "root": root, "start": t0, "end": t1}))
                fh.write("\n")
