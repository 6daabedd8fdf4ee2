"""Per-layer spans, recorded from outside the library.

`Tracer.install` replaces every public function of each layer module of
`xmodcat` with a timing wrapper at every binding site: the defining module
and every `xmodcat` module that did `from .x import f`.  A few methods that
carry a layer's work are wrapped on their class.  Each span knows its
parent; a span's self time is its duration minus the time covered by its
child spans.  Nothing under `src/` changes, and `uninstall` puts every
original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("groups", "zlinalg", "crossed", "catgroups", "functors",
          "cohomology", "extensions", "cli")

# (layer, class, method, span name).  `crossed.validate` is the method every
# caller reaches (`is_valid`, the module-level `validate`, the CLI), so the
# span takes the layer-level name; the module-level one-line delegate is not
# wrapped, to keep one span per validation.
METHODS = (
    ("groups", "FiniteGroup", "__init__", "groups.FiniteGroup"),
    ("crossed", "BraidedGammaCrossedModule", "validate", "crossed.validate"),
    ("catgroups", "GradedCatGroup", "__eq__", "catgroups.GradedCatGroup.__eq__"),
)
SKIP = {"crossed.validate"}

# Spans whose peak traced allocation is measured (tracemalloc is started and
# stopped around each call, so only these calls pay for it).
ALLOC_SPANS = {"catgroups.check_axioms"}


def _cells(st, args, kwargs, result):
    A = args[0] if args else kwargs["A"]
    st.extra["cells"] += len(A) * (len(A[0]) if len(A) else 0)


def _max_n_mor(st, args, kwargs, result):
    G = args[0] if args else kwargs["G"]
    st.extra["max_n_mor"] = max(st.extra["max_n_mor"], G.n_mor)


def _table_bytes(st, args, kwargs, result):
    st.extra["table_bytes"] = max(st.extra["table_bytes"],
                                  result.comp.nbytes + result.tmor.nbytes)


def _length(key):
    def hook(st, args, kwargs, result):
        st.extra[key] += len(result)
    return hook


def _hits(st, args, kwargs, result):
    st.extra["hits"] += result is not None


# Counts taken from arguments and results, by span name.
HOOKS = {
    "zlinalg.smith_normal_form": _cells,
    "catgroups.check_axioms": _max_n_mor,
    "catgroups.build_catgroup": _table_bytes,
    "functors.enumerate_functors": _length("survivors"),
    "cohomology.all_coboundaries": _length("count"),
    "functors.find_homotopy": _hits,
    "extensions.are_equivalent": _hits,
}


class SpanStats:
    __slots__ = ("calls", "self_ns", "extra")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.extra = defaultdict(int)


class Tracer:
    """Aggregated spans: per name calls, self time and hook counts, and
    per (parent, child) edge counts."""

    def __init__(self):
        self.stats = defaultdict(SpanStats)
        self.edges = Counter()
        self._stack = []          # [name, child_ns] of each open span
        self._saved = []          # (owner, attribute, original)

    def wrap(self, name, fn):
        stack, stats, edges = self._stack, self.stats, self.edges
        hook = HOOKS.get(name)
        alloc = name in ALLOC_SPANS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            edges[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0]
            stack.append(frame)
            if alloc:
                tracemalloc.start()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                stack.pop()
                st = stats[name]
                st.calls += 1
                st.self_ns += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    st.extra["peak_alloc"] = max(st.extra["peak_alloc"], peak)
            if hook is not None:
                hook(st, args, kwargs, result)
            return result
        return span

    def install(self):
        import xmodcat.cli  # noqa: F401  (imports every layer)

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"xmodcat.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in SKIP
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrappers[id(obj)] = self.wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "xmodcat" and not modname.startswith("xmodcat."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"xmodcat.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            self._saved.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(name, orig))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def metric(self, span, field):
        """One per-layer value: calls, self_s, or a hook count; ratios are
        hits / calls (0 when there were no calls)."""
        st = self.stats.get(span) or SpanStats()
        if field == "calls":
            return st.calls
        if field == "self_s":
            return st.self_ns / 1e9
        if field == "hit_ratio":
            return st.extra["hits"] / st.calls if st.calls else 0.0
        if field == "peak_alloc_mb":
            return st.extra["peak_alloc"] / 2 ** 20
        return st.extra[field]


UNITS = {"calls": "count", "self_s": "s", "cells": "count",
          "max_n_mor": "count", "peak_alloc_mb": "MB", "table_bytes": "bytes",
          "survivors": "count", "count": "count", "hit_ratio": "ratio"}

# The per-layer metrics read from spans: (span, field).
SPAN_METRICS = [
    (span, field)
    for span, fields in (
        ("groups.FiniteGroup", ()),
        ("groups.decompose_abelian", ()),
        ("zlinalg.smith_normal_form", ("cells",)),
        ("zlinalg.congruence_kernel_gens", ()),
        ("zlinalg.subquotient_presentation", ()),
        ("crossed.validate", ()),
        ("catgroups.check_axioms", ("max_n_mor", "peak_alloc_mb")),
        ("catgroups.build_catgroup", ("table_bytes",)),
        ("catgroups.build_reduced", ()),
        ("catgroups.GradedCatGroup.__eq__", ()),
        ("functors.enumerate_functors", ("survivors",)),
        ("functors.homotopy_classes", ()),
        ("functors.find_homotopy", ("hit_ratio",)),
        ("functors.is_homotopy", ()),
        ("functors.check_graded_functor", ()),
        ("cohomology.h2", ()),
        ("cohomology.all_coboundaries", ("count",)),
        ("cohomology.class_vanishes", ()),
        ("extensions.are_equivalent", ("hit_ratio",)),
        ("extensions.extension_from_functor", ()),
        ("extensions.classify", ()),
        ("extensions.schreier_bijection_check", ()),
        ("cli.run_scenario_text", ()),
    )
    for field in ("calls", "self_s") + fields
]
