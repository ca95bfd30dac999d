"""Traced mode: wrap freeprod's public functions and record spans.

``Tracer.install(fp)`` replaces every public function of the traced modules
in every freeprod namespace that holds a reference to it (``cli`` imports
``enumerate_ball`` by name, ``freeprod/__init__`` re-exports, ...), plus a
fixed list of methods, with a wrapper that records one span per call.
``uninstall`` puts the originals back.  Spans stay in memory as parallel
arrays (name, start, end, parent, job) until ``dump`` writes them out.

A span's self time is its duration minus the durations of its direct
children.  Work counts are taken at the call boundary from the arguments
and the return value.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

MODULES = ("finite_group", "free_product", "words", "specfiles", "checker", "tree", "sampling", "cli")

# (module, class, attribute, span name); FPElement's methods keep the short
# names the layer is known by.
METHODS = [
    ("free_product", "FPElement", "__mul__", "free_product.mul"),
    ("free_product", "FPElement", "inverse", "free_product.inverse"),
    ("free_product", "FPElement", "power", "free_product.power"),
    ("free_product", "FPElement", "cyclic_reduce", "free_product.cyclic_reduce"),
    ("free_product", "FPElement", "order", "free_product.order"),
    ("free_product", "FPElement", "conjugate", "free_product.conjugate"),
    ("free_product", "FPElement", "commutes_with", "free_product.commutes_with"),
    ("free_product", "FPElement", "as_word", "free_product.as_word"),
    ("free_product", "FreeProduct", "element", "free_product.FreeProduct.element"),
    ("free_product", "FreeProduct", "generator", "free_product.FreeProduct.generator"),
    ("free_product", "FreeProduct", "factor_element", "free_product.FreeProduct.factor_element"),
    ("free_product", "CyclicReduction", "rebuild", "free_product.CyclicReduction.rebuild"),
    ("finite_group", "FiniteGroup", "power", "finite_group.FiniteGroup.power"),
    ("finite_group", "FiniteGroup", "element_order", "finite_group.FiniteGroup.element_order"),
    ("finite_group", "FiniteGroup", "generated_subgroup", "finite_group.FiniteGroup.generated_subgroup"),
    ("finite_group", "FiniteGroup", "is_subgroup", "finite_group.FiniteGroup.is_subgroup"),
    ("finite_group", "FiniteGroup", "conjugate_subgroup", "finite_group.FiniteGroup.conjugate_subgroup"),
    ("finite_group", "FiniteGroup", "relabeled", "finite_group.FiniteGroup.relabeled"),
    ("words", "MixedWord", "concat", "words.MixedWord.concat"),
    ("words", "MixedWord", "inverse", "words.MixedWord.inverse"),
    ("words", "MixedWord", "repeat", "words.MixedWord.repeat"),
    ("words", "Substitution", "of", "words.Substitution.of"),
    ("checker", "Part", "of", "checker.Part.of"),
]


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _solutions(result) -> int:
    if isinstance(result, list):
        return len(result)
    return 0 if result is None else 1


def _search_space(args, kwargs) -> int:
    eq, candidates = _arg(args, kwargs, 0, "eq"), _arg(args, kwargs, 1, "candidates")
    return math.prod(len(candidates[v]) for v in eq.lhs.free_variables())


# span name -> {counter: f(args, kwargs, result) -> amount}
COUNTERS = {
    "finite_group.from_cayley_table": {"cells": lambda a, k, r: len(_arg(a, k, 0, "rows")) ** 2},
    "free_product.mul": {"syllables_in": lambda a, k, r: len(a[0].syllables) + len(a[1].syllables)},
    "free_product.cyclic_reduce": {"syllables_in": lambda a, k, r: len(a[0].syllables)},
    "free_product.enumerate_ball": {"elements_out": lambda a, k, r: len(r)},
    "words.parse_word": {"letters_out": lambda a, k, r: len(r.letters)},
    "words.evaluate": {"letters_in": lambda a, k, r: len(_arg(a, k, 0, "word").letters)},
    "words.solve_bounded": {
        "search_space": lambda a, k, r: _search_space(a, k),
        "solutions": lambda a, k, r: _solutions(r),
    },
    "checker.check_all": {"violations": lambda a, k, r: len(r.violations)},
    "tree.axis_vertices": {"vertices_out": lambda a, k, r: len(r)},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack = [-1]
        self.job_id = -1
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans the harness opens itself ---------------------------------------

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        counters = list(COUNTERS.get(name, {}).items())
        counts = self.counts[name]
        names, starts, ends, parents, jobs, stack = (
            self.name, self.start, self.end, self.parent, self.job, self.stack)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            for counter, amount in counters:
                counts[counter] += amount(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, fp) -> None:
        """Wrap the public API of ``fp`` (the imported freeprod package)."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"{fp.__name__}.{short}")
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_") and val not in wrappers):
                    wrappers[val] = self._wrap(val, f"{short}.{attr}")
        namespaces = [m for n, m in sys.modules.items()
                      if n == fp.__name__ or n.startswith(fp.__name__ + ".")]
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        for short, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"{fp.__name__}.{short}"), cls_name)
            original = vars(cls)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name))
            else:
                replacement = self._wrap(original, name)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s, total_s and the work counts."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for i in range(n):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        for name, counts in self.counts.items():
            out[name].update(counts)
        return out

    def dump(self, path: Path, job_kinds: list[str]) -> None:
        """Write every span, times relative to the first span's start."""
        t0 = self.start[0] if len(self.start) else 0.0
        payload = {
            "names": self.names,
            "job_kinds": job_kinds,
            "spans": {
                "name": list(self.name),
                "start": [round(t - t0, 9) for t in self.start],
                "end": [round(t - t0, 9) for t in self.end],
                "parent": list(self.parent),
                "job": list(self.job),
            },
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)
