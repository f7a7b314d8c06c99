"""Span and counter recorder for one traced benchmark pass.

The library is not changed: an instrument replaces a function at every
module attribute of the package that binds it.  Functions are imported by
name into several modules (``gammatype.hyp1f2_with_bound``,
``quad.bessel_zeros``, ``vandantzig.bessel_i_normalized``), so patching only
the defining module would miss most calls.

Spans are kept in flat arrays (name id, start, end, parent) and reduced to
per-name totals when the pass ends.  Counters carry no timing, which keeps
the cost on scalar kernels called hundreds of thousands of times small.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

PACKAGE = "besselprob"


class Tracer:
    """Single-threaded span stack plus counters.

    ``counts`` holds named event counts; ``notes`` holds small per-span
    records that hooks attach (keyed by span index).
    """

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.notes: dict = {}
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def span_name(self, idx: int):
        return self._names[self.name[idx]] if idx >= 0 else None

    def call(self, name: str, fn, args, kwargs, on_call=None, on_result=None):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        parent = self._stack[-1]
        if on_call is not None:
            on_call(self, parent, args, kwargs)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(parent)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
        if on_result is not None:
            on_result(self, parent, result)
        return result

    def spanned(self, name: str, on_call=None, on_result=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs, on_call, on_result)
            return wrapper
        return make

    def counted(self, key: str, inside: str = None, inside_key: str = None):
        """Count calls under ``key``; also under ``inside_key`` when the
        innermost open span is named ``inside``."""
        counts = self.counts
        if inside is None:
            # the common case, kept free of the span lookup: scalar kernels
            # are called hundreds of thousands of times per pass
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    counts[key] += 1
                    return fn(*args, **kwargs)
                return wrapper
            return make

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                if self.span_name(self._stack[-1]) == inside:
                    counts[inside_key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # -- installation ------------------------------------------------------

    def bind(self, module: str, attr: str, make, skip=()) -> bool:
        """Replace ``module.attr`` at every package binding site.

        Returns False (and patches nothing) when the name does not exist.
        Modules named in ``skip`` keep the original, so calls inside them
        are not counted.
        """
        mod = sys.modules.get(module)
        orig = getattr(mod, attr, None) if mod is not None else None
        if orig is None:
            return False
        wrapper = make(orig)
        for name, m in list(sys.modules.items()):
            if m is None or name in skip:
                continue
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)
                    self._restore.append((m, key, orig))
        return True

    def bind_classmethod(self, module: str, cls_name: str, attr: str, make) -> bool:
        cls = getattr(sys.modules.get(module), cls_name, None)
        desc = vars(cls).get(attr) if cls is not None else None
        if not isinstance(desc, classmethod):
            return False
        bound = getattr(cls, attr)
        setattr(cls, attr, staticmethod(make(bound)))
        self._restore.append((cls, attr, desc))
        return True

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    # -- reduction ---------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds (the span
        minus the time its child spans cover)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0.0, 0.0] for name in self._names}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out[self._names[self.name[i]]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def children_of(self, parent_name: str, child_name: str) -> list:
        """Number of ``child_name`` spans directly under each
        ``parent_name`` span, one entry per parent span."""
        pid = self._ids.get(parent_name)
        cid = self._ids.get(child_name)
        if pid is None:
            return []
        per = {i: 0 for i in range(len(self.start)) if self.name[i] == pid}
        if cid is not None:
            for i in range(len(self.start)):
                if self.name[i] == cid and self.parent[i] in per:
                    per[self.parent[i]] += 1
        return list(per.values())
