"""In-memory spans around the public functions of each coreg layer.

The tracer wraps functions from outside the program: every module binding of
a wrapped function is replaced for the duration of a traced iteration, so a
call through ``coreg.matcher.build_cfog`` and one through
``coreg.cfog.build_cfog`` both open a span, and spans nest by call order.
Spans are kept in memory and summarised when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call of a wrapped function: ``parent`` is the index of the
    enclosing span in the tracer's list (None for a root)."""

    name: str
    start: float
    end: float
    parent: int | None
    iteration: int
    counts: dict = field(default_factory=dict)


def resolve(target: str):
    """``"pkg.mod:attr.sub"`` -> (owner object, attribute name, value)."""
    mod_name, _, path = target.partition(":")
    owner = importlib.import_module(mod_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def bindings(fn, owner, attr, module_prefixes=("coreg",)):
    """Every (namespace, name) that binds ``fn``: its home attribute plus any
    module under ``module_prefixes`` that imported it, under any alias."""
    found = [(owner, attr)]
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] not in module_prefixes:
            continue
        for name, value in list(vars(mod).items()):
            if value is fn and (mod, name) != (owner, attr):
                found.append((mod, name))
    return found


class Tracer:
    """Records spans for the wrapped functions while ``patched`` is active."""

    def __init__(self, iteration: int = 0, clock=time.perf_counter):
        self.iteration = iteration
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent,
                               self.iteration))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of "
                               f"order with {self.spans[popped].name} open")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, counter=None):
        """``fn`` with a span per call; ``counter(args, kwargs, result)``
        returns counts stored on the span."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                tracer.spans[idx].counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def patched(self, targets: dict, counters: dict):
        """Replace every binding of each ``{span name: target}`` function
        with its traced wrapper; restore them all on exit."""
        saved = []
        try:
            for name, target in targets.items():
                owner, attr, fn = resolve(target)
                wrapper = self.wrap(name, fn, counters.get(name))
                for namespace, binding in bindings(fn, owner, attr):
                    saved.append((namespace, binding, fn))
                    setattr(namespace, binding, wrapper)
            yield self
        finally:
            for namespace, binding, fn in reversed(saved):
                setattr(namespace, binding, fn)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list) -> list:
    """Per span: its duration minus the part of its interval that its
    direct child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        inner = [(max(k.start, span.start), min(k.end, span.end))
                 for k in kids]
        out.append((span.end - span.start)
                   - covered([iv for iv in inner if iv[1] > iv[0]]))
    return out


def has_ancestor(spans: list, idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def summarise(spans: list) -> dict:
    """Per span name: ``calls``, inclusive ``s``, ``self_s`` and the summed
    counts of its spans."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += span.end - span.start
        entry["self_s"] += own
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    return out
