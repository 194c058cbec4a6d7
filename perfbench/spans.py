"""In-memory spans around calls into the program's layers.

``Tracer.install`` replaces every public function of the traced bicount
modules, wherever a bicount module refers to it, with a wrapper that
records one span per call: id, parent id, name, start and end.  The
benchmark opens its own ``op.*`` spans around each operation, so every
program span has an operation as an ancestor.  Spans stay in memory until
``write`` is called at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("graph", "exact", "edges", "parallel", "external", "approx", "cli")

# Called once per start vertex inside count_vpp and count_parallel; a span
# per call would cost more than the work it measures.  Its time shows in
# the self time of its callers.
UNTRACED = {"exact.end_dominant_pass"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        # A worker thread's first span hangs under the main thread's
        # innermost open span (the call that started the worker).
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every traced layer in place."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"bicount.{layer}")
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or name in UNTRACED
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrappers[id(fn)] = self.wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "bicount" and not mod_name.startswith("bicount."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON object per line; times in seconds from the first span."""
        origin = min((s[3] for s in self.spans), default=0.0)
        self_times = self_time(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start - origin, "end": end - origin,
                    "self": self_times[sid]}) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it its children cover."""
    bounds = {sid: (start, end) for sid, _, _, start, end in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, start, end in spans:
        if parent in bounds:
            p_start, p_end = bounds[parent]
            clipped = (max(start, p_start), min(end, p_end))
            if clipped[0] < clipped[1]:
                children.setdefault(parent, []).append(clipped)
    return {sid: (end - start) - _union_length(children.get(sid, ()))
            for sid, (start, end) in bounds.items()}


def summarize(spans) -> dict[str, dict[str, float]]:
    """Span name -> calls, total seconds and self seconds."""
    self_times = self_time(spans)
    out: dict[str, dict[str, float]] = {}
    for sid, _, name, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_times[sid]
    return out


def time_under(spans, op: str, names) -> float:
    """Summed duration of spans named in ``names`` that run inside an
    operation span named ``op``, not counting a match nested in a match."""
    by_id = {s[0]: s for s in spans}
    wanted = set(names)

    def inside(sid) -> bool:
        parent = by_id[sid][1]
        while parent is not None:
            span = by_id.get(parent)
            if span is None:
                return False
            if span[2] in wanted:
                return False
            if span[2] == op:
                return True
            parent = span[1]
        return False

    return sum(end - start for sid, _, name, start, end in spans
               if name in wanted and inside(sid))
