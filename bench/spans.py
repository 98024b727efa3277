"""In-memory span tracer that wraps a package's public functions from outside.

`Tracer.install` replaces every public module-level function of the given
modules with a wrapper that records one `Span` per call: name, thread,
start, end and parent (the caller's open span on the same thread).  Every
binding is replaced, including names another module imported with
`from .x import f`, so calls between modules are seen too.  Nothing in the
traced package is edited on disk; `uninstall` restores the originals.

`summarize` turns the spans into per-layer self time, call and error counts.
A layer is the last component of the defining module's name.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import threading
import time
from collections import defaultdict


# augment.preset only looks a recipe up by name; harness calls it for every
# repetition, augmented or not, so wrapping it would count augment calls on
# runs that augment nothing.
UNTRACED = frozenset({"augment.preset"})


class Span:
    __slots__ = ("name", "layer", "thread", "start", "end", "parent", "child_s", "error")

    def __init__(self, name, layer, thread, start, end=None, parent=None, error=False):
        self.name = name          # "<layer>.<function>"
        self.layer = layer
        self.thread = thread
        self.start = start
        self.end = end
        self.parent = parent      # enclosing Span on the same thread, or None
        self.child_s = 0.0        # summed duration of direct children
        self.error = error

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        spans, local, clock, ident = self.spans, self._local, time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = Span(name, layer, ident(), 0.0, parent=parent)
            stack.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)
                if parent is not None:
                    parent.child_s += span.end - span.start

        return traced

    def install(self, modules) -> int:
        """Wrap the public functions defined in ``modules``, except `UNTRACED`.

        Returns how many functions were wrapped.
        """
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and f"{layer}.{name}" not in UNTRACED):
                    wrappers[obj] = self.wrap(obj, layer)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        return len(wrappers)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._undo):
            setattr(mod, name, obj)
        self._undo.clear()


def _merge(intervals):
    merged: list[list[float]] = []
    for s, e in sorted(intervals):
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return merged


def _overlap(interval, merged, starts) -> float:
    s, e = interval
    total = 0.0
    i = max(bisect.bisect_right(starts, s) - 1, 0)
    while i < len(merged) and merged[i][0] < e:
        total += max(0.0, min(e, merged[i][1]) - max(s, merged[i][0]))
        i += 1
    return total


def wait_seconds(spans, main_thread: int) -> float:
    """Harness self time on the main thread while another thread has an open span.

    A main-thread span's self intervals are its [start, end] minus its
    direct children.  Any open span on a worker means that worker's root
    span is open, so the roots' union stands for "a worker is busy".
    """
    workers = _merge((sp.start, sp.end) for sp in spans
                     if sp.thread != main_thread and sp.parent is None)
    if not workers:
        return 0.0
    starts = [iv[0] for iv in workers]
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None and sp.thread == main_thread and sp.parent.layer == "harness":
            children[id(sp.parent)].append(sp)
    total = 0.0
    for sp in spans:
        if sp.thread != main_thread or sp.layer != "harness":
            continue
        cursor = sp.start
        for child in sorted(children[id(sp)], key=lambda c: c.start):
            total += _overlap((cursor, child.start), workers, starts)
            cursor = child.end
        total += _overlap((cursor, sp.end), workers, starts)
    return total


def summarize(spans, main_thread: int) -> dict:
    """Per-layer and per-function self time and counts, plus harness wait.

    ``layers["harness"]["self_s"]`` excludes ``harness_wait_s``, so on a run
    whose workers run one at a time the layers' self times add up to the
    wall time of the root span.
    """
    layers = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "errors": 0})
    functions = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for sp in spans:
        self_s = sp.duration - sp.child_s
        row = layers[sp.layer]
        row["self_s"] += self_s
        row["calls"] += 1
        row["errors"] += int(sp.error)
        fn = functions[sp.name]
        fn["self_s"] += self_s
        fn["calls"] += 1
    wait = wait_seconds(spans, main_thread)
    if "harness" in layers:
        layers["harness"]["self_s"] -= wait
    return {"layers": dict(layers), "functions": dict(functions), "harness_wait_s": wait}
