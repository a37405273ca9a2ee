"""In-memory spans around calls into the program's layers.

The benchmark never edits the program: it times a layer by replacing a
public callable with a wrapper that records one span per call. A span is
``(name, start_ns, end_ns, parent, epoch)``; ``parent`` is the index of
the span that was open when this one started (``-1`` at top level) and
``epoch`` is the published epoch the call belongs to. Spans stay in a
list until :meth:`Tracer.write` dumps them once, at exit.

:class:`NullTracer` has the same interface and wraps nothing, so the
untraced run executes exactly the program's own callables.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["NullTracer", "Tracer"]

Span = Tuple[str, int, int, int, int]


class NullTracer:
    """Tracing off: wrappers are the identity."""

    enabled = False
    epoch = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        return fn

    def patch(self, target: Any, attr: str, name: str) -> None:
        pass

    def restore(self) -> None:
        pass


class Tracer:
    """Records one span per call of every wrapped callable."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.epoch = 0
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.epoch)

        return traced

    def patch(self, target: Any, attr: str, name: str) -> None:
        """Shadow the method ``target.attr`` of an instance with a traced
        wrapper until :meth:`restore`, so callers inside the program that
        reach it through ``target`` are traced too."""
        setattr(target, attr, self.wrap(name, getattr(target, attr)))
        self._patched.append((target, attr))

    def restore(self) -> None:
        for target, attr in reversed(self._patched):
            delattr(target, attr)
        self._patched.clear()

    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children (spans never overlap within one thread).
        """
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _parent, _epoch = span
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[index]) / 1e9
        return out

    def write(self, path: str) -> None:
        """Dump every span as ``[name, start_ns, end_ns, parent, epoch]``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "epoch"],
                       "spans": [list(s) for s in self.spans if s is not None]},
                      handle)
