"""In-memory spans around the library calls the benchmark makes.

A :class:`Tracer` records one :class:`Span` per layer boundary: name,
start, end, the span that caused it and the identifier of the root span
(one user call) it belongs to. :func:`instrument` wraps public callables
of the library for the duration of a ``with`` block, so spans come from
this file and the program under test is not edited. Spans stay in memory
until the run ends; :func:`self_times` turns them into per-layer self
time (duration minus the part covered by child spans).
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    root: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; nesting follows a per-thread stack of open spans."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = Span(name, self.clock(), float("nan"), parent, -1, dict(attrs))
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        record.root = self.spans[parent].root if parent >= 0 else index
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record.end = self.clock()

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "root": s.root, **s.attrs,
            }
            for s in self.spans
        ]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children are clipped to the parent's interval and overlapping
    children (from concurrent threads) are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return [
        span.duration - _union_length(children.get(i, []))
        for i, span in enumerate(spans)
    ]


def nearest_ancestor(spans: list[Span], index: int, names: set[str]) -> str | None:
    """Name of the closest ancestor of ``spans[index]`` whose name is in ``names``."""
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name in names:
            return spans[parent].name
        parent = spans[parent].parent
    return None


def _wrap(tracer: Tracer, name: str, func, on_result=None):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = func(*args, **kwargs)
            if on_result is not None:
                on_result(span, result)
            return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the library's layer entry points with spans, then restore them.

    - ``index.build``: ``KDTree.__init__`` (full tree and bootstrap trees)
    - ``index.flatten``: ``KDTree.flatten``
    - ``threshold.bootstrap``: ``bootstrap_threshold_bounds`` as fit calls it
    - ``grid.build``: ``GridCache.__init__``
    - ``traverse``: ``bound_densities`` as fit, the bootstrap and classify call it
    """
    import repro.core.classifier as classifier
    import repro.core.grid as grid
    import repro.core.threshold as threshold
    import repro.index.kdtree as kdtree

    def rounds(span: Span, result) -> None:
        span.attrs["rounds"] = int(result.iterations)

    patches = [
        (kdtree.KDTree, "__init__", "index.build", None),
        (kdtree.KDTree, "flatten", "index.flatten", None),
        (classifier, "bootstrap_threshold_bounds", "threshold.bootstrap", rounds),
        (grid.GridCache, "__init__", "grid.build", None),
        (classifier, "bound_densities", "traverse", None),
        (threshold, "bound_densities", "traverse", None),
    ]
    saved = []
    try:
        for owner, attr, name, on_result in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, on_result))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
