"""Self time and span nesting.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import threading

import pytest

from perfbench.tracing import Span, Tracer, nearest_ancestor, self_times


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("fit", 0.0, 10.0, -1, 0),
        Span("bootstrap", 1.0, 7.0, 0, 0),
        Span("traverse", 2.0, 6.0, 1, 0),
        Span("grid", 8.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0])


def test_overlapping_children_count_once_and_are_clipped():
    spans = [
        Span("request", 0.0, 10.0, -1, 0),
        Span("a", 2.0, 6.0, 0, 0),
        Span("b", 4.0, 8.0, 0, 0),
        Span("late", 9.0, 12.0, 0, 0),
    ]
    # Children cover [2, 8] and [9, 10] of the parent: 7 of its 10 seconds.
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_nests_spans_and_shares_the_root():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("api.fit"):
        clock.now = 1.0
        with tracer.span("threshold.bootstrap"):
            clock.now = 2.0
            with tracer.span("traverse"):
                clock.now = 5.0
            clock.now = 6.0
        clock.now = 8.0
    with tracer.span("api.classify"):
        clock.now = 9.0
    names = [s.name for s in tracer.spans]
    assert names == ["api.fit", "threshold.bootstrap", "traverse", "api.classify"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, -1]
    assert [s.root for s in tracer.spans] == [0, 0, 0, 3]
    assert self_times(tracer.spans) == pytest.approx([3.0, 2.0, 3.0, 1.0])
    assert nearest_ancestor(tracer.spans, 2, {"threshold.bootstrap", "api.fit"}) == "threshold.bootstrap"
    assert nearest_ancestor(tracer.spans, 3, {"api.fit"}) is None


def test_threads_keep_their_own_parent_stack():
    tracer = Tracer()
    ready = threading.Barrier(2)

    def worker(name: str) -> None:
        with tracer.span(name):
            ready.wait(timeout=5)
            with tracer.span(name + ".child"):
                pass

    threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    by_name = {s.name: i for i, s in enumerate(tracer.spans)}
    assert tracer.spans[by_name["a.child"]].parent == by_name["a"]
    assert tracer.spans[by_name["b.child"]].parent == by_name["b"]
