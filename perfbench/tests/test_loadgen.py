"""Percentiles, sample counts, accounting and the open-loop schedule."""

from __future__ import annotations

import pytest

from perfbench.loadgen import (
    FAILED_LATENCY_S,
    Outcome,
    Record,
    accounting,
    latency_summary,
    open_loop,
    percentile,
)


def _records(latencies, ok=True):
    return [Record("classify", i, 0.0, 0.0, lat, Outcome(ok)) for i, lat in enumerate(latencies)]


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50.0) == 50.0
    assert percentile(values, 90.0) == 90.0
    assert percentile(values, 99.0) == 99.0
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert percentile([7.0], 90.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_summary_reports_samples_and_whether_the_tail_is_supported():
    summary = latency_summary(_records([i / 1000.0 for i in range(1, 101)]))
    assert summary["samples"] == 100
    assert summary["p50_ms"] == pytest.approx(50.0)
    assert summary["p90_ms"] == pytest.approx(90.0)
    assert summary["tail_supported"] is True  # exactly ten samples beyond p90
    assert latency_summary(_records([0.001] * 99))["tail_supported"] is False
    assert latency_summary([])["samples"] == 0


def test_failures_miss_every_latency_limit_and_count_as_failed():
    records = _records([0.001] * 8) + _records([0.002] * 2, ok=False)
    records[-1].outcome.refused = True
    summary = latency_summary(records)
    assert summary["p90_ms"] == pytest.approx(1e3 * FAILED_LATENCY_S)
    assert accounting(records) == {"attempted": 10, "succeeded": 8, "refused": 1, "failed": 2}


def test_open_loop_times_from_the_due_time():
    class Clock:
        now = 0.0

        def __call__(self):
            return self.now

        def sleep(self, seconds):
            self.now += seconds

    clock = Clock()

    def execute(i, kind):
        clock.now += 0.3  # every operation takes 0.3 s; one is due every 0.1 s
        return Outcome(True)

    records = open_loop(["classify"] * 3, 10.0, execute, clock=clock, sleep=clock.sleep)
    assert [r.due for r in records] == pytest.approx([0.01, 0.11, 0.21])
    # The second operation could only start when the first finished (0.31):
    # it ran 0.2 s late and its latency includes that wait.
    assert records[1].late == pytest.approx(0.2)
    assert [r.latency for r in records] == pytest.approx([0.3, 0.5, 0.7])
