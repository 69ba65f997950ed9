"""Open- and closed-loop operation generators and latency summaries.

Both send from one caller. An open loop sends operation ``i`` when it
falls due at ``start + i/rate`` (independent users); its latency is timed
from the due time, so a stall also charges the wait it imposes on later
operations, and how late each one was sent is recorded. A closed loop
sends the next operation as soon as the previous one completed (a caller
that waits for each reply), so it measures capacity.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

#: Latency charged to a failed or refused operation: it misses any limit.
FAILED_LATENCY_S = 10.0


@dataclass
class Outcome:
    """What executing one operation produced."""

    ok: bool
    refused: bool = False
    detail: dict = field(default_factory=dict)


@dataclass
class Record:
    kind: str
    index: int
    due: float
    sent: float
    done: float
    outcome: Outcome

    @property
    def latency(self) -> float:
        """Seconds from due time to completion; failures miss every limit."""
        elapsed = self.done - self.due
        return elapsed if self.outcome.ok else max(elapsed, FAILED_LATENCY_S)

    @property
    def late(self) -> float:
        return max(self.sent - self.due, 0.0)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q``% at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def latency_summary(records: list[Record], tail: float = 90.0) -> dict:
    """p50 and the ``tail`` percentile in ms, with the sample count.

    ``tail_supported`` says whether at least ten samples lie beyond the
    tail percentile; a tail read from fewer samples is not reported as one.
    """
    latencies = [r.latency for r in records]
    if not latencies:
        return {"samples": 0, "p50_ms": None, f"p{tail:g}_ms": None, "tail_supported": False}
    return {
        "samples": len(latencies),
        "p50_ms": 1e3 * percentile(latencies, 50.0),
        f"p{tail:g}_ms": 1e3 * percentile(latencies, tail),
        "tail_supported": len(latencies) - math.ceil(tail / 100.0 * len(latencies)) >= 10,
    }


def accounting(records: list[Record]) -> dict:
    """Per-phase operation counts; refused operations also count as failed."""
    ok = sum(1 for r in records if r.outcome.ok)
    refused = sum(1 for r in records if r.outcome.refused)
    return {
        "attempted": len(records),
        "succeeded": ok,
        "refused": refused,
        "failed": len(records) - ok,
    }


def open_loop(
    kinds: list[str],
    rate: float,
    execute: Callable[[int, str], Outcome],
    clock=time.perf_counter,
    sleep=time.sleep,
) -> list[Record]:
    """Send ``kinds[i]`` at ``start + i / rate``, or as soon as the previous
    operation has finished when that is later.

    ``execute(i, kind)`` performs one operation and must not raise.
    """
    records = []
    start = clock() + 0.01
    for i, kind in enumerate(kinds):
        due = start + i / rate
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock()
        outcome = execute(i, kind)
        records.append(Record(kind, i, due, sent, clock(), outcome))
    return records


def closed_loop(
    n_ops: int,
    execute: Callable[[int, str], Outcome],
    kind: str = "classify",
    clock=time.perf_counter,
) -> tuple[list[Record], float]:
    """Operations ``0 .. n_ops-1`` back to back.

    Returns the records and the elapsed seconds from start to the last
    completion (the denominator of the completion rate).
    """
    records = []
    start = clock()
    for i in range(n_ops):
        sent = clock()
        outcome = execute(i, kind)
        records.append(Record(kind, i, sent, sent, clock(), outcome))
    elapsed = (records[-1].done if records else start) - start
    return records, elapsed
