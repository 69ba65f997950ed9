"""The benchmark's workloads and what each per-layer metric should move.

Every workload is one user session with the same phases, so every run
reports every end-to-end metric:

1. set-up, three times (``setup_s`` is the median): fit, ``save_model``
   and a ``python -m repro serve`` daemon answering ``/readyz``;
2. warm in-process ``classify()`` calls over the held-out batch
   (``batch_qps``);
3. an open loop of operations at the workload's fixed ``rate``
   (``op_p50_ms``, ``op_p90_ms``) and a closed loop of 8-row classify
   calls (``classify_rps``), both over HTTP on one keep-alive connection
   from one thread. The daemon classifies one request at a time, so a
   second connection adds no capacity, only interpreter-lock hand-offs
   whose cost follows the host's scheduling rather than the program.

The open-loop rate is part of the workload, never derived from a run.
"""

from __future__ import annotations

from dataclasses import dataclass

CLASSIFY_ROWS = 8
INGEST_ROWS = 64
SETUPS = 3
#: Batch call, open-loop share and closed-loop share, repeated this many
#: times after each set-up.
ROUNDS = 8
CHECK_QUERIES = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_train: int
    d: int
    p: float
    batch: int
    spread_share: float
    rate: float
    #: Identifies the workload's random streams; kept when workloads change.
    stream: int
    streaming: bool = False
    ingest_every: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="serve_8row",
            why=("daemon on a two-cluster 20k x 2 model at p=0.01, 8-row "
                 "/classify open loop at 50/s on 1 connection: per-step "
                 "traversal and request lifecycle cost"),
            n_train=20_000, d=2, p=0.01, batch=10_000,
            spread_share=0.25, rate=50.0, stream=2,
        ),
        Workload(
            name="ingest_mix",
            why=("same daemon with --streaming and WAL fsync=always; every 3rd "
                 "open-loop op at 50/s is a 64-row /ingest: writes beside reads"),
            n_train=20_000, d=2, p=0.01, batch=10_000,
            spread_share=0.25, rate=50.0, streaming=True,
            ingest_every=3, stream=3,
        ),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "batch_qps": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "classify_rps": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> (unit, better, the end-to-end metric and workloads it should move).
PER_LAYER = {
    "index.build_s": ("s", "lower",
        "setup_s on every workload"),
    "index.flatten_s": ("s", "lower",
        "setup_s on every workload"),
    "threshold.bootstrap_self_s": ("s", "lower",
        "setup_s on every workload"),
    "threshold.rounds": ("count", "lower",
        "setup_s on every workload"),
    "grid.build_s": ("s", "lower",
        "setup_s on every workload"),
    "grid.hit_frac": ("ratio", "higher",
        "batch_qps on every workload"),
    "traverse.bootstrap_s": ("s", "lower",
        "setup_s on every workload"),
    "traverse.score_s": ("s", "lower",
        "setup_s on every workload"),
    "traverse.classify_s": ("s", "lower",
        "batch_qps on every workload"),
    "traverse.kernels_per_query": ("count", "lower",
        "batch_qps on every workload"),
    "traverse.expansions_per_query": ("count", "lower",
        "batch_qps on every workload"),
    "prune.threshold_frac": ("ratio", "higher",
        "batch_qps and setup_s on every workload"),
    "prune.tolerance_frac": ("ratio", "higher",
        "batch_qps and setup_s on every workload"),
    "prune.exhausted_frac": ("ratio", "lower",
        "batch_qps and setup_s on every workload"),
    "io.save_s": ("s", "lower",
        "setup_s on every workload"),
    "io.load_s": ("s", "lower",
        "setup_s on every workload"),
    "serve.ready_s": ("s", "lower",
        "setup_s on every workload"),
    "serve.classify_mean_ms": ("ms", "lower",
        "op_p50_ms on serve_8row"),
    "serve.overhead_mean_ms": ("ms", "lower",
        "op_p50_ms and classify_rps on serve_8row"),
    "serve.transport_mean_ms": ("ms", "lower",
        "op_p50_ms on serve_8row"),
    "serve.kernels_per_request": ("count", "lower",
        "op_p50_ms on serve_8row"),
    "serve.shed": ("count", "lower",
        "op_p90_ms on every workload"),
    "serve.timed_out": ("count", "lower",
        "op_p90_ms on every workload"),
    "serve.degraded": ("count", "lower",
        "op_p90_ms on every workload"),
    "serve.errors": ("count", "lower",
        "op_p90_ms on every workload"),
    "wal.append_mean_ms": ("ms", "lower",
        "op_p50_ms on ingest_mix"),
    "wal.fsyncs_per_ingest": ("count", "lower",
        "op_p50_ms on ingest_mix"),
    "stream.n_buffered_end": ("count", "lower",
        "op_p50_ms on ingest_mix"),
    "stream.refits": ("count", "lower",
        "op_p90_ms on ingest_mix (expected 0)"),
    "gen.late_p90_ms": ("ms", "lower",
        "op_p90_ms on every workload (generator health)"),
    "open.classify_p50_ms": ("ms", "lower",
        "op_p50_ms on every workload"),
    "open.ingest_p50_ms": ("ms", "lower",
        "op_p50_ms on ingest_mix"),
    "open.ingest_p90_ms": ("ms", "lower",
        "op_p90_ms on ingest_mix"),
    "op.samples": ("count", "higher",
        "sample count behind op_p50_ms and op_p90_ms"),
    "error_rate": ("ratio", "lower",
        "every end-to-end metric (must be 0)"),
    "floor.dense_exact_s": ("s", "lower",
        "none: the exact dense KDE floor moves with the machine"),
    "trace.setup_s": ("s", "lower",
        "tracing overhead against trace.setup_untraced_s"),
    "trace.setup_untraced_s": ("s", "lower",
        "tracing overhead against trace.setup_s"),
    "trace.batch_qps": ("1/s", "higher",
        "tracing overhead against trace.batch_qps_untraced"),
    "trace.batch_qps_untraced": ("1/s", "higher",
        "tracing overhead against trace.batch_qps"),
    "trace.coverage": ("ratio", "higher",
        "none: share of fit() and classify() time inside layer spans"),
}
